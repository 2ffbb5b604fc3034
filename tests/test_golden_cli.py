"""Golden CLI transcript: exit code, stdout, stderr and written files of
every README example (except self-test, whose records carry timings), an
opposite-verdict variant of each verdict command, and the edge-value
resolver's error paths, in both output formats.

The transcript in golden_cli.json pins the observable behaviour of the
command line, so refactors behind it must leave it byte-identical.
Every command runs in a fresh directory with relative file names.
Rewrite the transcript only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from critdens.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")

INPUTS = {
    "path3.g": "3; 1-2 2-3\n",
    "path4.g": "4; 1-2 2-3 3-4\n",
    "star5.g": "5; 1-2 1-3 1-4 1-5\n",
    "k3.g": "3; 1-2 1-3 2-3\n",
    "k4.g": "4; 1-2 1-3 1-4 2-3 2-4 3-4\n",
    "star4.g": "4; 1-2 1-3 1-4\n",
    "paw.g": "4; 1-2 1-3 2-3 3-4\n",
    # a one-slot-per-cluster blow-up of P3 with every cross pair present
    "full.json": json.dumps({
        "pattern": {"n": 3, "edges": [[1, 2], [2, 3]]},
        "clusters": [[{"id": 0, "weight": "1"}]] * 3,
        "cross_edges": [[1, 0, 2, 0], [2, 0, 3, 0]],
        "mode": "exact"}) + "\n",
}

BOW_TIE = "1-2=0.86,1-3=0.86,2-3=0.52,1-4=0.86,1-5=0.86,4-5=0.52"

CASES = [
    # README examples, in README order
    "decide-tree path3.g --densities 1/2,1/2",
    "dcrit-tree path4.g --tol 1e-12",
    "triangle 0.8 0.8 0.8",
    "bounds k4.g",
    "star-bound k3.g --dedupe",
    "star-check k3.g --labeling 1,2,3 --densities 0.6 --export-tree t.g",
    "construct path3.g --method gacs --out blowup.json",
    "construct k3.g --method star --labeling 1,2,3 --densities 0.6",
    "check-transversal blowup.json --oracle",
    "oracle-search k3.g --floor 0.6 --q 10 --out found.json",
    "oracle-dcrit k3.g --q 50 --tol 1/64",
    f"glue k3.g k3.g --u1 1 --u2 1 --m1 1/2 --m2 1/2 --densities {BOW_TIE}",
    "verify-bt1 --n 2 --m 3 --tol 1e-9",
    "verify-bowtie",
    # the opposite verdict of each verdict command
    "decide-tree path3.g --densities 0.6,0.6",
    "triangle 0.6 0.6 0.6",
    "star-check k3.g --labeling 1,2,3 --densities 0.63",
    "construct k3.g --method star --labeling 1,2,3 --densities 0.63",
    "check-transversal full.json --oracle",
    "oracle-search k3.g --floor 0.7 --q 10",
    f"glue k3.g k3.g --u1 1 --u2 1 --m1 1/2 --m2 1/2 "
    f"--densities {BOW_TIE} --certify positivity",
    "glue path3.g path3.g --u1 2 --u2 1 --m1 1/2 --m2 1/2 "
    "--densities 0.9,0.9,0.9,0.9 --certify tree",
    "matchpoly path3.g --densities 0.6,0.7",
    # the edge-value resolver's errors
    "decide-tree path3.g --densities 1-3=0.5,1-2=0.5",
    "decide-tree path3.g --densities 0.5,0.5,0.5",
    "decide-tree path3.g --densities 1-2=0.5",
    "decide-tree path3.g --densities 1.5,0.5",
    "decide-tree path3.g --densities=-1/2,0.5",
    "matchpoly path3.g --densities 2-3=0.5",
    "star-check k3.g --labeling 1,2,3 --densities 0.5,0.5",
    "star-check k3.g --labeling 1,2,3 --densities 1-2=0.5,1-3=1.5,2-3=0.5",
    "construct k3.g --method star --labeling 1,2,3 --densities 1-2=0.5,2-3=0.5",
    "oracle-search k3.g --floor 1.2",
    # a search stopped by its budget (exit 3)
    "oracle-search k3.g --floor 0.6 --budget 1",
    "glue k3.g k3.g --u1 1 --u2 1 --m1 1/2 --m2 1/2 --densities 0.5,0.5",
    # the eigenvector construction: lambda rational (star5), and lambda^2
    # irrational (path4, one split slot) written out and checked
    "construct star5.g --method gacs",
    "construct path4.g --method gacs --out p4.json",
    "check-transversal p4.json --oracle",
    # the descent through floor searches: a size-3 cluster (S4), size-2
    # clusters only (P4), a triangle with a pendant edge, and capped sizes
    "oracle-dcrit star4.g --q 50",
    "oracle-dcrit path4.g --q 50",
    "oracle-dcrit paw.g --q 10",
    "oracle-dcrit k3.g --q 20 --sizes 1,2,2",
]


def _snapshot(root: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(root.iterdir()) if p.is_file()}


def transcript(root: Path) -> list[dict]:
    """Run every case in both formats, in order, inside the empty
    directory root (the caller makes it the working directory)."""
    for name, text in INPUTS.items():
        (root / name).write_text(text)
    entries = []
    for case in CASES:
        for fmt in ("text", "structured"):
            argv = shlex.split(case) + ["--format", fmt]
            before = _snapshot(root)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stderr(err):
                code = run(argv, out=out)
            after = _snapshot(root)
            entries.append({"argv": argv, "exit": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue(),
                            "files": {k: v for k, v in after.items()
                                      if before.get(k) != v}})
    return entries


def test_cli_transcript_matches_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    got = transcript(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in golden]
    for want, have in zip(golden, got):
        assert have == want, " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        entries = transcript(Path(tmp))
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
