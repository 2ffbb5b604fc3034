"""Command-line interface exit codes, parsing, and report formats."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr
from fractions import Fraction as F
from pathlib import Path

import pytest

from critdens import cli
from critdens.blowup import WeightedBlowupGraph, blowup_without
from critdens.cli import run
from critdens.graphs import path_graph


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "path3.g"
    p.write_text("3; 1-2 2-3\n")
    return str(p)


@pytest.fixture
def k3(tmp_path):
    p = tmp_path / "k3.g"
    p.write_text("3; 1-2 1-3 2-3\n")
    return str(p)


@pytest.fixture
def star3(tmp_path):
    p = tmp_path / "star3.g"
    p.write_text("4; 1-2 1-3 1-4\n")
    return str(p)


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def _src_env():
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


# -- exit codes ----------------------------------------------------------------


def test_decide_tree_not_ensured_exits_1(path3):
    code, out = _run(["decide-tree", path3, "--densities", "1/2,1/2"])
    assert code == 1
    assert "NotEnsured" in out
    assert "violating edge: 2-3" in out


def test_decide_tree_ensured_exits_0(path3):
    code, out = _run(["decide-tree", path3, "--densities", "0.51,0.51"])
    assert code == 0
    assert "Ensured" in out


def test_decimals_parse_as_exact_rationals(path3):
    # 0.51 must behave exactly like 51/100
    a = _run(["decide-tree", path3, "--densities", "0.51,0.51"])
    b = _run(["decide-tree", path3, "--densities", "51/100,51/100"])
    assert a == b
    assert "49/51" in a[1]


def test_triangle_exit_codes():
    assert _run(["triangle", "0.8", "0.8", "0.8"])[0] == 0
    assert _run(["triangle", "0.61", "0.61", "0.61"])[0] == 1


def test_usage_error_exits_2(path3):
    with pytest.raises(SystemExit) as err:
        run(["decide-tree"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["no-such-command"])
    assert err.value.code == 2


def test_malformed_graph_file_exits_2(tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("3; 1-9\n")
    code, _ = _run(["decide-tree", str(bad), "--densities", "1/2,1/2"])
    assert code == 2
    code, _ = _run(["decide-tree", str(tmp_path / "missing.g"),
                    "--densities", "1/2"])
    assert code == 2


def test_corrupt_density_file_exits_2_with_line(path3, tmp_path, capsys):
    dens = tmp_path / "bad.dens"
    dens.write_text("0.6\nnot-a-number\n")
    code, _ = _run(["decide-tree", path3, "--densities", f"@{dens}"])
    assert code == 2
    assert f"{dens}:2" in capsys.readouterr().err


def test_threads_flag_is_gone(k3):
    # the thread pool changed verdicts and gained nothing; it was removed
    with pytest.raises(SystemExit) as err:
        run(["oracle-search", k3, "--floor", "0.6", "--threads", "1"])
    assert err.value.code == 2


def test_budget_exhaustion_exits_3(k3):
    code, _ = _run(["oracle-search", k3, "--floor", "0.6", "--budget", "1"])
    assert code == 3


def test_dcrit_budget_exhaustion_gives_best_density_so_far(k3, capsys):
    code, out = _run(["oracle-dcrit", k3, "--q", "10", "--budget", "100"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "error: search budget exhausted at configuration 8, cluster sizes "
        "[2, 2, 2], listing minimal covers; best grid density so far 3/5\n")


def test_glue_with_tree_certifier(path3):
    # P3 glued at its middle vertex to an end of another P3: each part's
    # glue edges have their ratios doubled by the 1/2 shares
    glue = ["glue", path3, path3, "--u1", "2", "--u2", "1", "--m1", "1/2",
            "--m2", "1/2", "--certify", "tree", "--densities"]
    code, out = _run(glue + ["0.9,0.9,0.9,0.9"])
    assert (code, out) == (0, "glued pattern: '5; 1-2 2-3 2-4 4-5', split "
                              "1/2 (0.5) / 1/2 (0.5)\nverdict: Sufficient\n")
    code, out = _run(glue + ["0.6,0.6,0.6,0.6", "--format", "structured"])
    assert code == 1
    assert _records(out) == [{"record": "verdict", "command": "glue",
                              "verdict": "Unknown", "exit": 1}]


def test_certifier_returning_a_non_verdict_exits_2(path3, monkeypatch, capsys):
    monkeypatch.setitem(cli._CERTIFIERS, "tree", lambda H, g: True)
    code, out = _run(["glue", path3, path3, "--u1", "2", "--u2", "1",
                      "--m1", "1/2", "--m2", "1/2", "--certify", "tree",
                      "--densities", "0.9"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: certifier returned True\n"


def test_non_tree_to_tree_command_exits_2(k3):
    code, _ = _run(["decide-tree", k3, "--densities", "0.9,0.9,0.9"])
    assert code == 2


def test_internal_error_exits_2_with_traceback(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "triangle_decide", broken)
    monkeypatch.setattr(sys, "argv", ["critdens", "triangle", "0.8", "0.8", "0.8"])
    with pytest.raises(SystemExit) as err:
        cli.main()
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("internal error:")
    assert "Traceback" in stderr and "RuntimeError: injected fault" in stderr


class _ClosedPipe(io.StringIO):
    """An output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_output_keeps_the_verdict(path3, tmp_path, capsys):
    assert run(["decide-tree", path3, "--densities", "0.9"], out=_ClosedPipe()) == 0
    assert run(["decide-tree", path3, "--densities", "0.1", "--format", "structured"],
               out=_ClosedPipe()) == 1
    assert capsys.readouterr().err == ""
    missing = str(tmp_path / "missing.g")
    assert run(["decide-tree", missing, "--densities", "0.9"], out=_ClosedPipe()) == 2


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_pipe_closed_early_keeps_the_verdict(path3, tmp_path, unbuffered):
    """The reader closes the pipe before critdens writes: an unbuffered
    write fails inside the command, a buffered one at the final flush."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"

    def critdens(*argv):
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run([sys.executable, "-m", "critdens.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  env=env)
        finally:
            os.close(write)

    proc = critdens("decide-tree", path3, "--densities", "0.9")
    assert (proc.returncode, proc.stderr) == (0, "")
    proc = critdens("--help")
    assert (proc.returncode, proc.stderr) == (0, "")
    proc = critdens("decide-tree", str(tmp_path / "missing.g"), "--densities", "0.9")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read")


# -- checkpoints -------------------------------------------------------------------


def test_stale_checkpoint_is_rejected(k3, tmp_path, capsys):
    assert _run(["oracle-search", k3, "--floor", "0.5"])[0] == 0
    checkpoint = tmp_path / "cp.json"
    checkpoint.write_text('{"completed": 999}')
    code, out = _run(["oracle-search", k3, "--floor", "0.5",
                      "--checkpoint", str(checkpoint)])
    assert code == 2
    assert "NoneFound" not in out
    assert "another search" in capsys.readouterr().err


def test_truncated_checkpoint_is_rejected(k3, tmp_path, capsys):
    checkpoint = tmp_path / "cp.json"
    checkpoint.write_text('{"search": {"format"')
    code, _ = _run(["oracle-search", k3, "--floor", "0.5",
                    "--checkpoint", str(checkpoint)])
    assert code == 2
    err = capsys.readouterr().err
    assert "corrupt" in err and "Traceback" not in err


def test_checkpoint_resumes_only_its_own_search(k3, tmp_path):
    checkpoint = tmp_path / "cp.json"
    argv = ["oracle-search", k3, "--floor", "0.7", "--sizes", "2,2,2",
            "--checkpoint", str(checkpoint)]
    first = _run(argv)
    assert first[0] == 1
    assert _run(argv) == first
    assert not (tmp_path / "cp.json.tmp").exists()
    other_floor = ["oracle-search", k3, "--floor", "0.5", "--sizes", "2,2,2",
                   "--checkpoint", str(checkpoint)]
    assert _run(other_floor)[0] == 2


def test_format_1_checkpoint_is_refused(k3, tmp_path, capsys):
    """Format 1 counted every configuration, format 2 one per orbit, so a
    format-1 checkpoint of the same search is refused, not resumed."""
    checkpoint = tmp_path / "cp.json"
    argv = ["oracle-search", k3, "--floor", "0.7", "--sizes", "2,2,2",
            "--checkpoint", str(checkpoint)]
    assert _run(argv)[0] == 1
    state = json.loads(checkpoint.read_text())
    assert state["search"]["format"] == 2
    state["search"]["format"] = 1
    checkpoint.write_text(json.dumps(state))
    code, out = _run(argv)
    assert code == 2
    assert "NoneFound" not in out
    assert "another search or format" in capsys.readouterr().err


# -- repeated in-process runs ------------------------------------------------------

_FRESH_RUN = """
import io, json, sys
from contextlib import redirect_stderr
from critdens.cli import run
out, err = io.StringIO(), io.StringIO()
with redirect_stderr(err):
    try:
        code = run(json.loads(sys.argv[1]), out=out)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def _fresh_interpreter_run(argv):
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(argv)],
                          capture_output=True, text=True, env=_src_env(), check=True)
    return tuple(json.loads(proc.stdout))


def _in_process_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        try:
            code = run(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("first, second", [
    (["decide-tree", "{path3}", "--densities", "1/2,1/2", "--format", "structured"],
     ["decide-tree", "{path3}", "--densities", "1/2,1/2"]),
    (["oracle-search", "{star3}", "--floor", "0.6", "--q", "12", "--sizes", "2,2,2,2"],
     ["oracle-search", "{star3}", "--floor", "0.6", "--q", "12"]),
    (["decide-tree"],
     ["decide-tree", "{path3}", "--densities", "0.51,0.51"]),
], ids=["format", "sizes", "usage-error"])
def test_repeated_runs_share_no_state(first, second, path3, star3):
    first, second = ([a.format(path3=path3, star3=star3) for a in argv]
                     for argv in (first, second))
    got = [_in_process_run(first), _in_process_run(second)]
    assert got == [_fresh_interpreter_run(first), _fresh_interpreter_run(second)]
    assert got[0] != got[1]


# -- density argument forms ------------------------------------------------------


def test_keyed_and_positional_densities_agree(path3):
    a = _run(["decide-tree", path3, "--densities", "1/3,2/3"])
    b = _run(["decide-tree", path3, "--densities", "2-3=2/3,1-2=1/3"])
    assert a == b


def test_single_density_broadcasts(k3):
    short = _run(["star-check", k3, "--labeling", "1,2,3", "--densities", "0.7"])
    full = _run(["star-check", k3, "--labeling", "1,2,3",
                 "--densities", "0.7,0.7,0.7"])
    assert short == full
    assert short[0] == 0


def test_mixed_density_forms_rejected(path3):
    code, _ = _run(["decide-tree", path3, "--densities", "1-2=1/2,1/2"])
    assert code == 2


def test_keyed_density_given_twice_rejected(path3, capsys):
    # the second entry names edge 1-2 again; keeping either value would
    # silently drop the other
    for flag, command in (("--densities", ["star-check", path3, "--labeling", "1,2,3"]),
                          ("--floor", ["oracle-search", path3])):
        code, _ = _run(command + [flag, "1-2=0.9,2-1=0.1,2-3=0.9"])
        assert code == 2
        assert "entry 2: edge 1-2 given twice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, work", [
    (["star-bound", "{path3}", "--tol", "-5"], "star_lower_bound"),
    (["bounds", "{path3}", "--tol", "0"], "compute_bounds"),
    (["dcrit-tree", "{path3}", "--tol", "0"], "dcrit_tree"),
    (["oracle-dcrit", "{path3}", "--tol=-1/64"], "oracle_dcrit_estimate"),
    (["verify-bt1", "--n", "2", "--m", "2", "--tol", "0"], "verify_bt1"),
])
def test_nonpositive_tolerance_exits_2_before_any_work(argv, work, path3,
                                                        monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran with a nonpositive tolerance")

    monkeypatch.setattr(cli, work, must_not_run)
    code, out = _run([a.format(path3=path3) for a in argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: tolerance must be positive\n"


# -- reports ---------------------------------------------------------------------


def test_reports_show_exact_and_decimal(path3):
    code, out = _run(["dcrit-tree", path3])
    assert code == 0
    assert "1/2" in out and "0.5" in out


def test_decimal_display_past_the_float_range(path3, star3):
    # a rescaled ratio near 5e319 (near 1e400 on the star) has no float
    code, out = _run(["decide-tree", path3, "--densities", "1e-320,0.5"])
    assert code == 1
    assert "(5e+319)" in out and out.endswith("verdict: NotEnsured\n")
    code, out = _run(["decide-tree", star3, "--densities", "1e-400"])
    assert code == 1 and out.count(" (1e+400)") == 2
    assert cli._both(F(10**400, 3)) == f"{10**400}/3 (3.333333333e+399)"
    assert cli._both(F(-10**309)) == f"-{10**309} (-1e+309)"
    assert cli._both(F(10**300, 3)) == f"{10**300}/3 (3.333333333e+299)"


def test_structured_output_is_json_lines(path3):
    code, out = _run(["decide-tree", path3, "--densities", "1/2,1/2",
                      "--format", "structured"])
    assert code == 1
    records = _records(out)
    assert records[-1] == {
        "record": "verdict", "command": "decide-tree",
        "verdict": "NotEnsured", "exit": 1, "violating_edge": [2, 3]}
    assert records[0]["record"] == "reduction-step"


def test_structured_bounds_records(k3):
    code, out = _run(["bounds", k3, "--format", "structured"])
    assert code == 0
    names = [r["name"] for r in _records(out)]
    assert names == ["lower_delta", "lower_star", "upper_matching_root",
                     "upper_coarse", "upper_lll"]


def test_matchpoly_reports_coefficients(k3):
    code, out = _run(["matchpoly", k3, "--format", "structured"])
    assert code == 0
    poly = next(r for r in _records(out) if r["record"] == "polynomial")
    assert poly["coefficients"] == ["0", "-3", "0", "1"]


def test_matchpoly_on_many_isolated_vertices(tmp_path):
    # one edge among 1,200 vertices: deeper than the recursion limit if
    # the matching DP walked every vertex
    p = tmp_path / "sparse.g"
    p.write_text("1200; 1-2\n")
    code, out = _run(["matchpoly", str(p), "--format", "structured"])
    assert code == 0
    poly = next(r for r in _records(out) if r["record"] == "polynomial")
    assert poly["coefficients"][-3:] == ["-1", "0", "1"]


# -- construction round trips ------------------------------------------------------


def test_construct_and_check_transversal(path3, tmp_path):
    out_file = tmp_path / "b.json"
    code, _ = _run(["construct", path3, "--method", "gacs",
                    "--out", str(out_file)])
    assert code == 0
    B = WeightedBlowupGraph.from_json(out_file.read_text())
    assert B.densities() == {(1, 2): F(1, 2), (2, 3): F(1, 2)}
    code, out = _run(["check-transversal", str(out_file), "--oracle"])
    assert code == 1
    assert "NoTransversal" in out


@pytest.mark.parametrize("edit, message", [
    ({"mode": "float"}, "mode 'float' is not supported"),
    # a pattern vertex 1.5 once passed and broke the transversal search
    ({"pattern": {"n": 3, "edges": [[1.5, 2]]}, "cross_edges": []},
     "vertex 1.5 is not an integer"),
], ids=["float mode", "fractional pattern vertex"])
def test_malformed_blowup_file_is_refused(path3, tmp_path, monkeypatch, capsys, edit, message):
    out_file = tmp_path / "old.json"
    _run(["construct", path3, "--method", "gacs", "--out", str(out_file)])
    out_file.write_text(json.dumps({**json.loads(out_file.read_text()), **edit}))
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["critdens", "check-transversal", str(out_file)])
    with pytest.raises(SystemExit) as err:
        cli.main()
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and message in stderr and "Traceback" not in stderr


def test_transversal_search_past_its_guard_exits_3(tmp_path, capsys):
    # No transversal: the last edge of the path has no cross pair, and the
    # search meets it only after every choice on the first 14 clusters,
    # 3^14 of them, far beyond the guard's 10^6 slot trials.
    H = path_graph(15)
    B = blowup_without(H, [[F(1, 3)] * 3] * 15,
                       [((14, a), (15, b)) for a in range(3) for b in range(3)])
    blowup_file = tmp_path / "deep.json"
    blowup_file.write_text(B.to_json())
    code, _ = _run(["check-transversal", str(blowup_file)])
    assert code == 3
    assert "search exceeds 1000000 slot trials" in capsys.readouterr().err


def test_construct_star_not_producible(k3):
    code, out = _run(["construct", k3, "--method", "star",
                      "--labeling", "1,2,3", "--densities", "0.63"])
    assert code == 1
    assert "no construction" in out


def test_oracle_search_writes_loadable_construction(k3, tmp_path):
    out_file = tmp_path / "grid.json"
    code, _ = _run(["oracle-search", k3, "--floor", "0.6", "--q", "10",
                    "--out", str(out_file)])
    assert code == 0
    B = WeightedBlowupGraph.from_json(out_file.read_text())
    assert B.find_transversal() is None
    assert all(d >= F(3, 5) for d in B.densities().values())


def test_star_bound_counts_tree_labelings_past_the_cap(tmp_path):
    # P_1200 has 2^1199 proper labelings, each with P_1200 as its path tree
    p = tmp_path / "p1200.g"
    p.write_text(path_graph(1200).to_text() + "\n")
    code, out = _run(["star-bound", str(p)])
    assert code == 0
    assert ("labelings examined: 100000 (cap reached: certified lower bound only)"
            in out.splitlines())


def test_star_check_exports_tree(k3, tmp_path):
    exported = tmp_path / "tree.g"
    code, out = _run(["star-check", k3, "--labeling", "1,2,3",
                      "--densities", "0.7", "--export-tree", str(exported)])
    assert code == 0
    assert exported.read_text().strip() == "4; 1-2 1-4 2-3"
    assert "node 3 = path 1>2>3" in out


@pytest.fixture
def k18(tmp_path):
    p = tmp_path / "k18.g"
    p.write_text("18; " + " ".join(f"{i}-{j}" for i in range(1, 19)
                                   for j in range(i + 1, 19)) + "\n")
    return str(p)


@pytest.mark.parametrize("density, code, verdict", [("0.95", 1, "FailsThisLabeling"),
                                                    ("0.99", 0, "PassesThisLabeling")])
def test_star_check_past_the_path_tree_cap(k18, density, code, verdict):
    # T_f of K18 has 2^17 nodes, past NODE_CAP; the verdict builds none
    assert _run(["star-check", k18, "--labeling", ",".join(map(str, range(1, 19))),
                 "--densities", density]) == (code, f"verdict: {verdict}\n")


def test_star_check_export_past_the_path_tree_cap_exits_3(k18, tmp_path, capsys):
    exported = tmp_path / "tree.g"
    code, out = _run(["star-check", k18, "--labeling", ",".join(map(str, range(1, 19))),
                      "--densities", "0.99", "--export-tree", str(exported)])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: monotone-path tree exceeds 100000 nodes\n"
    assert not exported.exists()


def test_star_bound_sets_aside_a_path_tree_past_the_cap(tmp_path, monkeypatch, capsys):
    # the paw's labeling 2, 3, 4, 1 has a 6-node path tree, below the
    # best's 5-node one (1, 4, 2, 3): only the shape table builds it
    from critdens import stars

    monkeypatch.setattr(stars, "NODE_CAP", 5)
    paw = tmp_path / "paw.g"
    paw.write_text("4; 1-4 2-3 2-4 3-4\n")
    assert _run(["bounds", str(paw)])[0] == 0
    assert _run(["star-bound", str(paw)])[0] == 0
    capsys.readouterr()
    assert _run(["star-bound", str(paw), "--dedupe"]) == (3, "")
    assert capsys.readouterr().err == "error: monotone-path tree exceeds 5 nodes\n"


@pytest.mark.parametrize("criteria, message", [
    ("0", "no criterion 0: criteria are numbered 1..11"),
    ("12", "no criterion 12: criteria are numbered 1..11"),
    ("1,12", "no criterion 12: criteria are numbered 1..11"),
    ("x", "cannot parse criteria 'x'"),
])
def test_self_test_rejects_unknown_criteria(criteria, message, capsys):
    code, out = _run(["self-test", "--criteria", criteria])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_commands():
    assert _run(["verify-bt1", "--n", "2", "--m", "3", "--tol", "1e-9"])[0] == 0
    assert _run(["verify-bowtie"])[0] == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "critdens.cli", "triangle", "0.8", "0.8", "0.8"],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert "Ensured" in proc.stdout
