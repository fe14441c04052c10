import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinopt
from pinopt import generators
from pinopt.cli import SWEEP_COLUMNS, build_parser, main
from pinopt.graphs import MAX_NODES, format_edge_list


def run_cli(*argv, cwd=None):
    """`pinopt argv` run in this process through `main`, in the working
    directory `cwd`: its exit code, stdout and stderr, as
    `python -m pinopt` would give them. argparse's SystemExit becomes its
    code, and every warning is written to stderr, as a fresh process shows
    it; an exception that escapes `main` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)  # contextlib.chdir needs Python 3.11
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line)
                   for w in caught)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


@pytest.fixture()
def double_star_file(tmp_path):
    path = tmp_path / "ds.txt"
    res = run_cli("gen", "--family", "double_star", "--k", "5", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


# ----------------------------------------------------------------------- gen


def test_gen_writes_edge_list(double_star_file):
    text = double_star_file.read_text()
    assert text.splitlines()[0] == "13"
    assert len(text.splitlines()) == 1 + 12


def test_gen_ba_edge_count_contract(tmp_path):
    res = run_cli("gen", "--family", "ba", "--n", "25", "--m0", "3", "--m", "1", "--seed", "7")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "25"
    assert len(lines) - 1 == 3 * 2 // 2 + 1 * 22  # clique seed + one edge per newcomer


def test_gen_usage_errors():
    assert run_cli("gen", "--family", "star", "--n", "2").returncode == 1
    assert run_cli("gen", "--family", "ba", "--n", "10").returncode == 1  # missing --m0/--m
    assert run_cli("gen", "--family", "unknown", "--n", "5").returncode == 1
    res = run_cli("gen", "--family", "nw", "--n", "10", "--p", "0.1")
    assert res.returncode == 1
    assert "--K" in res.stderr


# (flag, value) per generator parameter, in parameter order; --seed is optional
GEN_CASES = {
    "star": [("n", 6)],
    "double_star": [("k", 3)],
    "complete": [("n", 5)],
    "path": [("n", 7)],
    "ba": [("n", 30), ("m0", 4), ("m", 2), ("seed", 3)],
    "nw": [("n", 30), ("K", 4), ("p", 0.2), ("seed", 3)],
    "erdos_renyi": [("n", 30), ("p", 0.3), ("seed", 3)],
}


@pytest.mark.parametrize("family", GEN_CASES)
def test_gen_family_table_rows(family, capsys):
    flags = GEN_CASES[family]
    argv = ["gen", "--family", family] + [a for f, v in flags for a in (f"--{f}", str(v))]
    assert main(argv) == 0
    expect = format_edge_list(getattr(generators, f"gen_{family}")(*(v for _, v in flags)))
    assert capsys.readouterr().out == expect
    for i, (flag, _) in enumerate(flags):
        if flag == "seed":
            continue
        assert main(argv[:3 + 2 * i] + argv[5 + 2 * i:]) == 1
        assert capsys.readouterr() == ("", f"error: gen {family}: --{flag} is required\n")


def test_gen_deterministic_bytes():
    argv = ["gen", "--family", "nw", "--n", "40", "--K", "4", "--p", "0.05", "--seed", "3"]
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


# ------------------------------------------------------------------- analyze


def test_analyze_double_star_hubs(double_star_file):
    res = run_cli("analyze", str(double_star_file), "--pins", "1,7")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["lambda1"] == pytest.approx(1.0, abs=1e-9)
    assert rep["lower_min_boundary"] == 1.0
    assert rep["satisfied"] is None
    assert res.stdout.endswith('"upper_single_pin": null, "alpha_over_c": null, "satisfied": null}\n')


def test_analyze_criterion_flag(double_star_file):
    rep = json.loads(run_cli("analyze", str(double_star_file), "--pins", "1,7",
                             "--alpha-over-c", "0.5").stdout)
    assert rep["satisfied"] is True


def test_analyze_prints_lambda1_inside_its_bounds_and_an_exact_verdict(tmp_path):
    k8, split = tmp_path / "k8.txt", tmp_path / "split.txt"
    assert run_cli("gen", "--family", "complete", "--n", "8", "--out", str(k8)).returncode == 0
    rep = json.loads(run_cli("analyze", str(k8), "--pins", "2,6,1", "--alpha-over-c", "3").stdout)
    assert (rep["lambda1"], rep["satisfied"]) == (3.0, False)
    split.write_text("9\n0 1\n1 2\n3 4\n5 6\n6 7\n5 7\n")
    res = run_cli("analyze", str(split), "--pins", "3")
    assert res.stdout.startswith('{"lambda1": 0.0, ')
    res = run_cli("select", str(split), "--strategy", "betweenness", "--l", "1")
    assert '"lambda1": 0.0, "lambda1_runs": [0.0]}' in res.stdout


def test_analyze_pins_file(tmp_path, double_star_file):
    pins = tmp_path / "pins.txt"
    pins.write_text("1 7  # hubs\n")
    rep = json.loads(run_cli("analyze", str(double_star_file), "--pins-file", str(pins)).stdout)
    assert rep["lambda1"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_usage_and_data_errors(tmp_path, double_star_file):
    assert run_cli("analyze", str(double_star_file)).returncode == 1  # no pins
    assert run_cli("analyze", str(double_star_file), "--pins", "1", "--pins-file", "x").returncode == 1
    # pinning every node leaves nothing to ground
    all_pins = ",".join(str(i) for i in range(13))
    assert run_cli("analyze", str(double_star_file), "--pins", all_pins).returncode == 1
    assert run_cli("analyze", str(tmp_path / "missing.txt"), "--pins", "0").returncode == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("4\n0 1 2\n")
    res = run_cli("analyze", str(bad), "--pins", "0")
    assert res.returncode == 2
    assert "line 2" in res.stderr


# -------------------------------------------------------------------- select


def test_select_strategies_agree_with_library(double_star_file):
    res = run_cli("select", str(double_star_file), "--strategy", "brute_force", "--l", "1")
    out = json.loads(res.stdout)
    assert out["pin_set"] == [0]  # the bridge beats both hubs
    assert out["lambda1"] == pytest.approx(0.1459, abs=5e-4)

    res = run_cli("select", str(double_star_file), "--strategy", "degree_mix",
                  "--l", "2", "--q", "1.0", "--runs", "4", "--seed", "1")
    out = json.loads(res.stdout)
    assert out["pin_set"] == [1, 7]
    assert out["q"] == 1.0
    assert len(out["lambda1_runs"]) == 4

    res = run_cli("select", str(double_star_file), "--strategy", "dominating", "--seed", "0")
    out = json.loads(res.stdout)
    assert out["lambda1"] == pytest.approx(1.0, abs=1e-9)


def test_select_usage_and_budget_errors(double_star_file):
    assert run_cli("select", str(double_star_file), "--strategy", "degree_mix", "--l", "2").returncode == 1
    assert run_cli("select", str(double_star_file), "--strategy", "betweenness").returncode == 1
    res = run_cli("select", str(double_star_file), "--strategy", "brute_force",
                  "--l", "6", "--budget", "100")
    assert res.returncode == 3
    assert "budget" in res.stderr.lower()


def test_select_deterministic_bytes(double_star_file):
    argv = ["select", str(double_star_file), "--strategy", "degree_mix",
            "--l", "4", "--q", "0.5", "--runs", "8", "--seed", "5"]
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


@pytest.mark.parametrize("strategy", ["brute_force", "greedy", "betweenness"])
def test_select_prints_a_null_seed_and_no_q(double_star_file, capsys, strategy):
    assert main(["select", str(double_star_file), "--strategy", strategy, "--l", "2"]) == 0
    out = capsys.readouterr().out
    assert '"seed": null' in out
    assert list(json.loads(out)) == ["strategy", "l", "seed", "pin_set", "lambda1", "lambda1_runs"]


# --------------------------------------------------------------------- sweep


def test_sweep_csv_shape_and_bounds(double_star_file, tmp_path):
    out = tmp_path / "sweep.csv"
    res = run_cli("sweep", str(double_star_file), "--strategy", "degree_mix",
                  "--l-range", "1:12", "--q", "0.0,0.5,1.0", "--runs", "5",
                  "--seed", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 12 * 3
    # re-parse and re-check the sandwich row by row
    for line in lines[1:]:
        vals = dict(zip(SWEEP_COLUMNS, line.split(",")))
        lam = float(vals["lambda1_mean"])
        assert float(vals["lower_min_boundary"]) <= lam + 1e-9
        assert lam <= float(vals["upper_spectrum"]) + 1e-9
        assert lam <= float(vals["upper_kmin"]) + 1e-9
        assert lam <= float(vals["upper_avg_boundary"]) + 1e-9


def test_sweep_brute_force_column(double_star_file):
    res = run_cli("sweep", str(double_star_file), "--strategy", "brute_force",
                  "--l-range", "1:12", "--with-brute-force")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].endswith(",lambda1_brute")
    table = [float(l.split(",")[2]) for l in lines[1:]]
    expect = [0.1459, 1, 1, 1, 1, 1, 1, 1, 1, 1.5505, 6, 6]
    assert np.allclose(table, expect, atol=5e-4)


def test_sweep_brute_force_searches_once_per_l(tmp_path, monkeypatch, capsys):
    g = pinopt.load_dolphins()
    path = tmp_path / "dolphins.txt"
    path.write_text(format_edge_list(g))
    argv = ["sweep", str(path), "--strategy", "brute_force", "--l-range", "1:3"]
    assert main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    # the bytes of a sweep that searched once for the rows and once more for the column
    expect = [plain[0] + ",lambda1_brute"] + [
        f"{row},{pinopt.strategies.brute_force_max_lambda1(g, l).lambda1:.10g}"
        for l, row in enumerate(plain[1:], start=1)]
    calls = []
    search = pinopt.strategies.brute_force_max_lambda1
    monkeypatch.setattr(pinopt.strategies, "brute_force_max_lambda1",
                        lambda g, l, **kw: calls.append(l) or search(g, l, **kw))
    assert main(argv + ["--with-brute-force"]) == 0
    assert calls == [1, 2, 3]
    assert capsys.readouterr().out == "\n".join(expect) + "\n"


def test_sweep_computes_betweenness_once_per_graph(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ba.txt"
    path.write_text(format_edge_list(generators.gen_ba(40, 3, 2, 23)))
    argv = ["sweep", str(path), "--strategy", "betweenness", "--l-range"]
    kept = []
    real = pinopt.strategies.betweenness_centrality
    monkeypatch.setattr(pinopt.strategies, "betweenness_centrality",
                        lambda g: kept.append(real(g)) or kept[-1])
    assert main(argv + ["1:5"]) == 0
    assert len(kept) == 1 and not kept[0].flags.writeable
    swept = capsys.readouterr().out
    # one command per l, each computing afresh on its own graph, gives the same CSV
    singles = []
    for l in range(1, 6):
        assert main(argv + [str(l)]) == 0
        singles.append(capsys.readouterr().out.splitlines())
    assert len(kept) == 6
    assert swept.splitlines() == singles[0][:1] + [lines[1] for lines in singles]


def test_sweep_runs_each_greedy_round_once_per_graph(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ba.txt"
    path.write_text(format_edge_list(generators.gen_ba(200, 3, 2, 1)))
    argv = ["sweep", str(path), "--strategy", "greedy", "--l-range"]
    rounds = []
    real = pinopt.strategies._pruned_argmax
    monkeypatch.setattr(pinopt.strategies, "_pruned_argmax",
                        lambda g, pins, *args: rounds.append(pins.shape[1]) or real(g, pins, *args))
    assert main(argv + ["1:8"]) == 0
    assert rounds == list(range(1, 9))
    swept = capsys.readouterr().out
    # one command per l, each running its rounds afresh on its own graph, gives the same CSV
    singles = []
    for l in range(1, 9):
        assert main(argv + [str(l)]) == 0
        singles.append(capsys.readouterr().out.splitlines())
    assert len(rounds) == 8 + sum(range(1, 9))
    assert swept.splitlines() == singles[0][:1] + [lines[1] for lines in singles]


def test_sweep_usage_errors(double_star_file):
    assert run_cli("sweep", str(double_star_file), "--strategy", "degree_mix",
                   "--l-range", "1:5").returncode == 1  # missing --q
    assert run_cli("sweep", str(double_star_file), "--strategy", "greedy",
                   "--l-range", "5:1").returncode == 1  # empty range
    assert run_cli("sweep", str(double_star_file), "--strategy", "greedy",
                   "--l-range", "x:y").returncode == 1
    res = run_cli("sweep", str(double_star_file), "--strategy", "degree_mix",
                  "--l-range", "1:5", "--q", ",")  # a --q list with no value
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error: sweep degree_mix: --q is required" in res.stderr


@pytest.mark.parametrize("argv, code", [
    (["--strategy", "greedy", "--l-range", "1:300"], 1),
    # refused at l = n, never listed
    (["--strategy", "greedy", "--l-range", f"1:{10**15}"], 1),
    (["--strategy", "degree_mix", "--q", "0.5", "--l-range", "1:300"], 1),
    (["--strategy", "betweenness", "--l-range", "0:2"], 1),
    (["--strategy", "brute_force", "--l-range", "1:3"], 3),
    (["--strategy", "greedy", "--l-range", "1:3", "--with-brute-force"], 3),
    # C(300, l) is within the budget at both ends, l = 1 and 299, but not at 150
    (["--strategy", "greedy", "--l-range", "1:299:149", "--with-brute-force"], 3),
    # every q too, not only the first cell's
    (["--strategy", "degree_mix", "--l-range", "1:200:100", "--q", "0.5,2", "--runs", "3"], 1),
    (["--strategy", "degree_mix", "--l-range", "1:200:100", "--q", "0.5,nan", "--runs", "3"], 1),
], ids=["greedy_l_n", "greedy_l_huge", "degree_mix_l_n", "betweenness_l_0", "brute_force_budget",
        "with_brute_force_budget", "budget_in_the_middle", "degree_mix_q_above_1",
        "degree_mix_q_nan"])
def test_sweep_checks_every_cell_before_the_first_solve(tmp_path, monkeypatch, capsys, argv, code):
    path = tmp_path / "path300.txt"
    path.write_text(format_edge_list(generators.gen_path(300)))

    def solved(*args, **kwargs):
        raise AssertionError("a cell was solved before every cell was checked")

    monkeypatch.setattr(pinopt.bounds, "bound_report", solved)
    monkeypatch.setattr(pinopt.strategies, "brute_force_max_lambda1", solved)
    assert main(["sweep", str(path), *argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_sweep_degree_mix_without_q_is_a_usage_error(double_star_file):
    res = run_cli("sweep", str(double_star_file), "--strategy", "degree_mix", "--l-range", "1:5")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error: sweep degree_mix: --q is required" in res.stderr
    assert "Traceback" not in res.stderr


def test_sweep_deterministic_bytes(double_star_file):
    argv = ["sweep", str(double_star_file), "--strategy", "degree_mix",
            "--l-range", "1:8:2", "--q", "0.5", "--runs", "6", "--seed", "9"]
    assert run_cli(*argv).stdout == run_cli(*argv).stdout


# ------------------------------------------------------------------ simulate


def test_simulate_convergent_case(tmp_path):
    graph = tmp_path / "k4.txt"
    assert run_cli("gen", "--family", "complete", "--n", "4", "--out", str(graph)).returncode == 0
    csv_path = tmp_path / "run.csv"
    res = run_cli("simulate", str(graph), "--pins", "0", "--dynamics", "linear_unstable",
                  "--a", "0.5", "--controller", "linear", "--c", "2.0", "--d", "5.0",
                  "--T", "40", "--out-csv", str(csv_path))
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert summary["converged"] is True
    assert list(summary) == ["converged", "final_error"]  # no blowup_time without a blowup
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,e0,e1,e2,e3"


def test_simulate_usage_errors(tmp_path):
    graph = tmp_path / "p4.txt"
    run_cli("gen", "--family", "path", "--n", "4", "--out", str(graph))
    assert run_cli("simulate", str(graph), "--pins", "0", "--dynamics", "nope",
                   "--controller", "linear", "--c", "1.0").returncode == 1
    assert run_cli("simulate", str(graph), "--pins", "0", "--dynamics", "chua",
                   "--controller", "linear", "--c", "-1.0").returncode == 1


def test_simulate_sets_every_sim_config_field(tmp_path, monkeypatch):
    # a SimConfig field that no flag sets under either controller fails here
    real, passed = pinopt.sync.SimConfig, {}

    def recorded(**kwargs):
        passed.update(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(pinopt.sync, "SimConfig", recorded)
    path = tmp_path / "p3.txt"
    path.write_text(format_edge_list(generators.gen_path(3)))
    stepping = ["--c", "1", "--dt", "0.005", "--T", "0.01", "--record-every", "2", "--seed", "3"]
    for controller, gain in (("adaptive", ["--h", "2"]), ("linear", ["--d", "2"])):
        assert main(["simulate", str(path), "--pins", "0", "--dynamics", "linear_unstable",
                     "--controller", controller, *stepping, *gain]) == 0
    assert set(passed) == {field.name for field in dataclasses.fields(real)}


def test_simulate_deterministic_bytes(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--family", "nw", "--n", "12", "--K", "2", "--p", "0.1",
            "--seed", "4", "--out", str(graph))
    argv = ["simulate", str(graph), "--pins", "0,3", "--dynamics", "linear_unstable",
            "--a", "0.4", "--controller", "adaptive", "--c", "1.0", "--T", "5", "--seed", "8"]
    first, second = run_cli(*argv), run_cli(*argv)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_simulate_overflowing_propagator_is_a_quiet_blowup(tmp_path):
    graph = tmp_path / "p5.txt"
    graph.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    res = run_cli("simulate", str(graph), "--pins", "0", "--dynamics", "linear_unstable",
                  "--a", "1e200", "--controller", "linear", "--c", "1", "--d", "1",
                  "--T", "1", "--dt", "0.5")
    assert res.returncode == 0
    assert res.stderr == ""
    assert json.loads(res.stdout)["blowup_time"] == 0.5


@pytest.mark.parametrize("flags, message", [
    (["--c", "nan"], "argument --c: must be finite"),
    (["--c", "inf"], "argument --c: must be finite"),
    (["--c", "1.0", "--a", "nan"], "argument --a: must be finite"),
    (["--c", "1.0", "--d", "nan"], "argument --d: must be finite"),
    (["--c", "1.0", "--dt", "inf"], "argument --dt: must be finite"),
    (["--c", "1.0", "--T", "nan"], "argument --T: must be finite"),
    (["--c", "1.0", "--dt", "2", "--T", "1"], "dt must not exceed t_end"),
])
def test_simulate_rejects_non_finite_flags_and_dt_past_t_end(double_star_file, flags, message):
    res = run_cli("simulate", str(double_star_file), "--pins", "1", "--dynamics", "linear_unstable",
                  "--controller", "linear", *flags)
    assert res.returncode == 1
    assert res.stdout == ""
    assert message in res.stderr
    assert "Traceback" not in res.stderr


# ------------------------------------------------------- flags a choice does not read


@pytest.mark.parametrize("argv, where, flag", [
    (["gen", "--family", "star", "--n", "4", "--p", "0.3"], "gen star", "p"),
    (["gen", "--family", "ba", "--n", "9", "--m0", "3", "--m", "2", "--K", "4"], "gen ba", "K"),
    (["gen", "--family", "double_star", "--k", "3", "--n", "9"], "gen double_star", "n"),
    (["select", "{ds}", "--strategy", "greedy", "--l", "1", "--q", "5"], "select greedy", "q"),
    (["select", "{ds}", "--strategy", "dominating", "--l", "4"], "select dominating", "l"),
    (["select", "{ds}", "--strategy", "betweenness", "--l", "2", "--runs", "3"],
     "select betweenness", "runs"),
    (["select", "{ds}", "--strategy", "degree_mix", "--l", "2", "--q", "0.5", "--budget", "9"],
     "select degree_mix", "budget"),
    (["sweep", "{ds}", "--strategy", "greedy", "--l-range", "1", "--q", "7"], "sweep greedy", "q"),
    (["sweep", "{ds}", "--strategy", "greedy", "--l-range", "1", "--budget", "7"],
     "sweep greedy", "budget"),
    (["sweep", "{ds}", "--strategy", "brute_force", "--l-range", "1", "--runs", "2"],
     "sweep brute_force", "runs"),
    (["simulate", "{ds}", "--pins", "1", "--dynamics", "chua", "--a", "7",
      "--controller", "adaptive", "--c", "1"], "simulate chua", "a"),
    (["simulate", "{ds}", "--pins", "1", "--dynamics", "chua",
      "--controller", "adaptive", "--c", "1", "--d", "5"], "simulate adaptive", "d"),
    (["simulate", "{ds}", "--pins", "1", "--dynamics", "linear_unstable",
      "--controller", "linear", "--c", "1", "--h", "9"], "simulate linear", "h"),
], ids=lambda case: case.replace(" ", "-") if isinstance(case, str) else None)
def test_a_flag_the_choice_does_not_read_is_refused(double_star_file, capsys, argv, where, flag):
    choice = where.split()[1]
    assert main([a.format(ds=double_star_file) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {where}: --{flag} is not read by {choice}\n")


def test_sweep_reads_budget_for_the_brute_column(double_star_file, capsys):
    argv = ["sweep", str(double_star_file), "--strategy", "greedy", "--l-range", "1", "--budget", "9"]
    assert main(argv + ["--with-brute-force"]) == 3  # C(13, 1) = 13 subsets
    assert "exceeds the budget of 9" in capsys.readouterr().err


# ---------------------------------------------------------------- entry point


def test_python_m_pinopt_runs_main_and_returns_its_code(double_star_file):
    # the entry point itself, in a fresh process; run_cli calls main in this one
    res = subprocess.run([sys.executable, "-m", "pinopt", "select", str(double_star_file),
                          "--strategy", "brute_force", "--l", "6", "--budget", "100"],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == "error: C(13, 6) = 1716 subsets exceeds the budget of 100\n"


def test_main_in_process_exit_codes(tmp_path, capsys):
    assert main(["gen", "--family", "star", "--n", "1"]) == 1
    capsys.readouterr()
    assert main([]) == 1  # no subcommand
    capsys.readouterr()
    path = tmp_path / "s.txt"
    assert main(["gen", "--family", "star", "--n", "6", "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--pins", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_a_value_error_on_any_path_exits_1(double_star_file, monkeypatch, capsys, command):
    # neither command wraps its library call; main maps the ValueError to 1
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(pinopt.bounds, "bound_report", refuse)
    monkeypatch.setattr(pinopt.sync, "simulate", refuse)
    argv = [command, str(double_star_file), "--pins", "0"]
    if command == "simulate":
        argv += ["--dynamics", "chua", "--controller", "linear", "--c", "1"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: refused\n")


def test_node_count_over_the_limit_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("100000000\n0 1\n")
    assert main(["analyze", str(path), "--pins", "0"]) == 2
    err = capsys.readouterr().err
    assert "node count 100000000 exceeds the limit of 10000 nodes" in err
    assert "Traceback" not in err


# per subcommand, its argv up to the output file ("GRAPH" stands for the input)
UNWRITABLE = {
    "gen": ["gen", "--family", "star", "--n", "6", "--out"],
    "sweep": ["sweep", "GRAPH", "--strategy", "greedy", "--l-range", "1:2", "--out"],
    "simulate": ["simulate", "GRAPH", "--pins", "0", "--dynamics", "linear_unstable",
                 "--controller", "linear", "--c", "1.0", "--dt", "0.01", "--T", "0.1", "--out-csv"],
}


@pytest.mark.parametrize("command", UNWRITABLE)
def test_unwritable_output_is_a_data_error(double_star_file, tmp_path, command, capsys):
    path = str(tmp_path / "missing" / "out.txt")
    argv = [str(double_star_file) if a == "GRAPH" else a for a in UNWRITABLE[command]]
    assert main(argv + [path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


# (flag, value) per generator parameter, for one node more than graphs.MAX_NODES
OVERSIZE = {
    "star": [("n", MAX_NODES + 1)],
    "double_star": [("k", (MAX_NODES - 2) // 2)],  # n = 2k + 3
    "complete": [("n", MAX_NODES + 1)],
    "path": [("n", MAX_NODES + 1)],
    "ba": [("n", MAX_NODES + 1), ("m0", 4), ("m", 2)],
    "nw": [("n", MAX_NODES + 1), ("K", 4), ("p", 0.5)],
    "erdos_renyi": [("n", MAX_NODES + 1), ("p", 0.5)],
}


@pytest.mark.parametrize("family", OVERSIZE)
def test_gen_refuses_more_than_max_nodes_at_once(family, capsys):
    argv = ["gen", "--family", family] + [a for f, v in OVERSIZE[family] for a in (f"--{f}", str(v))]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 1.0  # nothing was generated
    assert capsys.readouterr() == (
        "", f"error: gen {family}: n={MAX_NODES + 1} exceeds the limit of {MAX_NODES} nodes\n")


def test_simulate_over_the_step_cap_is_a_budget_refusal(double_star_file, capsys):
    argv = ["simulate", str(double_star_file), "--pins", "0", "--dynamics", "linear_unstable",
            "--controller", "linear", "--c", "1.0", "--dt", "1e-12", "--T", "50"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds the cap of 2000000" in err


@pytest.mark.parametrize("t_end, dt", [("1e300", "1e-300"), ("1e300", "1")])
def test_simulate_step_count_past_any_integer_is_a_budget_refusal(tmp_path, t_end, dt):
    path = tmp_path / "p3.txt"
    path.write_text(format_edge_list(generators.gen_path(3)))
    res = run_cli("simulate", str(path), "--pins", "0", "--dynamics", "linear_unstable",
                  "--controller", "linear", "--c", "1", "--d", "1", "--T", t_end, "--dt", dt)
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        f"error: T / dt = {float(t_end) / float(dt):.6g} RK4 steps exceeds the cap of 2000000"]


def test_the_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    assert main(["select"]) == 1 and main(["select"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == err[1] and err[0].startswith("error: pinopt select: ")


def test_sweep_rejects_zero_runs_like_select(double_star_file):
    for argv in (["sweep", str(double_star_file), "--strategy", "degree_mix",
                  "--l-range", "1:3", "--q", "0.5", "--runs", "0"],
                 ["select", str(double_star_file), "--strategy", "degree_mix",
                  "--l", "2", "--q", "0.5", "--runs", "0"]):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "need runs >= 1" in res.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_analyze_rejects_non_finite_alpha_over_c(double_star_file, value):
    res = run_cli("analyze", str(double_star_file), "--pins", "1,7", f"--alpha-over-c={value}")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "finite" in res.stderr


@pytest.mark.parametrize("which", ["graph", "pins-file"])
def test_non_utf8_input_is_a_data_error(tmp_path, double_star_file, which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"1 7 # caf\xe9\n")
    graph = bad if which == "graph" else double_star_file
    res = run_cli("analyze", str(graph), "--pins-file", str(bad))
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"cannot read {bad}" in res.stderr
    assert "Traceback" not in res.stderr


# each argv ends in the negative flag; --budget takes --seed's type
@pytest.mark.parametrize("argv", [
    ["gen", "--family", "ba", "--n", "10", "--m0", "3", "--m", "2", "--seed", "-1"],
    ["select", "{ds}", "--strategy", "dominating", "--seed", "-1"],
    ["sweep", "{ds}", "--strategy", "degree_mix", "--l-range", "1", "--q", "0.5", "--seed", "-1"],
    ["simulate", "{ds}", "--pins", "1", "--dynamics", "chua", "--controller", "adaptive",
     "--c", "1.0", "--T", "0.1", "--seed", "-1"],
    ["select", "{ds}", "--strategy", "brute_force", "--l", "2", "--budget", "-1"],
])
def test_negative_seed_is_a_usage_error(double_star_file, argv):
    res = run_cli(*(a.format(ds=double_star_file) for a in argv))
    assert res.returncode == 1
    assert res.stdout == ""
    assert f"argument {argv[-2]}: must be a non-negative integer" in res.stderr
    assert "Traceback" not in res.stderr


# ------------------------------------------------- recorded byte-identical output

DATA = Path(__file__).parent / "data"
DOLPHINS = Path(pinopt.__file__).parent / "data" / "dolphins.txt"


@pytest.fixture(scope="module")
def ba200_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ba200") / "ba200.txt"
    res = run_cli("gen", "--family", "ba", "--n", "200", "--m0", "5", "--m", "3",
                  "--seed", "11", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture(scope="module")
def graphs300(tmp_path_factory):
    """A BA and an NW graph on 300 nodes, as files keyed ba300 and nw300."""
    folder = tmp_path_factory.mktemp("graphs300")
    files = {}
    for name, flags in [("ba300", ["ba", "--m0", "4", "--m", "2", "--seed", "21"]),
                        ("nw300", ["nw", "--K", "4", "--p", "0.1", "--seed", "22"])]:
        files[name] = folder / f"{name}.txt"
        res = run_cli("gen", "--n", "300", "--out", str(files[name]), "--family", *flags)
        assert res.returncode == 0, res.stderr
    return files


@pytest.mark.parametrize("recorded, argv", [
    ("sweep_ba200_degree_mix.csv", ["sweep", "{ba200}", "--strategy", "degree_mix",
                                    "--l-range", "20:180:80", "--q", "0,0.5,1",
                                    "--runs", "3", "--seed", "5"]),
    ("select_dolphins_greedy.json", ["select", str(DOLPHINS), "--strategy", "greedy", "--l", "3"]),
    ("analyze_ba200.json", ["analyze", "{ba200}", "--pins", "0,3,17,42,99,150",
                            "--alpha-over-c", "0.35"]),
    ("select_ba300_betweenness.json", ["select", "{ba300}", "--strategy", "betweenness",
                                       "--l", "15"]),
    ("select_nw300_betweenness.json", ["select", "{nw300}", "--strategy", "betweenness",
                                       "--l", "15"]),
])
def test_stdout_matches_recorded_bytes(ba200_file, graphs300, recorded, argv):
    argv = [a.format(ba200=ba200_file, **graphs300) for a in argv]
    # the files were recorded on two BLAS threads; lambda1's last digits
    # depend on the thread count
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    res = subprocess.run([sys.executable, "-m", "pinopt", *argv], capture_output=True, timeout=120,
                         env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (DATA / recorded).read_bytes()


@pytest.fixture(scope="module")
def nw14_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nw14") / "nw14.txt"
    res = run_cli("gen", "--family", "nw", "--n", "14", "--K", "2", "--p", "0.2",
                  "--seed", "4", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.mark.parametrize("recorded, argv", [
    ("simulate_nw14_chua_adaptive", ["--pins", "0,5,9", "--dynamics", "chua",
                                     "--controller", "adaptive", "--c", "4.0", "--h", "3.0",
                                     "--dt", "0.001", "--T", "1.5", "--seed", "3",
                                     "--record-every", "50"]),
    ("simulate_nw14_linear_adaptive", ["--pins", "2,7", "--dynamics", "linear_unstable",
                                       "--a", "0.6", "--controller", "adaptive", "--c", "1.2",
                                       "--h", "2.0", "--dt", "0.002", "--T", "3", "--seed", "8",
                                       "--record-every", "25"]),
])
def test_simulate_matches_recorded_bytes(nw14_file, tmp_path, recorded, argv):
    csv_path = tmp_path / "run.csv"
    res = subprocess.run([sys.executable, "-m", "pinopt", "simulate", str(nw14_file), *argv,
                          "--out-csv", str(csv_path)], capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (DATA / f"{recorded}.json").read_bytes()
    assert csv_path.read_bytes() == (DATA / f"{recorded}.csv").read_bytes()
