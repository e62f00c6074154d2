import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attninv import cli, gradient
from attninv.hessian import _shift_diagonal, hessian_L
from attninv.iojson import read_matrix, read_problem
from attninv.generate import make_instance
from attninv.model import EXP_MAX, forward_cache, loss
from conftest import ACCEPTANCE_SHAPES, token_loop_block_entry_equiv


def run_cli(*argv):
    return cli.main(list(argv))


def test_generate_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("generate", "--seed", "0", "--n", "3", "--d", "2",
                   "--out", str(a)) == 0
    assert run_cli("generate", "--seed", "0", "--n", "3", "--d", "2",
                   "--out", str(b)) == 0
    for name in ("problem.json", "x_true.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_roundtrip_zero_loss(tmp_path):
    out = tmp_path / "inst"
    assert run_cli("generate", "--seed", "0", "--n", "3", "--d", "2",
                   "--out", str(out)) == 0
    spec = read_problem(out / "problem.json")
    x_true = read_matrix(out / "x_true.json")
    assert loss(spec, x_true) <= 1e-20


def test_generate_refuses_over_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ATTNINV_DENSE_CAP", "8")
    code = run_cli("generate", "--seed", "0", "--n", "3", "--d", "3",
                   "--out", str(tmp_path))
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_check_all_passes_on_fresh_instance(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    capsys.readouterr()
    code = run_cli("check", "--problem", str(out / "problem.json"),
                   "--level", "all")
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0, report
    assert report["pass"] is True
    assert report["meta"]["x_source"] == "seed:0"


def test_check_with_explicit_x(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "1", "--n", "2", "--d", "2", "--out", str(out))
    capsys.readouterr()
    code = run_cli("check", "--problem", str(out / "problem.json"),
                   "--x", str(out / "x_true.json"), "--level", "grad")
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["meta"]["x_source"].endswith("x_true.json")


def test_check_flags_corrupted_gradient(tmp_path, capsys, monkeypatch):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "2", "--d", "2", "--out", str(out))

    true_grad = gradient.grad_L

    def flipped(cache, spec, X):
        g = true_grad(cache, spec, X)
        g[0] = -g[0]  # injected sign fault
        return g

    monkeypatch.setattr(gradient, "grad_L", flipped)
    capsys.readouterr()
    code = run_cli("check", "--problem", str(out / "problem.json"),
                   "--level", "grad")
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    entry = report["results"][0]
    assert entry["pass"] is False
    assert entry["worst_index"] == [0]


def test_check_missing_problem_is_usage_error(tmp_path, capsys):
    assert run_cli("check", "--problem", str(tmp_path / "nope.json")) == 2


def test_solve_newton_recovers(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    capsys.readouterr()
    run_dir = tmp_path / "run"
    code = run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", "perturb:0.01", "--seed", "5",
                   "--eps", "1e-12", "--out", str(run_dir))
    printed = capsys.readouterr().out
    assert code == 0
    assert "distance=" in printed
    x_out = read_matrix(run_dir / "x_out.json")
    x_true = read_matrix(out / "x_true.json")
    assert np.linalg.norm(x_out - x_true) <= 1e-6
    log = (run_dir / "run.jsonl").read_text().strip().splitlines()
    assert json.loads(log[0])["meta"]["status"] == "Converged"
    assert all("iter" in json.loads(line) for line in log[1:])


def test_solve_gd_tiny_eta_hits_max_iter(tmp_path):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    code = run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", "perturb:0.01", "--solver", "gd",
                   "--eta", "1e-8", "--max-iter", "20",
                   "--eps", "1e-12", "--out", str(tmp_path / "run"))
    assert code == 1


def test_solve_missing_files(tmp_path, capsys):
    assert run_cli("solve", "--problem", str(tmp_path / "nope.json"),
                   "--init", "perturb:0.1") == 2
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "2", "--d", "2", "--out", str(out))
    os.remove(out / "x_true.json")
    assert run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", "perturb:0.1", "--out", str(tmp_path / "r")) == 2
    assert run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", "bogus:1", "--out", str(tmp_path / "r")) == 2


def test_report_empty_and_rows(tmp_path, capsys):
    assert run_cli("report") == 0
    header = capsys.readouterr().out.strip()
    # no timing column: wall-clock time is never persisted in run logs
    assert header == "instance,solver,iterations,final_loss,final_grad_norm,distance"

    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    for sub in ("r1", "r2"):
        run_cli("solve", "--problem", str(out / "problem.json"),
                "--init", "perturb:0.01", "--seed", "5",
                "--eps", "1e-12", "--out", str(tmp_path / sub))
    capsys.readouterr()
    csv_path = tmp_path / "summary.csv"
    code = run_cli("report", str(tmp_path / "r1" / "run.jsonl"),
                   str(tmp_path / "r2" / "run.jsonl"), "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]  # identical seeds give identical rows
    row = lines[1].split(",")
    assert len(row) == 6 and all(row), row


def test_report_quotes_a_path_with_a_comma_and_a_quote(tmp_path, capsys):
    inst = tmp_path / 'in,st"x'
    run_cli("generate", "--seed", "0", "--n", "2", "--d", "2", "--out", str(inst))
    run_cli("solve", "--problem", str(inst / "problem.json"), "--init", "perturb:0.01",
            "--out", str(tmp_path / "run"))
    capsys.readouterr()
    csv_path = tmp_path / "summary.csv"
    assert run_cli("report", str(tmp_path / "run" / "run.jsonl"), "--csv", str(csv_path)) == 0
    printed = capsys.readouterr().out
    assert printed == csv_path.read_text()
    rows = list(csv.reader(io.StringIO(printed)))
    assert [len(row) for row in rows] == [6, 6]
    assert rows[1][0] == str(inst / "problem.json")


def test_report_skips_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("oops\n")
    assert run_cli("report", str(bad)) == 0
    assert "skipped" in capsys.readouterr().err
    # an integer past Python's 4300-digit limit spoils its line, not the log
    big = tmp_path / "big.jsonl"
    big.write_text(_RUN_LOGS["good"] + '\n{"iter": 0, "loss": 1%s}\n' % ("0" * 5000))
    assert run_cli("report", str(big)) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {big}: skipped 1 malformed line(s)\n"
    assert captured.out.splitlines()[1:] == [",gd,0,0.5,,"]


# Run logs for report: one it can format, and JSON-valid ones it cannot.
_RUN_LOGS = {
    "good": '{"meta": {"solver": "gd", "final_loss": 0.5}}',
    "loss_str": '{"meta": {"final_loss": "x"}}',
    "loss_numeric_str": '{"meta": {"final_loss": "1e-3"}}',
    "loss_bool": '{"meta": {"final_loss": true}}',
    "grad_norm_bool": '{"meta": {"final_loss": 0.5, "final_grad_norm": false}}',
    "distance_bool": '{"meta": {"distance_to_truth": true}}',
    "loss_inf": '{"meta": {"final_loss": 1e999}}',
    "loss_big_int": '{"meta": {"final_loss": 1%s}}' % ("0" * 400),
    "loss_null": '{"meta": {"final_loss": null}}',
    "iterations_bool": '{"meta": {"iterations": true}}',
    "iterations_float": '{"meta": {"iterations": 2.0}}',
    "meta_list": '{"meta": [1]}',
    "record_null": '{"iter": 0, "loss": null, "grad_norm": 1.0}',
    "record_bool": '{"iter": 0, "loss": 1.0, "grad_norm": true}',
    "record_no_loss": '{"iter": 0, "grad_norm": 1.0}',
    "deep": "[" * 100000,
}


@pytest.mark.parametrize("name", sorted(set(_RUN_LOGS) - {"good"}))
def test_report_skips_unformattable_logs(tmp_path, capsys, name):
    bad, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
    bad.write_text(_RUN_LOGS[name] + "\n")
    good.write_text(_RUN_LOGS["good"] + "\n")
    assert run_cli("report", str(bad), str(good)) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: ") and str(bad) in captured.err
    assert captured.out.strip().splitlines()[1:] == [",gd,0,0.5,,"]


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "{taken}"],
    ["solve", "--problem", "{inst}/problem.json", "--init", "perturb:0.01",
     "--out", "{taken}"],
    ["report", "--csv", "{missing}/summary.csv"],
])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    inst, taken = tmp_path / "inst", tmp_path / "taken"
    run_cli("generate", "--seed", "0", "--n", "2", "--d", "2", "--out", str(inst))
    taken.write_text("")
    capsys.readouterr()
    argv = [a.format(inst=inst, taken=taken, missing=tmp_path / "missing")
            for a in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_solve_gd_divergence_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    run_dir = tmp_path / "run"
    code = run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", "perturb:0.01", "--solver", "gd",
                   "--eta", "1000", "--out", str(run_dir))
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert "status=NumericalFailure" in captured.out
    assert read_matrix(run_dir / "x_out.json").shape == (2, 3)
    lines = (run_dir / "run.jsonl").read_text().strip().splitlines()
    meta = json.loads(lines[0])["meta"]
    assert meta["status"] == "NumericalFailure"
    assert "final_loss" not in meta and meta["iterations"] == len(lines) - 1


@pytest.mark.parametrize("extra", [
    ["--eps", "-1"],
    ["--eps", "nan"],
    ["--eps", "inf"],
    ["--solver", "gd", "--eps", "inf"],
    ["--solver", "gd", "--eta", "0"],
    ["--max-iter", "0"],
    ["--gamma", "-1"],
    ["--init", "perturb:nan"],
    ["--init", "perturb:-0.5"],
])
def test_solve_invalid_arguments_are_usage_errors(tmp_path, capsys, extra):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "2", "--d", "2", "--out", str(out))
    capsys.readouterr()
    argv = ["solve", "--problem", str(out / "problem.json"),
            "--init", "perturb:0.01", "--out", str(tmp_path / "run")] + extra
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_one_parser_per_process_answers_like_fresh_ones(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; a usage error, then generate,
    # solve, --help and check must answer as they do from a fresh parser
    monkeypatch.chdir(tmp_path)
    sequence = [
        ["solve", "--problem", "inst/problem.json", "--init", "perturb:0.01",
         "--eps", "abc"],
        ["generate", "--seed", "4", "--n", "3", "--d", "2", "--out", "inst"],
        ["solve", "--problem", "inst/problem.json", "--init", "perturb:0.01",
         "--max-iter", "3", "--out", "run"],
        ["--help"],
        ["check", "--problem", "inst/problem.json", "--level", "grad"],
    ]

    def answers(fresh):
        out = []
        for argv in sequence:
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    once = answers(fresh=False)
    assert cli.build_parser.cache_info().currsize == 1
    assert [code for code, _, _ in once] == [2, 0, 1, 0, 0]
    assert once[0][2].startswith("usage: ") and once[3][1].startswith("usage: ")
    assert answers(fresh=True) == once


def test_generate_zero_tokens_is_usage_error(tmp_path, capsys):
    assert run_cli("generate", "--n", "0", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("r_target", ["-1", "0", "nan", "inf", "-inf"])
def test_generate_bad_r_target_is_usage_error(tmp_path, capsys, r_target):
    # -1 used to write a negated X_true, nan and inf an unscaled one
    assert run_cli("generate", f"--r-target={r_target}", "--out", str(tmp_path / "g")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --r-target") and err.count("\n") == 1
    assert not (tmp_path / "g").exists()


def test_solve_malformed_truth_is_usage_error(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "2", "--d", "2", "--out", str(out))
    (out / "x_true.json").write_text("{not json")
    capsys.readouterr()
    assert run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", "perturb:0.01", "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err.startswith("error: cannot read x_true.json")


def test_input_matrix_files_are_validated(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    nan_x = tmp_path / "nan.json"
    nan_x.write_text('{"rows": 2, "cols": 3, "data": [NaN, 1, 2, 3, 4, 5]}')
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"rows": 3, "cols": 2, "data": [1, 1, 2, 3, 4, 5]}')
    capsys.readouterr()
    assert run_cli("check", "--problem", str(out / "problem.json"),
                   "--x", str(nan_x), "--level", "grad") == 2
    assert "non-finite" in capsys.readouterr().err
    assert run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", f"file:{wrong}", "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err.startswith("error: cannot read init file")


def _meta(run_dir):
    lines = (run_dir / "run.jsonl").read_text().strip().splitlines()
    return json.loads(lines[0])["meta"], [json.loads(line) for line in lines[1:]]


def test_solve_gamma_auto(tmp_path, capsys):
    inst, run_dir = tmp_path / "inst", tmp_path / "run"
    run_cli("generate", "--seed", "4", "--n", "2", "--d", "2", "--out", str(inst))
    code = run_cli("solve", "--problem", str(inst / "problem.json"),
                   "--init", "perturb:0.01", "--seed", "2", "--eps", "1e-10",
                   "--gamma", "auto", "--out", str(run_dir))
    meta, _ = _meta(run_dir)
    assert code == 0 and meta["status"] == "Converged"
    assert meta["gamma_mode"] == "auto"
    # heavy regularization pulls the minimizer near the origin
    x_out = read_matrix(run_dir / "x_out.json")
    assert np.linalg.norm(x_out) < np.linalg.norm(read_matrix(inst / "x_true.json"))


def test_solve_gd_infinite_step_is_numerical_failure(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    run_dir = tmp_path / "run"
    code = run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", "perturb:0.01", "--solver", "gd",
                   "--eta", "1e300", "--out", str(run_dir))
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert read_matrix(run_dir / "x_out.json").shape == (2, 3)
    meta, records = _meta(run_dir)
    assert meta["status"] == "NumericalFailure" and meta["iterations"] == 1
    # the overflowing step is not taken
    assert records[-1]["step_norm"] == 0
    assert meta["distance_to_truth"] == pytest.approx(0.01)


def test_solve_far_start_leaves_infinite_distance_out(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    far = tmp_path / "far.json"
    far.write_text('{"rows": 2, "cols": 3, "data": [1e200, 0, 0, 0, 0, 0]}')
    run_dir = tmp_path / "run"
    capsys.readouterr()
    code = run_cli("solve", "--problem", str(out / "problem.json"),
                   "--init", f"file:{far}", "--out", str(run_dir))
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert read_matrix(run_dir / "x_out.json")[0, 0] == 1e200
    meta, _ = _meta(run_dir)
    assert meta["status"] == "NumericalFailure"
    assert "distance_to_truth" not in meta and "final_loss" not in meta


def test_failure_paths_print_no_numpy_warnings(tmp_path):
    # from the shell, with the default warning filters: the far start
    # overflows matmuls, the loss and the distance, and the explicit
    # finiteness checks turn that into the status line alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)

    def shell(*argv):
        return subprocess.run([sys.executable, "-m", "attninv", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True)

    assert shell("generate", "--seed", "0", "--n", "3", "--d", "2",
                 "--out", "inst").returncode == 0
    (tmp_path / "far.json").write_text(
        '{"rows": 2, "cols": 3, "data": [1e200, 0, 0, 0, 0, 0]}')
    solve = shell("solve", "--problem", "inst/problem.json",
                  "--init", "file:far.json", "--out", "run")
    check = shell("check", "--problem", "inst/problem.json", "--x", "far.json")
    assert (solve.returncode, check.returncode) == (1, 1)
    assert solve.stdout.startswith("status=NumericalFailure")
    assert '"pass": false' in check.stdout
    for proc in (solve, check):
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_check_at_exp_overflow_is_a_failing_record(tmp_path, capsys):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    spec = read_problem(out / "problem.json")
    # token 0 along a feature j with W[j, j] > 0 makes score (0, 0) +inf
    j = int(np.argmax(np.diag(spec.W)))
    assert spec.W[j, j] > 0
    X = np.zeros((2, 3))
    X[j, 0] = 1e200
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"rows": 2, "cols": 3, "data": X.ravel().tolist()}))
    capsys.readouterr()
    code = run_cli("check", "--problem", str(out / "problem.json"),
                   "--x", str(x_path), "--level", "all")
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["pass"] is False
    assert report["results"] == [{"check": "numerical_range", "pass": False,
                                  "error": "NumericalRangeError: exp overflow in "
                                           "score column 0; inputs exceed the "
                                           "bounded regime"}]


def _v_scaled_problem(tmp_path, factor: float) -> str:
    """The problem file of generate --seed 1 --n 3 --d 2 with V times factor."""
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "1", "--n", "3", "--d", "2", "--out", str(out))
    problem = json.loads((out / "problem.json").read_text())
    problem["V"]["data"] = [v * factor for v in problem["V"]["data"]]
    (out / "problem.json").write_text(json.dumps(problem))
    return str(out / "problem.json")


@pytest.mark.parametrize("level", ["psd", "all"])
def test_check_with_infinite_auto_gamma_is_a_failing_record(tmp_path, capsys, level):
    # V scaled by 1e39: the loss and psd_floor's Hessian stay finite, but
    # the auto gamma is 1.2e308, so 2 * gamma on the diagonal is inf
    problem = _v_scaled_problem(tmp_path, 1e39)
    capsys.readouterr()
    code = run_cli("check", "--problem", problem, "--level", level)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["results"] == [
        {"check": "numerical_range", "pass": False,
         "error": "NumericalRangeError: the Hessian is not finite"}]


def _sweep_calls(monkeypatch, n, d):
    """The (name, residuals) of each term-table and case-block call that
    check's hessian_block_entry_equiv record makes on an n x d instance,
    residual (i0, j0) as i0 * d + j0, with stand-ins for the dense Hessian
    and its FD oracle."""
    spec, X = make_instance(0, n, d)
    nd = n * d
    calls = []

    def record(name):
        def fn(cache, spec, i0, j0):
            calls.append((name, tuple(int(r) for r in i0 * d + j0)))
            return np.zeros((len(j0), nd, nd))
        return fn

    monkeypatch.setattr(cli.hessian, "d2c_table", record("d2c_table"))
    monkeypatch.setattr(cli.hessian, "hessian_c", record("hessian_c"))
    monkeypatch.setattr(cli.hessian, "hessian_L", lambda cache, spec, X: np.zeros((nd, nd)))
    monkeypatch.setattr(cli.oracle, "fd_hessian", lambda fn, X: np.zeros((nd, nd)))
    records = cli._check_entries(spec, X + 0.05, "hessian", 0)
    assert records[-1] == {"check": "hessian_block_entry_equiv", "pass": True,
                           "max_abs_diff": 0.0}
    return calls


@pytest.mark.parametrize("n,d,chunks", [
    (4, 3, [12]), (8, 4, [32]), (16, 8, [4] * 32), (32, 16, [1] * 512), (9, 5, [32, 13])],
    ids=["4x3", "8x4", "16x8", "32x16", "9x5"])
def test_check_sweeps_residuals_in_consecutive_chunks(monkeypatch, n, d, chunks):
    # one d2c_table and one hessian_c call per chunk of consecutive
    # residuals r = i0 * d + j0, of max(1, 2**16 // (nd)^2) each: all of
    # them at once on the certify shapes, chunks that cross tokens at
    # 9 x 5, one residual at a time at 32 x 16
    ends = np.cumsum([0] + chunks)
    assert _sweep_calls(monkeypatch, n, d) == [
        (name, tuple(range(lo, hi))) for lo, hi in zip(ends[:-1], ends[1:])
        for name in ("d2c_table", "hessian_c")]


def test_check_sweep_chunks_follow_the_fd_oracle_budget(monkeypatch):
    # the sweep reads the FD oracle's entry budget at call time: a quarter
    # of it splits the 8 x 4 sweep into four chunks of 8 residuals
    monkeypatch.setattr(cli.oracle, "_STACK_ENTRIES", 2**13)
    calls = [r for name, r in _sweep_calls(monkeypatch, 8, 4) if name == "hessian_c"]
    assert calls == [tuple(range(lo, lo + 8)) for lo in range(0, 32, 8)]


# the benchmark's certify instances, the acceptance family and two shapes
# whose sweep takes several chunks (two tokens each at 12 x 6)
@pytest.mark.parametrize("seed,n,d", [(403, 4, 3), (604, 6, 4), (804, 8, 4)] + [
    (100 * n + d, n, d) for n, d in ACCEPTANCE_SHAPES + [(9, 5), (12, 6)]])
def test_check_block_entry_equiv_equals_the_token_loop(seed, n, d):
    # the record of the residual-chunk sweep, field for field the one of
    # one call pair per probe token and feature chunk
    spec, _ = make_instance(seed, n, d)
    X = cli._sample_x(spec, seed)
    worst, passed = token_loop_block_entry_equiv(forward_cache(spec, X), spec)
    record = cli._check_entries(spec, X, "hessian", seed)[-1]
    assert record == {"check": "hessian_block_entry_equiv", "pass": passed,
                      "max_abs_diff": worst}


@pytest.mark.parametrize("seed,n,d", [(403, 4, 3), (804, 8, 4), (102, 1, 2), (202, 2, 2)])
def test_check_bounds_and_psd_alone_equal_level_all(monkeypatch, seed, n, d):
    # each level sweeps the residual Hessians once, through the shared
    # analysis._point_norms, and writes the records of --level all
    spec, _ = make_instance(seed, n, d)
    X = cli._sample_x(spec, seed)
    real, sweeps = cli.analysis._point_norms, []

    def counted(*args):
        sweeps.append(args)
        return real(*args)

    monkeypatch.setattr(cli.analysis, "_point_norms", counted)
    everything = {r["check"]: r for r in cli._check_entries(spec, X, "all", seed)}
    assert len(sweeps) == 1
    for level, names in (("bounds", ["bound_suite"]),
                         ("psd", ["psd_floor", "psd_with_auto_gamma"])):
        assert cli._check_entries(spec, X, level, seed) == [everything[k] for k in names]
    assert len(sweeps) == 3


def test_check_hessian_records_exact_symmetry(tmp_path, capsys):
    # hessian_L assembles K as A + A^T, so H equals H^T bit for bit
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "4", "--n", "5", "--d", "3", "--out", str(out))
    capsys.readouterr()
    assert run_cli("check", "--problem", str(out / "problem.json"), "--level", "hessian") == 0
    records = {r["check"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    assert records["hessian_L_symmetry"]["asymmetry"] == 0.0


def test_check_block_entry_equiv_bound_is_mixed(tmp_path, capsys):
    # V scaled by 1e39: the term tables and the case blocks differ by
    # rounding alone, about 1e21 in absolute terms at entries near 1e32;
    # the record passes on 1e-10 + 1e-10 * max(|a|, |o|), as hessian_L_vs_fd
    # does on its own mixed bound, and keeps its one absolute field
    problem = _v_scaled_problem(tmp_path, 1e39)
    capsys.readouterr()
    assert run_cli("check", "--problem", problem, "--level", "hessian") == 0
    records = {r["check"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    record = records["hessian_block_entry_equiv"]
    assert record["pass"] is True and record["max_abs_diff"] > 1e20
    assert sorted(record) == ["check", "max_abs_diff", "pass"]


@pytest.mark.parametrize("factor,bump", [(1e39, lambda x: x * (1.0 + 1e-8)),
                                         (1.0, lambda x: x + 1e-9)],
                         ids=["relative_1e-8_at_V_1e39", "absolute_1e-9_at_V_1"])
def test_check_block_entry_equiv_flags_a_perturbed_entry(tmp_path, capsys, monkeypatch,
                                                         factor, bump):
    # the largest hessian_c entry among probe token 1's rows of the
    # residual stack, moved by 1e-8 relative at entries near 1e32, or by
    # ten times the absolute floor at unit scale: beyond the mixed bound
    # either way, and the only failure
    problem = _v_scaled_problem(tmp_path, factor)
    real = cli.hessian.hessian_c

    def perturbed(cache, spec, i0, j0):
        H = real(cache, spec, i0, j0)
        rows = np.flatnonzero(i0 == 1)
        if rows.size:
            top = np.unravel_index(np.abs(H[rows]).argmax(), H[rows].shape)
            top = (rows[top[0]],) + top[1:]
            H[top] = bump(H[top])
        return H

    monkeypatch.setattr(cli.hessian, "hessian_c", perturbed)
    capsys.readouterr()
    assert run_cli("check", "--problem", problem, "--level", "hessian") == 1
    records = {r["check"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    assert {name for name, r in records.items() if not r["pass"]} == {
        "hessian_block_entry_equiv"}


@pytest.mark.parametrize("gamma", [0.0, 0.37, 1234.5, 7.1e9])
@pytest.mark.parametrize("n,d", [(1, 1), (3, 2), (2, 3), (4, 3), (6, 4), (8, 4)])
def test_loss_hessian_at_gamma_is_the_gamma_zero_one_plus_its_diagonal(n, d, gamma):
    # check builds hessian_L once at gamma = 0 and adds 2 gamma on the
    # diagonal: byte for byte a fresh build at gamma, signed zeros included
    for seed in range(3):
        spec, x_true = make_instance(700 + seed, n, d)
        for X in (x_true, x_true + 0.2 * np.cos(x_true)):
            cache = forward_cache(spec, X)
            H0 = hessian_L(cache, spec.with_gamma(0.0), X)
            fresh = hessian_L(cache, spec.with_gamma(gamma), X)
            assert _shift_diagonal(H0.copy(), 2.0 * gamma).tobytes() == fresh.tobytes()
    # a fresh build adds 2 gamma to the diagonal only, so a -0.0 there
    # turns +0.0 and one off it stays -0.0
    zeros = np.full((2, 2), -0.0)
    assert np.signbit(_shift_diagonal(zeros, 2.0 * gamma)).tolist() == [
        [False, True], [True, False]]


def test_check_all_builds_seven_loss_hessians(tmp_path, capsys, monkeypatch):
    # one hessian_L at gamma = 0 for the hessian, psd_floor and
    # psd_with_auto_gamma records, and two per Lipschitz pair
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "804", "--n", "8", "--d", "4", "--gamma", "0.37",
            "--out", str(out))
    real = cli.hessian.hessian_L
    gammas = []

    def counted(cache, spec, X):
        gammas.append(spec.gamma)
        return real(cache, spec, X)

    monkeypatch.setattr(cli.hessian, "hessian_L", counted)
    capsys.readouterr()
    assert run_cli("check", "--problem", str(out / "problem.json"), "--level", "all") == 0
    assert gammas == [0.0] * 7


@pytest.mark.parametrize("level", ["grad", "hessian"])
def test_check_names_the_first_overflowing_probe(tmp_path, capsys, level):
    # X_true scaled so its top score sits just under EXP_MAX: X is in range,
    # some FD stencil points are not, and the record names the column of
    # the first of them in the order the stencils are visited
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "2", "--out", str(out))
    spec, X = make_instance(0, 3, 2)
    X = X * np.sqrt(EXP_MAX * (1 - 1e-5) / (X.T @ spec.W @ X).max())
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps({"rows": 2, "cols": 3, "data": X.ravel().tolist()}))
    capsys.readouterr()
    code = run_cli("check", "--problem", str(out / "problem.json"),
                   "--x", str(x_path), "--level", level)
    assert code == 1
    assert json.loads(capsys.readouterr().out)["results"] == [
        {"check": "numerical_range", "pass": False,
         "error": "NumericalRangeError: exp overflow in score column 1; "
                  "inputs exceed the bounded regime"}]


@pytest.mark.parametrize("cap", ["abc", "0", "-3", ""])
def test_bad_dense_cap_is_usage_error(tmp_path, capsys, monkeypatch, cap):
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "2", "--d", "2", "--out", str(out))
    capsys.readouterr()
    monkeypatch.setenv("ATTNINV_DENSE_CAP", cap)
    for argv in (["generate", "--out", str(tmp_path / "g")],
                 ["solve", "--problem", str(out / "problem.json"),
                  "--init", "perturb:0.01", "--out", str(tmp_path / "run")],
                 ["check", "--problem", str(out / "problem.json"),
                  "--level", "hessian"]):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: ATTNINV_DENSE_CAP must be a positive integer, got {cap!r}\n"
    assert not (tmp_path / "g").exists() and not (tmp_path / "run").exists()
    # gradient descent and the gradient check never build a dense Hessian
    assert run_cli("check", "--problem", str(out / "problem.json"),
                   "--level", "grad") == 0


@pytest.mark.parametrize("level", ["hessian", "bounds", "psd", "lipschitz", "all"])
def test_check_hessian_levels_refuse_over_cap(tmp_path, capsys, monkeypatch, level):
    # bound_suite builds n slabs of d (nd)^2 entries, so bounds is capped
    # like the other Hessian levels; only grad runs past the cap
    out = tmp_path / "inst"
    run_cli("generate", "--seed", "0", "--n", "3", "--d", "3", "--out", str(out))
    capsys.readouterr()
    monkeypatch.setenv("ATTNINV_DENSE_CAP", "8")
    problem = str(out / "problem.json")
    assert run_cli("check", "--problem", problem, "--level", level) == 2
    assert capsys.readouterr().err == "error: n*d = 9 exceeds the dense cap 8\n"
    assert run_cli("check", "--problem", problem, "--level", "grad") == 0


# Inputs for the exit-code contract: flag values, matrix files and dense
# caps, valid and not.  Every command must return 0, 1 or 2 and raise
# nothing: from the shell, an exception out of main is a traceback.
_NUMBERS = ["0.01", "1", "-1", "0", "nan", "inf", "-inf", "1e300", "1e-300",
            "1e400", "abc", ""]
# Matrix files that parse as JSON but break the reader's types: rows and cols
# must be JSON integers and data a flat list of JSON numbers within the float
# range.
_MISTYPED_MATRICES = {
    "rows_float": '{"rows": 2.0, "cols": 2, "data": [0.1, -0.2, 0.3, 0.05]}',
    "rows_str": '{"rows": "2", "cols": 2, "data": [0.1, -0.2, 0.3, 0.05]}',
    "rows_bool": '{"rows": true, "cols": 2, "data": [0.1, -0.2]}',
    "data_str": '{"rows": 2, "cols": 2, "data": ["0.1", -0.2, 0.3, 0.05]}',
    "data_bool": '{"rows": 2, "cols": 2, "data": [true, false, false, true]}',
    "data_nested": '{"rows": 2, "cols": 2, "data": [[0.1, -0.2], [0.3, 0.05]]}',
    "data_bigint": '{"rows": 2, "cols": 2, "data": [' + "1" * 401 + ', 0, 0, 0]}',
}
_MATRICES = {
    "ok": '{"rows": 2, "cols": 2, "data": [0.1, -0.2, 0.3, 0.05]}',
    "not_json": "{oops",
    "empty": "",
    "list": "[1, 2]",
    "wrong_shape": '{"rows": 1, "cols": 4, "data": [1, 2, 3, 4]}',
    "short": '{"rows": 2, "cols": 2, "data": [1, 2, 3]}',
    "strings": '{"rows": 2, "cols": 2, "data": ["a", 1, 2, 3]}',
    "nan": '{"rows": 2, "cols": 2, "data": [NaN, 0, 0, 0]}',
    "inf": '{"rows": 2, "cols": 2, "data": [0, -Infinity, 0, 0]}',
    "huge": '{"rows": 2, "cols": 2, "data": [1e200, 0, 0, 0]}',
    "huge_all": '{"rows": 2, "cols": 2, "data": [1e200, -1e200, 1e154, 1e300]}',
    "large": '{"rows": 2, "cols": 2, "data": [30, -30, 30, 30]}',
    # exp stays in range (W[0, 0] < 0 in contract_dir), but R^8 overflows
    "far": '{"rows": 2, "cols": 2, "data": [1e60, 0, 0, 0]}',
    "deep": "[" * 100000,
    **{f"typed_{name}": text for name, text in _MISTYPED_MATRICES.items()},
}
_CAPS = [None, "abc", "0", "-2", "", "1", "3", "4", "1e3", " 8"]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    assert run_cli("generate", "--seed", "0", "--n", "2", "--d", "2",
                   "--out", str(root / "inst")) == 0
    assert read_problem(root / "inst" / "problem.json").W[0, 0] < 0
    for name, text in _MATRICES.items():
        (root / f"{name}.json").write_text(text)
    for name, text in _RUN_LOGS.items():
        (root / f"{name}.jsonl").write_text(text + "\n")
    return root


@pytest.mark.parametrize("name", sorted(_MISTYPED_MATRICES))
def test_mistyped_input_matrix_is_usage_error(contract_dir, tmp_path, capsys, name):
    problem = str(contract_dir / "inst" / "problem.json")
    matrix = str(contract_dir / f"typed_{name}.json")
    for argv, what in ((["check", "--problem", problem, "--x", matrix], "X"),
                       (["solve", "--problem", problem, "--init", f"file:{matrix}",
                         "--out", str(tmp_path)], "init file")):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("field,value", [
    ("n", 2.9), ("n", 2.0), ("n", "2"), ("d", True), ("gamma", "0"), ("gamma", False),
    ("gamma", [0]), ("W", {"rows": 2, "cols": 2, "data": [[1, 0], [0, 1]]})])
def test_mistyped_problem_is_usage_error(contract_dir, tmp_path, capsys, field, value):
    obj = json.loads((contract_dir / "inst" / "problem.json").read_text())
    assert obj["n"] == obj["d"] == 2
    obj[field] = value
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(obj))
    assert run_cli("check", "--problem", str(problem)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read problem: ") and err.count("\n") == 1, err


@st.composite
def _contract_argv(draw):
    """argv with {root} standing for the directory of contract_dir and {out}
    for an empty directory; {root}/ok.json is a file, so no directory can be
    made there, and {root}/missing does not exist."""
    problem = "{root}/inst/problem.json"
    matrix = "{root}/" + draw(st.sampled_from(sorted(_MATRICES))) + ".json"
    out = draw(st.sampled_from(["{out}", "{root}/ok.json"]))
    command = draw(st.sampled_from(["generate", "check", "solve", "report"]))
    if command == "generate":
        return ["generate", "--n", draw(st.sampled_from(["0", "1", "2", "-1", "x"])),
                "--d", draw(st.sampled_from(["1", "2", "0"])),
                "--gamma", draw(st.sampled_from(["auto"] + _NUMBERS)),
                "--out", out]
    if command == "report":
        logs = [f"{{root}}/{name}.jsonl" for name in sorted(_RUN_LOGS)]
        argv = ["report"] + draw(st.lists(st.sampled_from(
            logs + [matrix, "{root}/nope.jsonl"]), max_size=3))
        csv = draw(st.sampled_from([None, "{out}/summary.csv",
                                    "{root}/missing/summary.csv"]))
        return argv + (["--csv", csv] if csv else [])
    if command == "check":
        argv = ["check", "--problem", problem,
                "--level", draw(st.sampled_from(["grad", "hessian", "bounds", "psd",
                                                 "lipschitz", "all", "bogus"]))]
        return argv + (["--x", matrix] if draw(st.booleans()) else [])
    init = draw(st.sampled_from(["file:" + matrix, "bogus"]
                                + ["perturb:" + v for v in _NUMBERS]))
    argv = ["solve", "--problem", problem, "--init", init,
            "--solver", draw(st.sampled_from(["newton", "gd"])),
            "--max-iter", draw(st.sampled_from(["1", "5", "0", "-1", "x"])),
            "--out", out]
    for flag in ("--eps", "--eta", "--gamma"):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_NUMBERS + ["auto"]))]
    return argv


_SOLVE = ["solve", "--problem", "{root}/inst/problem.json", "--out", "{out}"]


@given(argv=_contract_argv(), cap=st.sampled_from(_CAPS))
@example(argv=_SOLVE + ["--init", "perturb:0.01", "--solver", "gd", "--eta", "1e300"],
         cap=None)
@example(argv=_SOLVE + ["--init", "file:{root}/huge.json"], cap=None)
@example(argv=["check", "--problem", "{root}/inst/problem.json",
               "--x", "{root}/huge_all.json"], cap=None)
@example(argv=["check", "--problem", "{root}/inst/problem.json",
               "--x", "{root}/huge.json", "--level", "psd"], cap=None)
@example(argv=["check", "--problem", "{root}/inst/problem.json",
               "--x", "{root}/far.json", "--level", "bounds"], cap=None)
@example(argv=_SOLVE + ["--init", "file:{root}/far.json", "--gamma", "auto"], cap=None)
@example(argv=["generate", "--out", "{out}"], cap="abc")
@example(argv=_SOLVE + ["--init", "perturb:0.01"], cap="0")
@example(argv=["generate", "--r-target", "-1", "--out", "{out}"], cap=None)
@example(argv=["generate", "--r-target", "0", "--out", "{out}"], cap=None)
@example(argv=["generate", "--r-target", "nan", "--out", "{out}"], cap=None)
@example(argv=["generate", "--r-target", "inf", "--out", "{out}"], cap=None)
@example(argv=["generate", "--out", "{root}/ok.json"], cap=None)
@example(argv=["solve", "--problem", "{root}/inst/problem.json",
               "--init", "perturb:0.01", "--out", "{root}/ok.json"], cap=None)
@example(argv=["report", "{root}/good.jsonl", "--csv", "{root}/missing/s.csv"],
         cap=None)
@example(argv=["report", "{root}/loss_str.jsonl"], cap=None)
@example(argv=["report", "{root}/loss_inf.jsonl"], cap=None)
@example(argv=["report", "{root}/loss_null.jsonl"], cap=None)
@example(argv=["report", "{root}/meta_list.jsonl"], cap=None)
@example(argv=["report", "{root}/record_null.jsonl"], cap=None)
@example(argv=["report", "{root}/deep.jsonl"], cap=None)
@example(argv=["check", "--problem", "{root}/inst/problem.json",
               "--x", "{root}/deep.json"], cap=None)
@settings(max_examples=80, deadline=None)
def test_cli_exit_code_contract(contract_dir, argv, cap):
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        if cap is None:
            mp.delenv("ATTNINV_DENSE_CAP", raising=False)
        else:
            mp.setenv("ATTNINV_DENSE_CAP", cap)
        argv = [a.format(root=contract_dir, out=out) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        text = err.getvalue()
        while text.startswith("warning: "):  # report warns of each log it skips
            text = text.split("\n", 1)[1]
        assert text.startswith(("error: ", "usage: ")), argv
