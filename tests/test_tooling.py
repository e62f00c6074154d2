"""Checks on the repository's tooling: the benchmark's trace targets, the
artifact digests, the check reports on the benchmark's certify instances,
a two-panel Newton solve's files, the guarantee audit's output, the
recovery sweep's command line, the package's public names and the
modules the command line imports."""
import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attninv
from attninv import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH_RUN = ROOT / "bench" / "run.py"
# the scripts run as documented: no PYTHONPATH, they find the checkout's src/
SCRIPT_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

# scripts/artifact_digest.py on the acceptance family; a change that moves
# an artifact byte updates these lines and says so in CHANGES.md
ARTIFACT_DIGESTS = """\
generate     122bb61f12b4c5f82aaa661ff3425949e31acee025c5ea56924c4e39cb00dd57
check        e52dc172dc0b0d2afed4da58d166a75714bc6b799e20456f26e61a98ca2d7b35
solve newton 9f14c3abf83804ce9dcb877035e25cf3d8b8903e65ad9102e210cb5166e8dabc
solve gd     a852e6dec7f55b123267d8f810fec6d578a0d0fcd4974ede33cf9cb05813c841
report       7a0b2a11fe1d840309be1c2cecc05d277bf1421c8e74c5a877c8293fa4cab9bf
8a27dc36e497f447b08780c804b189e7ab1e0a5fe5972b9d4846da231a83dd45
"""
# sha256 of what scripts/guarantee_audit.py --count 25 prints
GUARANTEE_AUDIT_DIGEST = "0b4c81797ae0eed4a11b9f2d379c2ad8869094900d78d79e60a9695698d8b2ae"
# sha256 of what `check --level all --seed S` prints on the benchmark's
# certify instances (generate --seed S --n n --d d, S = 100*n + d), beyond
# the acceptance family's nd <= 16
CERTIFY_CHECK_DIGESTS = {
    (4, 3): "bcd21bbe53c91b971fb67aecac2ecaf1bd228f673dc751b04202d5aaafaf5033",
    (6, 4): "2b537fdad40bbcd06e4d17d0a54663e7fd39d9394a1fd90644ef3c49bf96a248",
    (8, 4): "0736dcceec0225ef954292a856dbee881652e9a1ca08e36715f8100e3adc6e8f",
}
# sha256 of the files `solve --init perturb:0.01 --seed 3206` writes on
# generate --seed 2206 --n 12 --d 6: at nd = 72 the Newton step runs over
# two substitution panels, which the nd <= 16 acceptance family never does
MULTI_PANEL_SOLVE_DIGESTS = {
    "x_out.json": "86f76766c18ad6398ae1eb3f5acf396510d33ba6da477893a755b7d7d1d4a95d",
    "run.jsonl": "108945d2858ad0a96d06d3184dd433ed36d58c557c8c61a670ff22b2f7d07d37",
}
# the package's exports; a change that adds or drops one edits this list
PUBLIC_NAMES = [
    "BoundCheck", "BoundReport", "CONVERGED", "ForwardCache", "MAX_ITER",
    "NUMERICAL_FAILURE", "NumericalRangeError", "ProblemSpec", "PsdReport",
    "RunRecord", "SplitMix64", "analysis", "bound_suite", "choose_gamma",
    "effective_bound_constant", "flatten_input", "forward_cache", "gd_solve",
    "generate", "grad_L", "gradient", "hessian", "hessian_L", "hessian_c",
    "jacobian_c", "lipschitz_probe", "loss", "make_instance", "model",
    "newton_solve", "perturbed_start", "psd_floor", "residual_hessians",
    "solver", "synthesize_target", "unflatten_input",
]


def test_bench_trace_targets_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    assert run.TRACE_TARGETS
    missing = [(module, fn) for module, fn, _ in run.TRACE_TARGETS
               if not callable(getattr(importlib.import_module(f"attninv.{module}"),
                                       fn, None))]
    assert not missing, missing


def test_artifact_digests_are_pinned():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digest.py")],
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout == ARTIFACT_DIGESTS


@pytest.mark.parametrize("n,d", sorted(CERTIFY_CHECK_DIGESTS))
def test_certify_check_output_is_pinned(n, d, tmp_path, monkeypatch, capsys):
    # relative paths from a fresh directory, as in artifact_digest.py, so
    # the problem path recorded in the report's meta is fixed
    monkeypatch.chdir(tmp_path)
    seed = str(100 * n + d)
    assert cli.main(["generate", "--seed", seed, "--n", str(n), "--d", str(d),
                     "--out", "inst"]) == 0
    capsys.readouterr()
    assert cli.main(["check", "--problem", "inst/problem.json", "--level", "all",
                     "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_CHECK_DIGESTS[(n, d)]


@pytest.mark.parametrize("n,d", sorted(CERTIFY_CHECK_DIGESTS))
def test_certify_check_output_is_pinned_with_two_blas_threads(n, d, tmp_path):
    # from the shell under two BLAS threads: the batched products of the
    # feature-stacked sweep and of the residual Hessians print the same
    # report as the in-process run
    env = {**SCRIPT_ENV, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "2"}

    def shell(*argv):
        return subprocess.run([sys.executable, "-m", "attninv", *argv], env=env,
                              cwd=tmp_path, capture_output=True, timeout=300, check=True)

    seed = str(100 * n + d)
    shell("generate", "--seed", seed, "--n", str(n), "--d", str(d), "--out", "inst")
    out = shell("check", "--problem", "inst/problem.json", "--level", "all", "--seed", seed)
    assert hashlib.sha256(out.stdout).hexdigest() == CERTIFY_CHECK_DIGESTS[(n, d)]


def test_lipschitz_check_output_does_not_depend_on_blas_threads(tmp_path):
    # at 16x8 the loss-Hessian difference has (nd)^2 = 16384 entries, enough
    # for OpenBLAS to split a flat ddot across threads
    def shell(threads, *argv):
        env = {**SCRIPT_ENV, "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": str(threads)}
        return subprocess.run([sys.executable, "-m", "attninv", *argv], env=env,
                              cwd=tmp_path, capture_output=True, timeout=300,
                              check=True).stdout

    shell(1, "generate", "--seed", "1608", "--n", "16", "--d", "8", "--out", "inst")
    one, two = (shell(t, "check", "--problem", "inst/problem.json", "--level", "lipschitz",
                      "--seed", "1608") for t in (1, 2))
    assert one == two


@pytest.mark.parametrize("threads", [1, 2])
def test_multi_panel_newton_solve_is_pinned(threads, tmp_path):
    env = {**SCRIPT_ENV, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": str(threads)}
    for argv in (["generate", "--seed", "2206", "--n", "12", "--d", "6", "--out", "inst"],
                 ["solve", "--problem", "inst/problem.json", "--init", "perturb:0.01",
                  "--seed", "3206", "--out", "run"]):
        subprocess.run([sys.executable, "-m", "attninv", *argv], env=env, cwd=tmp_path,
                       capture_output=True, timeout=300, check=True)
    assert {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
            for name in MULTI_PANEL_SOLVE_DIGESTS} == MULTI_PANEL_SOLVE_DIGESTS


def test_guarantee_audit_output_is_pinned():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "guarantee_audit.py"),
                          "--count", "25"],
                         env=SCRIPT_ENV, capture_output=True, timeout=300, check=True)
    assert hashlib.sha256(out.stdout).hexdigest() == GUARANTEE_AUDIT_DIGEST


def test_recovery_sweep_help_runs():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "recovery_sweep.py"),
                          "--help"],
                         env=SCRIPT_ENV, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.startswith("usage: recovery_sweep.py")


def test_public_names_are_pinned():
    assert sorted(attninv.__all__) == PUBLIC_NAMES


def test_cli_imports_only_numpy_beyond_the_standard_library():
    # a fresh interpreter, so modules the tests loaded do not hide an import
    code = ("import sys; before = set(sys.modules); import attninv.cli; "
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**SCRIPT_ENV, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "['attninv', 'numpy']\n"
