"""Checks on the repository's tooling: the benchmark's trace targets and
unit tests, the artifact digests under one and two BLAS threads, the
recovery sweep's command line and run logs, the package's public names
and the modules the command line imports."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import attninv
from attninv import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH_RUN = ROOT / "bench" / "run.py"
# the scripts run as documented: no PYTHONPATH, they find the checkout's src/
SCRIPT_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

# scripts/artifact_digest.py: the acceptance family, the certify instances,
# the 16x8 lipschitz check, the nd = 72 panel solve and the guarantee audit;
# a change that moves an artifact byte updates these lines and says so in
# CHANGES.md
ARTIFACT_DIGESTS = """\
generate     122bb61f12b4c5f82aaa661ff3425949e31acee025c5ea56924c4e39cb00dd57
check        915a071f8559843e4950e5a32d37bd568bbf718240a69c7a19a0a0a23295df4b
solve newton b3cfbc388a4553a69ee98c9eddca959442876094b0ddef960bd72cf675081fc5
solve gd     a852e6dec7f55b123267d8f810fec6d578a0d0fcd4974ede33cf9cb05813c841
report       474840f21e26f95ff7f90918cd2ce33653d0133f297fffa5a977fb54673d966f
certify      91ba0fcd7f64baa220c5be26c68d64271b89b738b565ace047947db7f7210920
lipschitz    47e37d4ab0e77ceffc66d967835956451c6faa4f814c08bdda77f32695e77b3b
panels       54e3d9bf9ec81dced9db0ebf798696e56427a78994eab2052cefc7f3d2479620
audit        f30834131fbb3f3898807dc59d7930779825d11d76198b79e7daf1d04bd74cef
c126491a393669e2f7759e00c56ce53de4b1f66f7a13d9059a303380f006cbc8
"""
# the package's exports; a change that adds or drops one edits this list
PUBLIC_NAMES = [
    "BoundCheck", "BoundReport", "CONVERGED", "ForwardCache", "MAX_ITER",
    "NUMERICAL_FAILURE", "NumericalRangeError", "ProblemSpec", "PsdReport",
    "RunRecord", "SplitMix64", "analysis", "bound_suite", "choose_gamma",
    "effective_bound_constant", "flatten_input", "forward_cache", "gd_solve",
    "generate", "grad_L", "gradient", "hessian", "hessian_L", "hessian_c",
    "jacobian_c", "lipschitz_probe", "loss", "make_instance", "model",
    "newton_solve", "perturbed_start", "psd_floor", "residual_hessians",
    "solver", "synthesize_target",
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
    # two BLAS threads split the batched products and the long reductions
    # that one thread runs in order; every byte must stay the same
    for threads in (1, 2):
        out = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digest.py")],
                             env={**SCRIPT_ENV, "OPENBLAS_NUM_THREADS": str(threads)},
                             capture_output=True, text=True, timeout=300, check=True)
        assert out.stdout == ARTIFACT_DIGESTS, threads


def test_bench_unit_tests_pass():
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "bench"],
                         cwd=ROOT, env=SCRIPT_ENV, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def test_recovery_sweep_help_runs():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "recovery_sweep.py"),
                          "--help"],
                         env=SCRIPT_ENV, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.startswith("usage: recovery_sweep.py")


def test_recovery_sweep_runs_and_its_logs_report(tmp_path, capsys):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "recovery_sweep.py"),
                          "--seeds", "3", "--out", str(tmp_path)],
                         env=SCRIPT_ENV, capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["3", "3x2"]]
    assert float(rows[0][3]) < 1e-20
    logs = sorted(str(p) for p in tmp_path.glob("*.jsonl"))
    assert [Path(p).name for p in logs] == ["gd_seed3.jsonl", "newton_seed3.jsonl"]
    assert cli.main(["report", *logs]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["gd", "newton"]


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
