"""The benchmark's workloads: which instances each one generates from the
benchmark seed, which ``attninv`` command each item runs, and the gate
that decides whether an item's result is correct.

Gates read the artifacts with plain ``json`` rather than through
``attninv.iojson``, so the check does not depend on the code it checks.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

# Instance seed of family member ``base`` under benchmark seed ``s`` is
# ``base + SEED_STRIDE * s``: seed 0 reproduces the bases exactly, and the
# stride keeps the members of different benchmark seeds apart.
SEED_STRIDE = 10007
INIT_RADIUS = 0.01

# newton_recover: (instance seed, n, d) on n-heavy and d-heavy shapes with
# n*d from 32 to 128.  The instances are fixed and the benchmark seed moves
# only the start: Newton iteration counts differ several-fold between
# instances (4 to 38 over random ones), which would make every timing
# depend on the seed, while on these four they stay within one or two
# iterations across starts.
NEWTON_FAMILY = ((1804, 8, 4), (2206, 12, 6), (2608, 16, 8), (1816, 8, 16))
NEWTON_MAX_LOSS = 1e-14

# gd_baseline: the acceptance recovery family (seed base, n, d).
GD_FAMILY = ((3, 2, 2), (101, 3, 2), (203, 3, 3), (303, 4, 2), (402, 4, 3),
             (500, 2, 3), (601, 3, 2), (700, 4, 3), (807, 2, 2), (901, 3, 3))
# eps far below reach, so every run spends the whole budget.
GD_EPS = 1e-13
GD_MAX_ITER = 2000
GD_MAX_LOSS = 1e-8

CERTIFY_SHAPES = ((4, 3), (6, 4), (8, 4))

WORKLOADS = {
    "newton_recover": "default damped Newton from a seeded 0.01 perturbation "
                      "on fixed 8x4, 12x6, 16x8, 8x16 instances; hessian_L does "
                      "nearly all the work",
    "gd_baseline": "fixed-step GD, 2000 iterations on the 10-instance acceptance "
                   "family; per-call overhead of forward_cache/grad_L, no "
                   "hessian_L in the timed phase",
    "certify": "check --level all on 4x3, 6x4, 8x4: per-residual hessian_c, "
               "case blocks, d2c_entry tables, FD oracle and analysis loops",
}


@dataclass(frozen=True)
class Item:
    """One ``attninv`` command on one instance."""

    key: str
    argv: tuple[str, ...]
    out_dir: str | None  # solve output directory; None for check


@dataclass(frozen=True)
class Outcome:
    """What the gate saw for one item run."""

    ok: bool
    detail: str
    digest: str          # hash of every output, compared across passes
    iterations: int = 0  # solver iterations from the run.jsonl meta line
    accepted: int = 0    # Newton iterations that took a step
    newton: bool = False
    bytes_written: int = 0


def instance_seed(bench_seed: int, base: int) -> int:
    return base + SEED_STRIDE * bench_seed


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def _generate(cli, seed: int, n: int, d: int, out: str) -> str:
    code = _quiet(cli.main, ["generate", "--seed", str(seed), "--n", str(n),
                             "--d", str(d), "--out", out])
    if code != 0:
        raise RuntimeError(f"generate --seed {seed} --n {n} --d {d} exited {code}")
    return os.path.join(out, "problem.json")


def _gd_step(attninv, problem: str, seed: int) -> float:
    """Criterion 8's step: 1 / lambda_max of the loss Hessian at the start
    point the CLI will draw for ``--init perturb:0.01 --seed seed``."""
    import numpy as np

    spec = attninv.iojson.read_problem(problem)
    x_true = attninv.iojson.read_matrix(os.path.join(os.path.dirname(problem),
                                                     "x_true.json"))
    X0 = attninv.perturbed_start(x_true, INIT_RADIUS, seed)
    H = attninv.hessian_L(attninv.forward_cache(spec, X0), spec, X0)
    return 1.0 / float(np.linalg.eigvalsh(H).max())


def setup(workload: str, bench_seed: int, work: str) -> list[Item]:
    """Generate and write the workload's problem files under ``work`` and
    return its items in run order."""
    import attninv
    from attninv import cli

    items = []
    if workload == "newton_recover":
        for base, n, d in NEWTON_FAMILY:
            key = f"{n}x{d}"
            problem = _generate(cli, base, n, d, os.path.join(work, key, "inst"))
            out = os.path.join(work, key, "run")
            items.append(Item(key, ("solve", "--problem", problem,
                                    "--init", f"perturb:{INIT_RADIUS}",
                                    "--seed",
                                    str(1000 + instance_seed(bench_seed, base)),
                                    "--out", out), out))
    elif workload == "gd_baseline":
        for base, n, d in GD_FAMILY:
            key = f"{base}:{n}x{d}"
            seed = instance_seed(bench_seed, base)
            problem = _generate(cli, seed, n, d, os.path.join(work, str(base), "inst"))
            eta = _gd_step(attninv, problem, 1000 + seed)
            out = os.path.join(work, str(base), "run")
            items.append(Item(key, ("solve", "--problem", problem, "--solver", "gd",
                                    "--init", f"perturb:{INIT_RADIUS}",
                                    "--seed", str(1000 + seed),
                                    "--eta", format(eta, ".17g"), "--eps", str(GD_EPS),
                                    "--max-iter", str(GD_MAX_ITER), "--out", out), out))
    elif workload == "certify":
        for n, d in CERTIFY_SHAPES:
            key = f"{n}x{d}"
            seed = instance_seed(bench_seed, 100 * n + d)
            problem = _generate(cli, seed, n, d, os.path.join(work, key, "inst"))
            items.append(Item(key, ("check", "--problem", problem, "--level", "all",
                                    "--seed", str(seed)), None))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def newton_ok(meta: dict) -> bool:
    return (meta.get("status") == "Converged"
            and meta.get("final_loss", math.inf) <= NEWTON_MAX_LOSS)


def gd_ok(meta: dict) -> bool:
    # MaxIter (exit code 1) is the documented result of a spent budget.
    return (meta.get("status") not in (None, "NumericalFailure")
            and meta.get("final_loss", math.inf) <= GD_MAX_LOSS)


def certify_ok(code: int, report: dict) -> bool:
    results = report.get("results") or []
    return (code == 0 and report.get("pass") is True and bool(results)
            and all(r.get("pass") is True for r in results))


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def judge(item: Item, code: int, stdout: str) -> Outcome:
    """Apply the workload's correctness gate to one finished item."""
    if item.out_dir is None:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return Outcome(False, f"exit {code}, no JSON report", _digest(stdout.encode()))
        ok = certify_ok(code, report)
        failing = [r.get("check") for r in report.get("results", [])
                   if r.get("pass") is not True]
        return Outcome(ok, f"exit {code}, failing checks {failing}",
                       _digest(stdout.encode()))
    try:
        with open(os.path.join(item.out_dir, "run.jsonl"), "rb") as fh:
            log = fh.read()
        with open(os.path.join(item.out_dir, "x_out.json"), "rb") as fh:
            x_out = fh.read()
        lines = log.decode().splitlines()
        meta = json.loads(lines[0])["meta"]
        records = [json.loads(line) for line in lines[1:]]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(False, f"exit {code}, unreadable artifacts: {exc}",
                       _digest(stdout.encode()))
    newton = meta.get("solver") == "newton"
    ok = newton_ok(meta) if newton else gd_ok(meta)
    accepted = sum(1 for r in records if r.get("step_norm", 0.0) > 0.0)
    return Outcome(ok, f"exit {code}, status {meta.get('status')}, "
                       f"final_loss {meta.get('final_loss')}",
                   _digest(log, x_out), iterations=int(meta.get("iterations", 0)),
                   accepted=accepted if newton else 0, newton=newton,
                   bytes_written=len(log) + len(x_out))
