"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""
import filecmp
import time

import numpy as np
import pytest

from attninv import cli
from attninv.analysis import (
    choose_gamma,
    effective_bound_constant,
    lipschitz_probe,
)
from attninv.generate import make_instance, perturbed_start
from attninv.gradient import grad_L
from attninv.hessian import d2c_entry, hessian_L, hessian_c
from attninv.model import forward_cache, loss
from attninv.oracle import fd_grad, fd_hessian, fd_jacobian
from attninv.solver import CONVERGED, gd_solve, newton_solve
from conftest import bound_suite_at, bounded_instance, bounded_x, per_point, psd_floor_at

# fixed recovery family for criteria 7-9: (seed, n, d), n <= 4, d <= 3
RECOVERY_FAMILY = [
    (3, 2, 2), (101, 3, 2), (203, 3, 3), (303, 4, 2), (402, 4, 3),
    (500, 2, 3), (601, 3, 2), (700, 4, 3), (807, 2, 2), (901, 3, 3),
]


def _verdict(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_gradient_certification():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for seed, n in enumerate((1, 2, 3, 4, 6)):
        for d in (1, 2, 3, 4):
            spec, X = bounded_instance(100 * seed + d, n, d)
            cache = forward_cache(spec, X)
            g = grad_L(cache, spec, X)
            fd = fd_grad(lambda Ys: loss(spec, Ys), X)
            allowance = 1e-6 + 1e-6 * np.maximum(np.abs(g), np.abs(fd))
            worst = max(worst, float((np.abs(g - fd) / allowance).max()))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and count == 20 and elapsed < 10.0
    _verdict(1, ok, f"gradient vs FD on {count} instances, worst mixed-tol "
                    f"ratio {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_hessian_certification():
    t0 = time.perf_counter()
    shapes = [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2),
              (3, 3), (4, 4), (6, 3), (5, 3), (6, 2)]
    worst_fd = 0.0
    worst_jac = 0.0
    worst_asym = 0.0
    for seed, (n, d) in enumerate(shapes):
        assert n * d <= 18
        spec, X = bounded_instance(2000 + seed, n, d)
        cache = forward_cache(spec, X)
        H = hessian_L(cache, spec, X)
        scale = 1.0 + float(np.abs(H).max())
        worst_asym = max(worst_asym, float(np.abs(H - H.T).max()) / scale)

        fdh = fd_hessian(lambda Ys: loss(spec, Ys), X)
        allow = 1e-4 + 1e-4 * np.maximum(np.abs(H), np.abs(fdh))
        worst_fd = max(worst_fd, float((np.abs(H - fdh) / allow).max()))

        fdj = fd_jacobian(
            per_point(lambda Y: grad_L(forward_cache(spec, Y), spec, Y)), X)
        allow = 1e-4 + 1e-4 * np.maximum(np.abs(H), np.abs(fdj))
        worst_jac = max(worst_jac, float((np.abs(H - fdj) / allow).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_fd <= 1.0 and worst_jac <= 1.0 and worst_asym <= 1e-8 and elapsed < 60.0
    _verdict(2, ok, f"hessian vs FD(loss) ratio {worst_fd:.3e}, vs "
                    f"FD(grad) ratio {worst_jac:.3e}, asym {worst_asym:.1e}, "
                    f"{elapsed:.1f}s")


def test_criterion_3_block_entry_equivalence():
    worst = 0.0
    for seed in range(10):
        n, d = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)][seed % 5]
        spec, X = bounded_instance(3000 + seed, n, d)
        cache = forward_cache(spec, X)
        for i0 in range(n):
            for j0 in range(d):
                H = hessian_c(cache, spec, i0, j0)
                for i1 in range(n):
                    for j1 in range(d):
                        for i2 in range(n):
                            for j2 in range(d):
                                entry = d2c_entry(cache, spec, i0, j0,
                                                  i1, j1, i2, j2)
                                worst = max(worst, abs(
                                    entry - H[i1 * d + j1, i2 * d + j2]))
    ok = worst <= 1e-10
    _verdict(3, ok, f"block vs entry tables on 10 instances, max diff {worst:.3e}")


def test_criterion_4_bound_suite():
    failures = []
    for seed in range(50):
        n = (1, 2, 3, 4, 6)[seed % 5]
        d = (1, 2, 3, 4)[seed % 4]
        spec, X = bounded_instance(4000 + seed, n, d)
        rep = bound_suite_at(spec, X)
        failures += [f"seed{seed}:{c.name}" for c in rep.checks if not c.passed]
    ok = not failures
    _verdict(4, ok, f"bound suite on 50 instances, failures: {failures or 'none'}")


def test_criterion_5_psd_floor():
    bad = []
    for seed in range(25):
        n = (2, 3, 4)[seed % 3]
        d = (1, 2, 3)[seed % 3 - 1]
        spec, X = bounded_instance(5000 + seed, n, d)
        rep = psd_floor_at(spec, X)
        if not (rep.passed and rep.hessian_c_passed):
            bad.append(f"seed{seed}:floor")
        gamma = choose_gamma(n, d, rep.r_eff)
        reg = spec.with_gamma(gamma)
        H = hessian_L(forward_cache(reg, X), reg, X)
        lam = float(np.linalg.eigvalsh(0.5 * (H + H.T)).min())
        if not lam > 0.0:
            bad.append(f"seed{seed}:gamma")
    ok = not bad
    _verdict(5, ok, f"PSD floor and regularized positivity on 25 instances, "
                    f"failures: {bad or 'none'}")


def test_criterion_6_lipschitz_constants():
    bad = []
    for seed in range(25):
        n = (2, 3, 4)[seed % 3]
        d = (1, 2, 3)[(seed + 1) % 3]
        spec, _ = bounded_instance(6000 + seed, n, d)
        X = bounded_x(6100 + seed, n, d)
        Y = bounded_x(6200 + seed, n, d)
        rep = lipschitz_probe(spec, [(X, Y)])
        bad += [f"seed{seed}:{c.name}" for c in rep.checks if not c.passed]
    ok = not bad
    _verdict(6, ok, f"Lipschitz explicit-constant and smoke checks on 25 "
                    f"pairs, failures: {bad or 'none'}")


def _recovery_runs():
    runs = []
    for seed, n, d in RECOVERY_FAMILY:
        spec, x_true = make_instance(seed, n, d)
        X0 = perturbed_start(x_true, 0.01, 1000 + seed)
        X, recs, status = newton_solve(spec, X0, eps=1e-12, max_iter=25)
        runs.append((seed, spec, x_true, X0, X, recs, status))
    return runs


def test_criterion_7_newton_recovery():
    t0 = time.perf_counter()
    bad = []
    for seed, spec, x_true, X0, X, recs, status in _recovery_runs():
        final = loss(spec, X)
        dist = float(np.linalg.norm(X - x_true))
        if not (status == CONVERGED and final <= 1e-14
                and dist <= 1e-5 and len(recs) <= 25):
            bad.append(f"seed{seed}:{status},loss={final:.1e},dist={dist:.1e},"
                       f"iters={len(recs)}")
    worst_slope = -np.inf
    eps_grid = (1e-2, 1e-4, 1e-6, 1e-8)
    for seed, n, d in RECOVERY_FAMILY:
        spec, x_true = make_instance(seed, n, d)
        X0 = perturbed_start(x_true, 0.01, 1000 + seed)
        gamma = choose_gamma(n, d, effective_bound_constant(spec, X0))
        reg = spec.with_gamma(gamma)
        iters = []
        for eps in eps_grid:
            _, recs, status = newton_solve(reg, X0, eps=eps, max_iter=100)
            if status != CONVERGED:
                bad.append(f"seed{seed}:gamma-run {status} at eps={eps}")
                break
            iters.append(len(recs))
        else:
            slope = float(np.polyfit(np.log(1.0 / np.array(eps_grid)),
                                     iters, 1)[0])
            worst_slope = max(worst_slope, slope)
    elapsed = time.perf_counter() - t0
    ok = not bad and worst_slope <= 3.0 and elapsed < 120.0
    _verdict(7, ok, f"newton recovery on {len(RECOVERY_FAMILY)} instances, "
                    f"failures: {bad or 'none'}, iteration slope "
                    f"{worst_slope:.3f} (<= 3), {elapsed:.1f}s")


def test_criterion_8_gd_baseline():
    bad = []
    ratios = []
    for seed, spec, x_true, X0, _, newton_recs, _ in _recovery_runs():
        cache0 = forward_cache(spec, X0)
        eta = 1.0 / float(np.linalg.eigvalsh(hessian_L(cache0, spec, X0)).max())
        _, recs, status = gd_solve(spec, X0, eta=eta, max_iter=20000, eps=1e-13)
        reached = [r.iter for r in recs if r.loss <= 1e-8]
        if not reached:
            bad.append(f"seed{seed}: gd never reached 1e-8 ({status})")
            continue
        ratio = reached[0] / len(newton_recs)
        ratios.append(ratio)
        if ratio < 10.0:
            bad.append(f"seed{seed}: gd/newton ratio {ratio:.1f} < 10")
    ok = not bad
    _verdict(8, ok, f"gd baseline reaches 1e-8 on all instances, "
                    f"iteration ratios {[f'{r:.0f}x' for r in ratios]}, "
                    f"failures: {bad or 'none'}")


def _pipeline(tmpdir, monkeypatch) -> list:
    """Generate + check + solve (newton and gd) + report, all with relative
    paths under tmpdir so both runs see the identical configuration."""
    import contextlib
    import io

    monkeypatch.chdir(tmpdir)
    assert cli.main(["generate", "--seed", "3", "--n", "2", "--d", "2",
                     "--out", "inst"]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["check", "--problem", "inst/problem.json",
                         "--level", "all"]) == 0
    (tmpdir / "check.json").write_text(buf.getvalue())
    assert cli.main(["solve", "--problem", "inst/problem.json",
                     "--init", "perturb:0.01", "--seed", "1003",
                     "--eps", "1e-12", "--out", "newton"]) == 0
    cli.main(["solve", "--problem", "inst/problem.json",
              "--init", "perturb:0.01", "--seed", "1003", "--solver", "gd",
              "--eta", "0.3", "--max-iter", "3000", "--eps", "1e-10",
              "--out", "gd"])
    assert cli.main(["report", "newton/run.jsonl", "gd/run.jsonl",
                     "--csv", "report.csv"]) == 0
    return [tmpdir / "inst" / "problem.json", tmpdir / "inst" / "x_true.json",
            tmpdir / "check.json",
            tmpdir / "newton" / "run.jsonl", tmpdir / "newton" / "x_out.json",
            tmpdir / "gd" / "run.jsonl", tmpdir / "gd" / "x_out.json",
            tmpdir / "report.csv"]


def test_criterion_9_determinism(tmp_path, monkeypatch):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    arts_a = _pipeline(a, monkeypatch)
    arts_b = _pipeline(b, monkeypatch)
    differing = [str(pa.name) for pa, pb in zip(arts_a, arts_b)
                 if not filecmp.cmp(pa, pb, shallow=False)]
    ok = not differing
    _verdict(9, ok, f"byte-identical artifacts across repeated runs "
                    f"({len(arts_a)} files), differing: {differing or 'none'}")
