#!/usr/bin/env python3
"""Newton-vs-gradient-descent recovery sweep.

For each instance in a seeded family, recover the hidden input from a
perturbed start with both solvers and sweep the Newton stop tolerance to
show the logarithmic growth of its iteration count.

    python scripts/recovery_sweep.py
    python scripts/recovery_sweep.py --seeds 3 101 203 --n 3 --d 2 --out runs/
"""
import argparse
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from attninv.analysis import choose_gamma, effective_bound_constant  # noqa: E402
from attninv.generate import make_instance, perturbed_start  # noqa: E402
from attninv.hessian import hessian_L  # noqa: E402
from attninv.iojson import write_run_log  # noqa: E402
from attninv.model import forward_cache, loss  # noqa: E402
from attninv.solver import gd_solve, newton_solve  # noqa: E402

EPS_GRID = (1e-2, 1e-4, 1e-6, 1e-8)


def run_one(seed: int, n: int, d: int, radius: float, out_dir=None):
    spec, x_true = make_instance(seed, n, d)
    X0 = perturbed_start(x_true, radius, 1000 + seed)

    X, recs, status = newton_solve(spec, X0, eps=1e-12, max_iter=50)
    newton_iters = len(recs)
    dist = float(np.linalg.norm(X - x_true))
    if out_dir is not None:
        write_run_log(os.path.join(out_dir, f"newton_seed{seed}.jsonl"),
                      recs, meta={"solver": "newton", "seed": seed,
                                  "status": status})

    cache0 = forward_cache(spec, X0)
    eta = 1.0 / float(np.linalg.eigvalsh(hessian_L(cache0, spec, X0)).max())
    _, gd_recs, gd_status = gd_solve(spec, X0, eta=eta, max_iter=20000,
                                     eps=1e-13)
    reached = [r.iter for r in gd_recs if r.loss <= 1e-8]
    gd_iters = reached[0] if reached else None
    if out_dir is not None:
        write_run_log(os.path.join(out_dir, f"gd_seed{seed}.jsonl"),
                      gd_recs, meta={"solver": "gd", "seed": seed,
                                     "status": gd_status, "eta": eta})

    gamma = choose_gamma(n, d, effective_bound_constant(spec, X0))
    reg = spec.with_gamma(gamma)
    sweep = []
    for eps in EPS_GRID:
        _, r, s = newton_solve(reg, X0, eps=eps, max_iter=100)
        sweep.append(len(r) if s == "Converged" else -1)

    return {"seed": seed, "n": n, "d": d, "status": status,
            "newton_iters": newton_iters, "final_loss": loss(spec, X),
            "distance": dist, "gd_iters_to_1e-8": gd_iters, "eta": eta,
            "eps_sweep_iters": sweep}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="*",
                    default=[3, 101, 203, 303, 402])
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--radius", type=float, default=0.01)
    ap.add_argument("--out", default=None, help="directory for run logs")
    args = ap.parse_args(argv)
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    header = (f"{'seed':>6} {'shape':>7} {'newton':>7} {'loss':>10} "
              f"{'dist':>10} {'gd@1e-8':>8} " + " ".join(
                  f"it@{e:.0e}" for e in EPS_GRID))
    print(header)
    print("-" * len(header))
    for seed in args.seeds:
        row = run_one(seed, args.n, args.d, args.radius, out_dir=args.out)
        sweep = " ".join(f"{k:>8}" for k in row["eps_sweep_iters"])
        print(f"{row['seed']:>6} {row['n']}x{row['d']:<5} "
              f"{row['newton_iters']:>7} {row['final_loss']:>10.2e} "
              f"{row['distance']:>10.2e} {str(row['gd_iters_to_1e-8']):>8} "
              + sweep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
