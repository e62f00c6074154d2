#!/usr/bin/env python3
"""Audit the magnitude, PSD, and Lipschitz guarantees over many instances.

Prints one line per instance family member with the tightest margin seen
(measured value / bound); margins stay below 1 when the guarantees hold.

    python scripts/guarantee_audit.py --count 25
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from attninv.analysis import (  # noqa: E402
    _point_norms, bound_suite, lipschitz_probe, psd_floor)
from attninv.generate import (  # noqa: E402
    SplitMix64, bounded_instance, random_matrix, rescale_spectral)
from attninv.hessian import hessian_L  # noqa: E402
from attninv.model import forward_cache  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--base-seed", type=int, default=0)
    args = ap.parse_args(argv)

    shapes = [(2, 2), (3, 2), (4, 3), (6, 4), (3, 3)]
    print(f"{'seed':>6} {'shape':>7} {'bound_margin':>13} "
          f"{'psd_margin':>11} {'lip_margin':>11} {'all_pass':>9}")
    worst_overall = 0.0
    all_ok = True
    for k in range(args.count):
        seed = args.base_seed + k
        n, d = shapes[k % len(shapes)]
        spec, X = bounded_instance(seed, n, d)
        cache = forward_cache(spec, X)

        norms = _point_norms(cache, spec, X)
        bounds = bound_suite(cache, spec, norms)
        bmargin = max((c.lhs / c.rhs for c in bounds.checks if c.rhs > 0),
                      default=0.0)
        psd = psd_floor(spec, hessian_L(cache, spec.with_gamma(0.0), X), norms)
        pmargin = psd.lambda_min / psd.floor if psd.floor < 0 else 0.0
        gen = SplitMix64(seed ^ 0xABCDEF)
        Y = rescale_spectral(random_matrix(gen, d, n), 1.2)
        lip = lipschitz_probe(spec, [(X, Y)])
        lmargin = max((c.lhs / c.rhs for c in lip.checks if c.rhs > 0),
                      default=0.0)
        ok = bounds.passed and psd.passed and psd.hessian_c_passed and lip.passed
        all_ok &= ok
        worst_overall = max(worst_overall, bmargin, pmargin, lmargin)
        print(f"{seed:>6} {n}x{d:<5} {bmargin:>13.3e} {pmargin:>11.3e} "
              f"{lmargin:>11.3e} {str(ok):>9}")
    print(f"\nworst margin {worst_overall:.3e}; "
          f"{'all guarantees hold' if all_ok else 'FAILURES PRESENT'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
