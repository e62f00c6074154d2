"""Command-line front end: generate, check, solve, report.

Exit codes: 0 success, 1 check or solve failure, 2 usage or I/O error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from . import analysis, gradient, hessian, iojson, oracle, solver
from .generate import SplitMix64, make_instance, perturbed_start, random_matrix, rescale_spectral
from .model import (
    NumericalRangeError,
    ProblemSpec,
    check_dense_cap,
    check_input,
    forward_cache,
    loss,
)

CHECK_LEVELS = ("grad", "hessian", "bounds", "psd", "lipschitz", "all")


class UsageError(Exception):
    pass


def _read(reader, path, what: str):
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _read_input(spec: ProblemSpec, path, what: str) -> np.ndarray:
    """An input matrix file, checked for the problem's shape and finiteness."""
    return _read(lambda p: check_input(spec, iojson.read_matrix(p)), path, what)


def _nonneg_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value < float("inf"):
        raise UsageError(f"{what} must be a finite nonnegative float, got {text!r}")
    return value


def _parse_gamma(text: str) -> tuple[str, float]:
    if text == "auto":
        return "auto", 0.0
    return "explicit", _nonneg_float(text, "--gamma (or 'auto')")


def _auto_gamma(spec: ProblemSpec, X) -> float:
    """The dimension-based gamma at X; a usage error when X is so large
    that it overflows."""
    try:
        gamma = analysis.choose_gamma(spec.n, spec.d,
                                      analysis.effective_bound_constant(spec, X))
    except OverflowError:
        gamma = float("inf")
    if not np.isfinite(gamma):
        raise UsageError("--gamma auto: the start is too large for a finite gamma")
    return gamma


def _check_cap(nd: int) -> None:
    """check_dense_cap's refusal as a usage error."""
    try:
        check_dense_cap(nd)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(x: float) -> str:
    return iojson.format_float(float(x))


def cmd_generate(args) -> int:
    mode, gamma = _parse_gamma(args.gamma)
    if args.n < 1 or args.d < 1:
        raise UsageError("--n and --d must be positive")
    if not 0.0 < args.r_target < float("inf"):
        raise UsageError(f"--r-target must be finite and positive, got {args.r_target!r}")
    _check_cap(args.n * args.d)
    spec, x_true = make_instance(args.seed, args.n, args.d, args.r_target)
    if mode == "auto":
        gamma = _auto_gamma(spec, x_true)
    spec = spec.with_gamma(gamma)
    os.makedirs(args.out, exist_ok=True)
    iojson.write_problem(spec, os.path.join(args.out, "problem.json"))
    iojson.write_matrix(x_true, os.path.join(args.out, "x_true.json"))
    print(f"wrote problem.json and x_true.json to {args.out} "
          f"(seed={args.seed}, n={args.n}, d={args.d}, gamma={_fmt(gamma)})")
    return 0


def _sample_x(spec: ProblemSpec, seed: int) -> np.ndarray:
    # decorrelate from the instance generator's stream so the probe never
    # lands on the synthesized minimizer
    gen = SplitMix64(SplitMix64(seed).next_u64())
    return rescale_spectral(random_matrix(gen, spec.d, spec.n), 1.2)


def _residual_hessians_vs_blocks(cache, spec: ProblemSpec):
    """The pass flag and fields of residual_hessians against hessian_c at
    every residual, in calls of whole probe tokens and of consecutive
    residuals r = i0 * d + j0 within the FD oracle's entry budget."""
    n, d, nd = spec.n, spec.d, spec.n * spec.d
    tokens = max(1, oracle._STACK_ENTRIES // (d * nd**2))
    step = max(1, oracle._STACK_ENTRIES // nd**2)
    worst, passed = 0.0, True
    for i in np.split(np.arange(n), range(tokens, n, tokens)):
        T = hessian.residual_hessians(cache, spec, i).reshape(-1, nd, nd)
        r = i[0] * d + np.arange(len(T))   # the tokens' residuals, in order
        for lo in range(0, len(r), step):
            a = T[lo:lo + step]
            o = hessian.hessian_c(cache, spec, *np.divmod(r[lo:lo + step], d))
            err = np.abs(a - o)
            worst = max(worst, float(err.max()))
            # |a - o| <= 1e-10 implies oracle.check's bound at tol 1e-10
            passed &= bool((err <= 1e-10).all() or oracle.check(a, o, 1e-10).passed)
    return passed, {"max_abs_diff": worst}


def _check_entries(spec: ProblemSpec, X, level: str, seed: int):
    """Run the selected certification checks and return their result dicts."""
    cache = forward_cache(spec, X)
    if not np.isfinite(loss(spec, X, cache)):
        raise NumericalRangeError("the loss is not finite at X")
    results = []

    def add(name, passed, detail):
        results.append({"check": name, "pass": bool(passed), **detail})

    def add_bounds(name, rep):
        add(name, rep.passed, {"r_eff": rep.r_eff, "checks": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "pass": c.passed, "kind": c.kind}
            for c in rep.checks]})

    if level in ("grad", "all"):
        tol = 1e-6
        rep = oracle.check(gradient.grad_L(cache, spec, X),
                           oracle.fd_grad(lambda Ys: loss(spec, Ys), X), tol,
                           target="grad_L")
        add("grad_L_vs_fd", rep.passed,
            {"max_abs_err": rep.max_abs_err, "max_rel_err": rep.max_rel_err,
             "worst_index": list(rep.worst_index), "tol_abs": tol, "tol_rel": tol})
    if level in ("hessian", "psd", "all"):
        # one loss Hessian per point: gamma moves only its diagonal
        H0 = hessian.hessian_L(cache, spec.with_gamma(0.0), X)
    if level in ("hessian", "all"):
        tol = 1e-4
        H = hessian._shift_diagonal(H0.copy(), 2.0 * spec.gamma)
        rep = oracle.check(H, oracle.fd_hessian(lambda Ys: loss(spec, Ys), X), tol,
                           target="hessian_L")
        add("hessian_L_vs_fd", rep.passed,
            {"max_abs_err": rep.max_abs_err, "worst_index": list(rep.worst_index),
             "tol_abs": tol, "tol_rel": tol})
        asym = float(np.abs(H - H.T).max())
        tol = 1e-8 * (1.0 + float(np.abs(H).max()))
        add("hessian_L_symmetry", asym <= tol, {"asymmetry": asym, "tol": tol})
        add("residual_hessians_vs_blocks", *_residual_hessians_vs_blocks(cache, spec))
    if level in ("bounds", "psd", "all"):
        # one residual-Hessian sweep and one ||X||_2 for both checks, each
        # level taking only the norms its checks report
        norms = analysis._point_norms(cache, spec, X, level)
    if level in ("bounds", "all"):
        add_bounds("bound_suite", analysis.bound_suite(cache, spec, norms))
    if level in ("psd", "all"):
        rep = analysis.psd_floor(spec, H0, norms)
        add("psd_floor", rep.passed and rep.hessian_c_passed,
            {"lambda_min": rep.lambda_min, "floor": rep.floor,
             "hessian_c_norm_max": rep.hessian_c_norm_max,
             "hessian_c_bound": rep.hessian_c_bound})
        gamma = analysis.choose_gamma(spec.n, spec.d, rep.r_eff)
        lam = analysis.min_eigenvalue(hessian._shift_diagonal(H0.copy(), 2.0 * gamma))
        add("psd_with_auto_gamma", lam > 0.0, {"lambda_min": lam, "gamma": gamma})
    if level in ("lipschitz", "all"):
        gen = SplitMix64(seed ^ 0x5EED)
        pairs = [tuple(rescale_spectral(random_matrix(gen, spec.d, spec.n), 1.2)
                       for _ in range(2)) for _ in range(3)]
        add_bounds("lipschitz_probe", analysis.lipschitz_probe(spec, pairs))
    return results


def cmd_check(args) -> int:
    spec = _read(iojson.read_problem, args.problem, "problem")
    meta = {"problem": args.problem, "level": args.level}
    if args.x is not None:
        X = _read_input(spec, args.x, "X")
        meta["x_source"] = args.x
    else:
        X = _sample_x(spec, args.seed)
        meta["x_source"] = f"seed:{args.seed}"
    if args.level != "grad":
        _check_cap(spec.n * spec.d)
    try:
        results = _check_entries(spec, X, args.level, args.seed)
    except (NumericalRangeError, OverflowError) as exc:  # X is out of range
        results = [{"check": "numerical_range", "pass": False,
                    "error": f"{type(exc).__name__}: {exc}"}]
    ok = all(r["pass"] for r in results)
    print(json.dumps({"meta": meta, "results": results, "pass": ok},
                     sort_keys=True, indent=2))
    return 0 if ok else 1


def _parse_init(text: str):
    if text.startswith("file:"):
        return ("file", text[5:])
    if text.startswith("perturb:"):
        return ("perturb", _nonneg_float(text[8:], "the --init perturbation radius"))
    raise UsageError("--init must be file:<path> or perturb:<radius>")


def _check_solve_args(args) -> None:
    if not 0.0 < args.eps < float("inf"):
        raise UsageError(f"--eps must be finite and positive, got {args.eps!r}")
    if args.max_iter < 1:
        raise UsageError(f"--max-iter must be at least 1, got {args.max_iter}")
    if args.solver == "gd" and not 0.0 < args.eta < float("inf"):
        raise UsageError(f"--eta must be finite and positive, got {args.eta!r}")


def cmd_solve(args) -> int:
    _check_solve_args(args)
    spec = _read(iojson.read_problem, args.problem, "problem")
    if args.solver == "newton":
        _check_cap(spec.n * spec.d)
    init = _parse_init(args.init)
    mode, gamma = _parse_gamma(args.gamma) if args.gamma is not None else (None, None)
    if mode == "explicit":
        spec = spec.with_gamma(gamma)

    problem_dir = os.path.dirname(os.path.abspath(args.problem))
    x_true = None
    true_path = os.path.join(problem_dir, "x_true.json")
    if os.path.exists(true_path):
        x_true = _read_input(spec, true_path, "x_true.json")

    if init[0] == "file":
        X0 = _read_input(spec, init[1], "init file")
    elif x_true is None:
        raise UsageError("perturb init requires x_true.json next to the problem")
    else:
        X0 = perturbed_start(x_true, init[1], args.seed)

    if mode == "auto":
        spec = spec.with_gamma(_auto_gamma(spec, X0))

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    meta = {"problem": args.problem, "solver": args.solver, "seed": args.seed,
            "init": args.init, "gamma_mode": mode or "problem"}
    if args.solver == "newton":
        X_out, records, status = solver.newton_solve(spec, X0, eps=args.eps,
                                                     max_iter=args.max_iter)
    else:
        X_out, records, status = solver.gd_solve(spec, X0, args.eta,
                                                 args.max_iter, eps=args.eps)
    final = solver.evaluate(spec, X_out)
    if final is None:  # the end point overflows: it has no final loss or gradient
        status = solver.NUMERICAL_FAILURE
    else:
        meta["final_loss"], meta["final_grad_norm"] = final[1], final[3]
    meta["status"] = status
    meta["iterations"] = len(records)
    if x_true is not None:
        distance = float(np.linalg.norm(X_out - x_true))
        if np.isfinite(distance):  # a finite X_out far out can overflow it
            meta["distance_to_truth"] = distance
    iojson.write_matrix(X_out, os.path.join(out_dir, "x_out.json"))
    iojson.write_run_log(os.path.join(out_dir, "run.jsonl"), records, meta=meta)
    print(f"status={status} iterations={len(records)}" + "".join(
        f" {label}={_fmt(meta[key])}" for key, label in (
            ("final_loss", "final_loss"), ("final_grad_norm", "grad_norm"),
            ("distance_to_truth", "distance")) if key in meta))
    if status == solver.NUMERICAL_FAILURE and records:
        last = records[-1]
        print(f"last record: iter={last.iter} loss={_fmt(last.loss)} "
              f"grad_norm={_fmt(last.grad_norm)}", file=sys.stderr)
    return 0 if status == solver.CONVERGED else 1


_REPORT_COLUMNS = ("instance", "solver", "iterations", "final_loss",
                   "final_grad_norm", "distance")


def _report_row(path: str):
    meta, records, skipped = iojson.read_run_log(path)
    if skipped:
        print(f"warning: {path}: skipped {skipped} malformed line(s)",
              file=sys.stderr)
    if not records and not meta:
        return None
    last = records[-1] if records else {}

    def number(obj, key):          # a JSON int or float, never a bool
        return _fmt(iojson._json(obj.get(key), key, int, float))

    return {
        "instance": str(meta.get("problem", "")),
        "solver": str(meta.get("solver", "")),
        "iterations": str(iojson._json(meta.get("iterations", len(records)),
                                       "iterations", int)),
        "final_loss": number(meta, "final_loss") if "final_loss" in meta
        else (number(last, "loss") if records else ""),
        "final_grad_norm": number(meta, "final_grad_norm") if "final_grad_norm" in meta
        else (number(last, "grad_norm") if records else ""),
        "distance": number(meta, "distance_to_truth")
        if "distance_to_truth" in meta else "",
    }


def cmd_report(args) -> int:
    rows = []
    for path in args.runs:
        try:
            row = _report_row(path)
        except (OSError, ValueError, OverflowError) as exc:  # unreadable or unformattable
            print(f"warning: cannot read {path}: {exc}", file=sys.stderr)
            continue
        if row is not None:
            rows.append(row)
    buf = io.StringIO()            # quoted where a field holds , " or a newline
    csv.writer(buf, lineterminator="\n").writerows(
        [_REPORT_COLUMNS] + [[row[c] for c in _REPORT_COLUMNS] for row in rows])
    csv_text = buf.getvalue()
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it between calls."""
    p = argparse.ArgumentParser(prog="attninv",
                                description="attention-input recovery harness")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthesized instance")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--r-target", type=float, default=1.2)
    g.add_argument("--gamma", default="0.0", help="'auto' or a float")
    g.add_argument("--out", default=".")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="run derivative/bound/psd certification")
    c.add_argument("--problem", required=True)
    c.add_argument("--x", default=None, help="optional input matrix file")
    c.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled X when --x is omitted")
    c.add_argument("--level", choices=CHECK_LEVELS, default="all")
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("solve", help="recover X from a problem file")
    s.add_argument("--problem", required=True)
    s.add_argument("--init", required=True, help="file:<path> or perturb:<radius>")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--solver", choices=("newton", "gd"), default="newton")
    s.add_argument("--eps", type=float, default=1e-10)
    s.add_argument("--max-iter", type=int, default=100)
    s.add_argument("--eta", type=float, default=0.05)
    s.add_argument("--gamma", default=None, help="'auto' or a float override")
    s.add_argument("--out", default=".")
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("report", help="summarize run logs")
    r.add_argument("runs", nargs="*")
    r.add_argument("--csv", default=None)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # overflow far out of range is decided by explicit finiteness
        # checks, so numpy's floating-point warnings would only be noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: an output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
