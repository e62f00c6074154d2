"""attninv benchmark: run one workload through ``attninv.cli.main`` for a
fixed time, check every result, and print the workload's metrics.

    python3 bench/run.py --workload newton_recover --seed 0 --seconds 35 --trace 0

The repository root is the parent of this file's directory; the program
is imported from its ``src/``.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Times are in reference seconds (see
calibrate.py).  Artifacts of the run (a details file and, when traced,
the spans) go to ``.bench_out/`` under the root.  See bench/README.md for
the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
SETUP_REPEATS = 5
# Run by a fresh interpreter in every set-up, so that import time is
# sampled as often as the rest of the set-up.
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, attninv.cli"

# (module, function, span name).  Every namespace that binds one of these
# functions gets the wrapper, so ``grad_c`` is traced when ``hessian``
# calls it and ``loss`` when ``solver`` or ``cli`` does.
TRACE_TARGETS = (
    ("model", "forward_cache", "model.forward_cache"),
    ("model", "loss", "model.loss"),
    ("gradient", "grad_L", "gradient.grad_L"),
    ("gradient", "grad_c", "gradient.grad_c"),
    ("hessian", "hessian_L", "hessian.hessian_L"),
    ("hessian", "hessian_c", "hessian.hessian_c"),
    *(("hessian", f"block_case{k}", "hessian.block") for k in range(1, 6)),
    ("hessian", "d2c_entry", "hessian.d2c_entry"),
    ("oracle", "fd_grad", "oracle.fd_grad"),
    ("oracle", "fd_hessian", "oracle.fd_hessian"),
    ("analysis", "bound_suite", "analysis.bound_suite"),
    ("analysis", "psd_floor", "analysis.psd_floor"),
    ("analysis", "lipschitz_probe", "analysis.lipschitz_probe"),
    ("solver", "newton_solve", "solver.newton_solve"),
    ("solver", "gd_solve", "solver.gd_solve"),
    # One damping attempt: Cholesky factorization and the two solves.
    ("solver", "_try_solve", "solver.cholesky"),
    *(("iojson", fn, "iojson") for fn in ("read_problem", "read_matrix",
                                          "write_problem", "write_matrix",
                                          "write_run_log")),
    ("generate", "make_instance", "generate.make_instance"),
    ("cli", "main", "cli"),
)

END_TO_END = {
    "setup_s": "s", "run_s": "s", "item_s_p50": "s", "item_s_max": "s",
    "peak_rss_mb": "MB",
}
SPAN_CALLS_AND_SELF = ("model.forward_cache", "model.loss", "gradient.grad_L",
                       "gradient.grad_c", "hessian.hessian_L", "hessian.hessian_c",
                       "hessian.block", "hessian.d2c_entry")
SPAN_SELF = ("oracle.fd_grad", "oracle.fd_hessian", "analysis.bound_suite",
             "analysis.psd_floor", "analysis.lipschitz_probe",
             "solver.newton_solve", "solver.gd_solve", "cli", "iojson")
PER_LAYER = {
    **{f"{s}.{m}": u for s in SPAN_CALLS_AND_SELF
       for m, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{s}.self_s": "s" for s in SPAN_SELF},
    "oracle.probes": "count",
    "solver.iterations": "count",
    "solver.cholesky.calls": "count",
    "solver.cholesky_accept_ratio": "ratio",
    "solver.linesearch_probes": "count",
    "solver.linesearch_accept_ratio": "ratio",
    "iojson.bytes_written": "B",
    "generate.make_instance.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    item_ids: list[int]
    wall_s: float  # raw wall time of the pass, probes included
    outcomes: list = field(default_factory=list)
    item_s: list[float] = field(default_factory=list)  # reference seconds

    @property
    def run_s(self) -> float:
        return sum(self.item_s)


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "attninv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Bench:
    """One benchmark process: set-up, timed passes, gates, metrics.

    Every set-up and every item gets an id, in order, and one interval of
    the speed sampler, so that interval index and id coincide."""

    def __init__(self, args, attninv, cli, workloads, spans, calibrate):
        self.args = args
        self.cli = cli
        self.workloads = workloads
        self.spans = spans
        self.sampler = calibrate.Sampler()
        self.work = OUT / f"work-{args.workload}-{os.getpid()}"
        self.tracer = spans.Tracer() if args.trace else None
        self.namespaces = [attninv, cli] + [getattr(attninv, m) for m in (
            "model", "gradient", "hessian", "oracle", "analysis", "solver",
            "iojson", "generate")]
        self.item_keys: list[str] = []  # item id -> item key
        self.factors: list[float] = []  # item id -> speed factor
        self.setup_ids: list[int] = []
        self.setup_s: list[float] = []

    def _new_id(self, key: str) -> int:
        self.item_keys.append(key)
        if self.tracer is not None:
            self.tracer.item_id = len(self.item_keys) - 1
        return len(self.item_keys) - 1

    @contextlib.contextmanager
    def _traced(self):
        """Wrap the trace targets while the block runs (no-op untraced)."""
        if self.tracer is None:
            yield
            return
        attninv = self.namespaces[0]
        self.tracer.install(self.namespaces, {(getattr(attninv, m), fn): name
                                              for m, fn, name in TRACE_TARGETS})
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.tracer.item_id = -1

    def setup(self):
        """Set up SETUP_REPEATS times.  One set-up is a fresh interpreter
        importing numpy and attninv (timed from spawn to exit), then the
        workload's files and step sizes, made in this process."""
        with self._traced():
            for k in range(SETUP_REPEATS):
                token = self.sampler.begin()
                subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               check=True)
                self.setup_ids.append(self._new_id(f"setup#{k}"))
                items = self.workloads.setup(self.args.workload, self.args.seed,
                                             str(self.work))
                self.sampler.end(token)
        return items

    def run_pass(self, items) -> Pass:
        for it in items:
            if it.out_dir is not None:
                shutil.rmtree(it.out_dir, ignore_errors=True)
        results, ids = [], []
        start = time.perf_counter()
        for it in items:
            ids.append(self._new_id(it.key))
            out = io.StringIO()
            token = self.sampler.begin()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(list(it.argv))
                error = None
            except Exception as exc:  # a crashed item is a failed item
                code, error = None, repr(exc)
            self.sampler.end(token)
            results.append((code, out.getvalue(), error))
        if self.tracer is not None:
            self.tracer.item_id = -1
        p = Pass(ids, time.perf_counter() - start)
        for it, (code, stdout, error) in zip(items, results):
            if error is not None:
                p.outcomes.append(self.workloads.Outcome(False, f"raised {error}", ""))
            else:
                p.outcomes.append(self.workloads.judge(it, code, stdout))
        return p

    def timed_phase(self, items):
        """Untraced: passes until the next one would overrun --seconds.
        Traced: one untraced pass, then traced passes by the same rule."""
        seconds = self.args.seconds
        begin = time.perf_counter()
        untraced: list[Pass] = []
        traced: list[Pass] = []
        if self.tracer is None:
            while not untraced or (time.perf_counter() - begin
                                   + max(p.wall_s for p in untraced) <= seconds):
                untraced.append(self.run_pass(items))
        else:
            untraced.append(self.run_pass(items))
            with self._traced():
                while not traced or (time.perf_counter() - begin
                                     + max(p.wall_s for p in traced) <= seconds):
                    traced.append(self.run_pass(items))
        return untraced, traced

    def apply_speed(self, passes) -> None:
        """Convert every set-up and item to reference seconds; call once the
        sampler has stopped."""
        ref = self.sampler.rescale()
        if len(ref) != len(self.item_keys):
            raise RuntimeError("timed intervals and item ids out of step")
        self.factors = [f for _, f in ref]
        self.setup_s = [ref[i][0] for i in self.setup_ids]
        for p in passes:
            p.item_s = [ref[i][0] for i in p.item_ids]


def mark_nondeterminism(passes, items, counts=None):
    """Fail every item whose outputs (or traced call counts) differ from
    its first run in this process."""
    ref = passes[0]
    for k, p in enumerate(passes[1:], start=1):
        for i, item in enumerate(items):
            same = p.outcomes[i].digest == ref.outcomes[i].digest
            if counts is not None:
                same = same and (counts[k][i] == counts[0][i]).all()
            if not same and p.outcomes[i].ok:
                p.outcomes[i] = replace(p.outcomes[i], ok=False, detail=(
                    f"{item.key}: outputs or call counts differ from the first pass"))


def end_to_end_metrics(setup_s, passes, spans):
    item_s = [t for p in passes for t in p.item_s]
    p50, _, samples = spans.summary(item_s)
    values = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(p.run_s for p in passes),
        "item_s_p50": p50,
        "item_s_max": statistics.median(max(p.item_s) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"item_s_p50.samples": samples, "passes": len(passes)}


def per_layer_metrics(bench: Bench, cols, untraced, traced):
    import numpy as np

    spans, tracer = bench.spans, bench.tracer
    names = tracer.names
    selfs = spans.self_times(cols["parent"], cols["start"], cols["end"])
    # Each span's times in reference seconds, by the factor of its item.
    scale = np.asarray(bench.factors)[cols["item"]]
    per_pass = []
    for p in traced:
        stats, loss_parents = spans.layer_stats(names, cols, p.item_ids, selfs, scale)
        newton = [o for o in p.outcomes if o.newton]
        newton_iters = sum(o.iterations for o in newton)
        accepted = sum(o.accepted for o in newton)
        probes = loss_parents.get("solver.newton_solve", 0) - newton_iters
        cholesky = stats["solver.cholesky"]["calls"]
        v = {}
        for s in SPAN_CALLS_AND_SELF:
            v[f"{s}.calls"] = stats[s]["calls"]
        for s in SPAN_CALLS_AND_SELF + SPAN_SELF:
            v[f"{s}.self_s"] = stats[s]["self_s"]
        v["oracle.probes"] = (loss_parents.get("oracle.fd_grad", 0)
                              + loss_parents.get("oracle.fd_hessian", 0))
        v["solver.iterations"] = sum(o.iterations for o in p.outcomes)
        v["solver.cholesky.calls"] = cholesky
        v["solver.cholesky_accept_ratio"] = accepted / cholesky if cholesky else 0.0
        v["solver.linesearch_probes"] = probes
        v["solver.linesearch_accept_ratio"] = accepted / probes if probes else 0.0
        v["iojson.bytes_written"] = sum(o.bytes_written for o in p.outcomes)
        per_pass.append(v)
    # Counts repeat exactly (checked per item); times are medians over passes.
    values = {k: (statistics.median(v[k] for v in per_pass)
                  if isinstance(per_pass[0][k], float) else per_pass[0][k])
              for k in per_pass[0]}
    setup_stats = [spans.layer_stats(names, cols, [i], selfs, scale)[0]
                   for i in bench.setup_ids]
    values["generate.make_instance.self_s"] = statistics.median(
        s["generate.make_instance"]["self_s"] for s in setup_stats)
    traced_run_s = statistics.median(p.run_s for p in traced)
    values["trace.overhead_s"] = traced_run_s - statistics.median(
        p.run_s for p in untraced)
    shares: dict[str, float] = {}
    for k, v in values.items():
        if k.endswith(".self_s") and not k.startswith("generate."):
            layer = k.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + v / traced_run_s
    first, _ = spans.layer_stats(names, cols, traced[0].item_ids, selfs, scale)
    info = {"traced_run_s": traced_run_s, "traced_passes": len(traced),
            "spans": len(tracer), "layer_share_of_traced_run_s": shares,
            "inclusive_share_of_first_traced_pass": {
                k: v["total_s"] / traced[0].run_s for k, v in first.items()}}
    return values, info


def main(argv=None) -> int:
    if not (ROOT / "src" / "attninv" / "__init__.py").is_file():
        print(f"error: no attninv package under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import attninv
    import attninv.cli as cli
    if not Path(attninv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported attninv from {attninv.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import calibrate
    import spans
    import workloads

    bench = Bench(args, attninv, cli, workloads, spans, calibrate)
    try:
        with bench.sampler:
            items = bench.setup()
            untraced, traced = bench.timed_phase(items)
        bench.apply_speed(untraced + traced)
        mark_nondeterminism(untraced + traced, items)
        if traced:
            cols = bench.tracer.columns()
            mark_nondeterminism(traced, items, [
                spans.call_matrix(cols, p.item_ids, len(bench.tracer.names))
                for p in traced])
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    passes = untraced + traced
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    env = environment(np, args.seed)
    e2e, e2e_info = end_to_end_metrics(bench.setup_s, untraced, spans)
    details = {"workload": args.workload, "seconds": args.seconds,
               "trace": args.trace, "env": env,
               "setup_s": bench.setup_s, "pass_run_s": [p.run_s for p in passes],
               "pass_wall_s": [p.wall_s for p in passes],
               "speed_factors": bench.factors,
               "fail_ratio": failed / attempted, **e2e_info,
               "end_to_end": e2e,
               "failures": sorted({o.detail for o in outcomes if not o.ok}),
               "items": [{"key": it.key, "item_s": [p.item_s[i] for p in passes],
                          "iterations": passes[0].outcomes[i].iterations,
                          "detail": passes[0].outcomes[i].detail}
                         for i, it in enumerate(items)]}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        values, info = per_layer_metrics(bench, cols, untraced, traced)
        details.update(per_layer=values, **info)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        np.savez(OUT / f"spans-{args.workload}.npz", names=np.array(bench.tracer.names),
                 item_keys=np.array(bench.item_keys), **cols)
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(details, indent=1) + "\n")

    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload}: {len(passes)} passes, attempted {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted:.4g}, "
          f"item_s_p50 samples {e2e_info['item_s_p50.samples']}")
    for msg in details["failures"]:
        print(f"# failure: {msg}")
    if args.trace:
        print("# layer share of traced run_s: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(details["layer_share_of_traced_run_s"]
                                              .items(), key=lambda kv: -kv[1])))
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(f"# details: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
