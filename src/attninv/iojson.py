"""File formats: JSON matrices, problem specs, and JSONL run logs.

Matrices, problems and records write floats with 17 significant digits,
and a matrix writes negative zero as -0.0 (-0 would parse as the integer
0); the meta line goes through json.dumps. Both read every finite double
back bit-exactly, but for the sign of a zero gamma, and keep artifacts
byte-reproducible.
Run logs persist every RunRecord field; records carry no timings, which
would break byte-identity of repeated runs.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .model import ProblemSpec
from .solver import RunRecord


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("artifacts may only contain finite numbers")
    return format(float(x), ".17g")


def matrix_to_json(M: np.ndarray) -> str:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    data = ", ".join("-0.0" if s == "-0" else s for s in map(format_float, M.reshape(-1)))
    return f'{{"rows": {M.shape[0]}, "cols": {M.shape[1]}, "data": [{data}]}}'


def _json(value, what: str, *types):
    """value if its type is exactly one of types (so a bool is no int),
    else ValueError."""
    if type(value) not in types:
        raise ValueError(f"{what} is of type {type(value).__name__}, not "
                         + " or ".join(t.__name__ for t in types))
    return value


def matrix_from_obj(obj) -> np.ndarray:
    rows, cols = _json(obj["rows"], "rows", int), _json(obj["cols"], "cols", int)
    # a float array of JSON numbers; an integer beyond the float range
    # raises OverflowError
    data = np.array([_json(v, "a data entry", int, float)
                     for v in _json(obj["data"], "data", list)], dtype=float)
    if data.size != rows * cols:
        raise ValueError(f"matrix data length {data.size} != {rows}*{cols}")
    return data.reshape(rows, cols)


def write_matrix(M: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write(matrix_to_json(M) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_obj(json.load(fh))


def problem_to_json(spec: ProblemSpec) -> str:
    parts = [
        f'"n": {spec.n}',
        f'"d": {spec.d}',
        f'"W": {matrix_to_json(spec.W)}',
        f'"V": {matrix_to_json(spec.V)}',
        f'"B": {matrix_to_json(spec.B)}',
        f'"gamma": {format_float(spec.gamma)}',
    ]
    return "{" + ", ".join(parts) + "}"


def write_problem(spec: ProblemSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(problem_to_json(spec) + "\n")


def read_problem(path) -> ProblemSpec:
    with open(path) as fh:
        obj = json.load(fh)
    return ProblemSpec(
        n=_json(obj["n"], "n", int),
        d=_json(obj["d"], "d", int),
        W=matrix_from_obj(obj["W"]),
        V=matrix_from_obj(obj["V"]),
        B=matrix_from_obj(obj["B"]),
        gamma=float(_json(obj["gamma"], "gamma", int, float)),
    )


_RECORD = ('{"iter": %d, "loss": %.17g, "grad_norm": %.17g, '
           '"step_norm": %.17g, "damping_used": %.17g}')


def record_to_json(rec: RunRecord) -> str:
    """One run-log line, each float as format_float writes it (%.17g is
    the same conversion, filled in by one template)."""
    if not all(map(math.isfinite, rec)):
        raise ValueError("artifacts may only contain finite numbers")
    return _RECORD % rec


def write_run_log(path, records, meta: dict) -> None:
    """JSONL run log: a leading meta object, then one record per iteration."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def read_run_log(path):
    """Parse a run log into (meta, records, skipped) where records are
    dicts and skipped counts malformed lines: not a JSON object, a meta
    that is not an object, or neither meta nor record."""
    meta = {}
    records = []
    skipped = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):  # not JSON, an int too long, too deep
                obj = None
            if isinstance(obj, dict) and isinstance(obj.get("meta"), dict):
                meta = obj["meta"]
            elif isinstance(obj, dict) and "iter" in obj and "meta" not in obj:
                records.append(obj)
            else:
                skipped += 1
    return meta, records, skipped
