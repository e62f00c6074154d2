"""In-memory span recording for the traced run, and the arithmetic that
turns spans into per-layer counts and self times.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span (-1 at
the top) and the id of the benchmark item it ran for.  Spans are stored
column-wise in ``array`` buffers so that a few hundred thousand of them
per pass stay cheap to record and to hold.
"""
from __future__ import annotations

import functools
import statistics
import time
from array import array

import numpy as np


def summary(values):
    """(median, max, sample count) of a non-empty sequence of numbers."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    return statistics.median(values), max(values), len(values)


def self_times(parent, start, end) -> np.ndarray:
    """Self time of every span: its duration minus the durations of its
    direct children.

    The program is single-threaded, so the children of a span never
    overlap and their summed durations are exactly the part of the parent
    interval they cover.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


class Tracer:
    """Records a span around every call of the functions it wraps.

    ``install`` swaps a wrapper in for each target function in every
    module namespace that binds it (``from .gradient import grad_c`` in
    ``hessian`` is a second binding of ``gradient.grad_c``), and
    ``uninstall`` puts the originals back.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.item_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn):
        nid = self.name_id(span_name)
        names, parents, items = self.name, self.parent, self.item
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.item_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, namespaces, targets) -> None:
        """Wrap each ``(module, attribute) -> span name`` target in every
        namespace of ``namespaces`` that binds the same function object."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for (module, attr), span_name in targets.items():
            original = getattr(module, attr)
            wrapper = self.wrap(span_name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }


def call_matrix(cols: dict[str, np.ndarray], items, n_names: int) -> np.ndarray:
    """Calls of each span name (columns) made for each item id of
    ``items`` (rows, in the given order)."""
    items = np.asarray(items, dtype=np.int64)
    order = np.argsort(items)
    mask = np.isin(cols["item"], items)
    rows = order[np.searchsorted(items[order], cols["item"][mask])]
    flat = np.bincount(rows * n_names + cols["name"][mask],
                       minlength=len(items) * n_names)
    return flat.reshape(len(items), n_names)


def layer_stats(names: list[str], cols: dict[str, np.ndarray], items,
                selfs: np.ndarray, scale: np.ndarray) -> tuple[dict, dict]:
    """Per span name, the call count, summed self time and summed
    (inclusive) duration over the spans whose item id is in ``items``,
    with each span's times multiplied by its entry of ``scale``; and the
    number of ``model.loss`` spans under each parent span name
    (line-search and finite-difference probes are loss calls made directly
    by the solver or the oracle)."""
    mask = np.isin(cols["item"], np.asarray(items, dtype=np.int64))
    calls = np.bincount(cols["name"][mask], minlength=len(names))
    busy = np.bincount(cols["name"][mask], weights=(selfs * scale)[mask],
                       minlength=len(names))
    # Summed duration counts a call made directly by a span of the same
    # name (block_case3 calling block_case2) only once, inside its caller.
    outer = mask & ((cols["parent"] < 0)
                    | (cols["name"][np.maximum(cols["parent"], 0)] != cols["name"]))
    dur = (cols["end"] - cols["start"]) * scale
    total = np.bincount(cols["name"][outer], weights=dur[outer], minlength=len(names))
    stats = {name: {"calls": int(calls[i]), "self_s": float(busy[i]),
                    "total_s": float(total[i])}
             for i, name in enumerate(names)}
    loss_parents: dict[str, int] = {}
    if "model.loss" in names:
        parents = cols["parent"][mask & (cols["name"] == names.index("model.loss"))]
        for p in parents[parents >= 0]:
            key = names[cols["name"][p]]
            loss_parents[key] = loss_parents.get(key, 0) + 1
    return stats, loss_parents
