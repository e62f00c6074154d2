"""Unit tests of the benchmark's own arithmetic and gates.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import types

import numpy as np
import pytest

import calibrate
import run
import spans
import workloads

# Hand-built span tree (single thread, so children never overlap):
#   0 root  [0, 10]
#   1   a   [1, 4]
#   2   b   [5, 9]
#   3     c [6, 7]
#   4 d     [11, 12]   second top-level span, another item
TREE = {
    "name": np.array([0, 1, 1, 2, 3], dtype=np.int32),
    "parent": np.array([-1, 0, 0, 2, -1], dtype=np.int32),
    "item": np.array([7, 7, 7, 7, 8], dtype=np.int32),
    "start": np.array([0.0, 1.0, 5.0, 6.0, 11.0]),
    "end": np.array([10.0, 4.0, 9.0, 7.0, 12.0]),
}
TREE_NAMES = ["cli", "model.loss", "solver.newton_solve", "gradient.grad_c"]


def test_summary_reports_median_max_and_count():
    assert spans.summary([3.0, 1.0, 2.0, 10.0]) == (2.5, 10.0, 4)
    assert spans.summary([4.0]) == (4.0, 4.0, 1)
    with pytest.raises(ValueError):
        spans.summary([])


def test_sampler_rescales_by_the_probes_near_an_interval():
    sampler = calibrate.Sampler()
    ref = calibrate.REF_S
    w = calibrate.WINDOW_S
    # probes at 1.0 (inside) and 1.0 + w (within the window) of duration
    # 2*ref and 4*ref; one far away that must not count
    for mid, dur in ((1.0, 2 * ref), (1.0 + w, 4 * ref), (50.0, 100 * ref)):
        sampler.mid.append(mid)
        sampler.dur.append(dur)
    sampler.intervals.append((0.5, 1.5, 0, 1))  # wall 1.0, first probe inside
    (ref_s, factor), = sampler.rescale()
    assert factor == pytest.approx(1.0 / 3.0)
    assert ref_s == pytest.approx((1.0 - 2 * ref) / 3.0)


def test_self_time_subtracts_direct_children_only():
    got = spans.self_times(TREE["parent"], TREE["start"], TREE["end"])
    np.testing.assert_allclose(got, [10 - 3 - 4, 3, 4 - 1, 1, 1])


def test_layer_stats_sums_self_time_per_name_and_item():
    selfs = spans.self_times(TREE["parent"], TREE["start"], TREE["end"])
    ones = np.ones(len(selfs))
    stats, loss_parents = spans.layer_stats(TREE_NAMES, TREE, [7], selfs, ones)
    assert stats["cli"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert stats["model.loss"] == {"calls": 2, "self_s": 6.0, "total_s": 7.0}
    assert stats["solver.newton_solve"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert stats["gradient.grad_c"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    assert loss_parents == {"cli": 2}
    stats, _ = spans.layer_stats(TREE_NAMES, TREE, [8], selfs, 2.0 * ones)
    assert stats["gradient.grad_c"] == {"calls": 1, "self_s": 2.0, "total_s": 2.0}
    # a loss span directly under another loss span adds to the calls and
    # self time, but its duration is already inside its caller's
    nested = {**TREE, "name": np.array([0, 1, 1, 1, 3], dtype=np.int32)}
    stats, _ = spans.layer_stats(TREE_NAMES, nested, [7], selfs, ones)
    assert stats["model.loss"] == {"calls": 3, "self_s": 7.0, "total_s": 7.0}


def test_call_matrix_rows_follow_item_order():
    m = spans.call_matrix(TREE, [8, 7], len(TREE_NAMES))
    np.testing.assert_array_equal(m, [[0, 0, 0, 1], [1, 2, 1, 0]])


def test_tracer_wraps_every_binding_and_restores():
    inner = types.ModuleType("inner")
    outer = types.ModuleType("outer")

    def leaf(x):
        return x + 1

    inner.leaf = leaf
    outer.leaf = leaf  # a second binding, as ``from .inner import leaf``
    outer.top = lambda x: outer.leaf(x) * 2
    tracer = spans.Tracer()
    tracer.install([inner, outer], {(inner, "leaf"): "inner.leaf",
                                    (outer, "top"): "outer.top"})
    tracer.item_id = 3
    assert outer.top(1) == 4 and inner.leaf(1) == 2
    tracer.uninstall()
    assert inner.leaf is leaf and outer.leaf is leaf
    cols = tracer.columns()
    assert [tracer.names[i] for i in cols["name"]] == ["outer.top", "inner.leaf",
                                                       "inner.leaf"]
    np.testing.assert_array_equal(cols["parent"], [-1, 0, -1])
    np.testing.assert_array_equal(cols["item"], [3, 3, 3])
    assert (cols["end"] >= cols["start"]).all()


def test_newton_gate():
    good = {"status": "Converged", "final_loss": 1e-20}
    assert workloads.newton_ok(good)
    assert not workloads.newton_ok({**good, "final_loss": 1.0})
    assert not workloads.newton_ok({**good, "status": "MaxIter"})
    assert not workloads.newton_ok({})


def test_gd_gate():
    assert workloads.gd_ok({"status": "MaxIter", "final_loss": 1e-9})
    assert not workloads.gd_ok({"status": "MaxIter", "final_loss": 1.0})
    assert not workloads.gd_ok({"status": "NumericalFailure", "final_loss": 1e-12})


def test_certify_gate():
    good = {"pass": True, "results": [{"check": "a", "pass": True},
                                      {"check": "b", "pass": True}]}
    assert workloads.certify_ok(0, good)
    bad = {"pass": True, "results": [{"check": "a", "pass": True},
                                     {"check": "b", "pass": False}]}
    assert not workloads.certify_ok(0, bad)
    assert not workloads.certify_ok(1, good)
    assert not workloads.certify_ok(0, {"pass": True, "results": []})


def _solve_item(tmp_path, meta, records):
    out = tmp_path / "run"
    out.mkdir()
    lines = [json.dumps({"meta": meta})] + [json.dumps(r) for r in records]
    (out / "run.jsonl").write_text("\n".join(lines) + "\n")
    (out / "x_out.json").write_text('{"rows": 1, "cols": 1, "data": [0.5]}\n')
    return workloads.Item("k", ("solve",), str(out))


def test_judge_flags_a_wrong_loss(tmp_path):
    records = [{"iter": 0, "loss": 1.0, "grad_norm": 1.0, "step_norm": 0.5,
                "damping_used": 0.0},
               {"iter": 1, "loss": 1.0, "grad_norm": 0.0, "step_norm": 0.0,
                "damping_used": 0.0}]
    item = _solve_item(tmp_path, {"solver": "newton", "status": "Converged",
                                  "iterations": 2, "final_loss": 1.0}, records)
    o = workloads.judge(item, 0, "")
    assert not o.ok
    assert (o.iterations, o.accepted, o.newton) == (2, 1, True)
    assert o.bytes_written > 0


def test_judge_flags_a_failed_check_record():
    report = {"pass": False, "results": [{"check": "grad_L_vs_fd", "pass": False}]}
    item = workloads.Item("4x3", ("check",), None)
    o = workloads.judge(item, 1, json.dumps(report))
    assert not o.ok and "grad_L_vs_fd" in o.detail
    assert not workloads.judge(item, 0, "Traceback").ok


def test_nondeterministic_output_counts_as_failure():
    ok = workloads.Outcome(True, "", "aaa")
    items = [workloads.Item("k", (), None)]
    passes = [run.Pass([0], 1.0, [ok]),
              run.Pass([1], 1.0, [workloads.Outcome(True, "", "bbb")])]
    run.mark_nondeterminism(passes, items)
    assert passes[0].outcomes[0].ok and not passes[1].outcomes[0].ok


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
