import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attninv.generate import (SplitMix64, bounded_instance, make_instance, perturbed_start,
                              random_matrix, rescale_spectral)
from attninv.iojson import (
    format_float,
    matrix_from_obj,
    matrix_to_json,
    problem_to_json,
    read_matrix,
    read_problem,
    read_run_log,
    record_to_json,
    write_matrix,
    write_problem,
    write_run_log,
)
from attninv.model import loss
from attninv.solver import RunRecord


def test_splitmix_known_stream():
    # reference values for seed 0 (first three outputs of the update rule)
    gen = SplitMix64(0)
    assert gen.next_u64() == 16294208416658607535
    assert gen.next_u64() == 7960286522194355700
    assert gen.next_u64() == 487617019471545679


def test_splitmix_floats_in_unit_interval():
    gen = SplitMix64(123)
    vals = [gen.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_random_matrix_row_major_order():
    a = random_matrix(SplitMix64(7), 2, 3)
    gen = SplitMix64(7)
    flat = [gen.uniform(-0.5, 0.5) for _ in range(6)]
    assert np.array_equal(a, np.array(flat).reshape(2, 3))


def test_make_instance_determinism_and_bounds():
    a_spec, a_x = make_instance(5, 4, 3)
    b_spec, b_x = make_instance(5, 4, 3)
    assert np.array_equal(a_x, b_x)
    assert np.array_equal(a_spec.B, b_spec.B)
    assert np.linalg.norm(a_x, 2) <= 1.2 + 1e-12
    assert np.linalg.norm(a_spec.W, 2) <= 1.2 + 1e-12
    assert loss(a_spec, a_x) <= 1e-20


@pytest.mark.parametrize("limit", [-1.0, 0.0, float("nan"), float("inf")])
def test_spectral_limit_must_be_finite_and_positive(limit):
    # -1 used to negate the matrix; nan and inf left it unscaled
    with pytest.raises(ValueError, match="finite and positive"):
        rescale_spectral(np.ones((2, 2)), limit)
    with pytest.raises(ValueError, match="finite and positive"):
        make_instance(0, 3, 2, r_target=limit)
    with pytest.raises(ValueError, match="finite and positive"):
        bounded_instance(0, 3, 2, r_target=limit)


def test_bounded_instance_draw_order_and_bounds():
    spec, X = bounded_instance(4, 3, 2, r_target=0.9)
    gen = SplitMix64(4)
    X_ref = rescale_spectral(random_matrix(gen, 2, 3), 0.9)
    W_ref = rescale_spectral(random_matrix(gen, 2, 2), 0.9)
    V_ref = rescale_spectral(random_matrix(gen, 2, 2), 0.9)
    B_ref = random_matrix(gen, 3, 2, -(0.9 ** 2), 0.9 ** 2)
    assert np.array_equal(X, X_ref)
    assert np.array_equal(spec.W, W_ref) and np.array_equal(spec.V, V_ref)
    assert np.array_equal(spec.B, B_ref)
    assert spec.gamma == 0.0
    assert np.abs(spec.B).max() <= 0.9 ** 2


def test_perturbed_start_radius():
    _, x = make_instance(1, 3, 2)
    X0 = perturbed_start(x, 0.01, 3)
    assert np.linalg.norm(X0 - x) == pytest.approx(0.01, rel=1e-12)
    assert np.array_equal(perturbed_start(x, 0.0, 3), x)
    for radius in (-0.01, float("nan")):
        with pytest.raises(ValueError, match="radius"):
            perturbed_start(x, radius, 3)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_matrix_roundtrip_bit_exact(seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(scale=rng.uniform(1e-12, 1e12), size=(3, 2))
    obj = json.loads(matrix_to_json(M))
    assert np.array_equal(matrix_from_obj(obj), M)


def test_matrix_file_roundtrip_keeps_signed_zero_and_extremes(tmp_path):
    M = np.array([[-0.0, 0.0], [5e-324, -1.7976931348623157e308]])
    path = tmp_path / "m.json"
    write_matrix(M, path)
    assert read_matrix(path).tobytes() == M.tobytes()


def test_problem_file_roundtrip(tmp_path):
    spec, x = make_instance(0, 3, 2)
    spec = spec.with_gamma(0.25)
    p = tmp_path / "problem.json"
    write_problem(spec, p)
    loaded = read_problem(p)
    assert loaded.n == spec.n and loaded.d == spec.d
    assert np.array_equal(loaded.W, spec.W)
    assert np.array_equal(loaded.V, spec.V)
    assert np.array_equal(loaded.B, spec.B)
    assert loaded.gamma == spec.gamma

    m = tmp_path / "x.json"
    write_matrix(x, m)
    assert np.array_equal(read_matrix(m), x)


def test_problem_json_is_stable_text():
    spec, _ = make_instance(0, 2, 2)
    assert problem_to_json(spec) == problem_to_json(spec)


def test_run_log_roundtrip_and_malformed_lines(tmp_path):
    recs = [RunRecord(0, 1.0, 0.5, 0.1, 0.0),
            RunRecord(1, 0.25, 0.1, 0.05, 1e-4)]
    p = tmp_path / "run.jsonl"
    write_run_log(p, recs, meta={"solver": "newton"})
    with open(p, "a") as fh:
        fh.write("not json\n")
        fh.write('{"unrelated": true}\n')
    meta, records, skipped = read_run_log(p)
    assert meta == {"solver": "newton"}
    assert len(records) == 2
    assert skipped == 2
    # every RunRecord field is persisted, and nothing else
    assert set(records[0]) == {"iter", "loss", "grad_norm", "step_norm",
                               "damping_used"}
    assert records[1]["loss"] == 0.25


@pytest.mark.parametrize("rec", [
    RunRecord(0, 1.0, 0.5, 0.1, 0.0),
    RunRecord(17, 1.0709265864744628e-23, -0.0, 5e-324, 1e8),
    RunRecord(3, np.float64(0.1), np.float64(1e300), 2.0 / 3.0, 1e-4),
])
def test_record_line_writes_each_float_as_format_float(rec):
    fields = ("iter", "loss", "grad_norm", "step_norm", "damping_used")
    expected = "{" + ", ".join(
        f'"{name}": {rec.iter if name == "iter" else format_float(getattr(rec, name))}'
        for name in fields) + "}"
    assert record_to_json(rec) == expected
    assert json.loads(expected) == {name: getattr(rec, name) for name in fields}


@pytest.mark.parametrize("field", ["loss", "grad_norm", "step_norm", "damping_used"])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_record_line_refuses_non_finite_fields(field, bad):
    values = {"iter": 2, "loss": 1.0, "grad_norm": 0.5, "step_norm": 0.1,
              "damping_used": 0.0, field: bad}
    with pytest.raises(ValueError, match="finite"):
        record_to_json(RunRecord(**values))


def test_run_log_non_objects_are_malformed(tmp_path):
    p = tmp_path / "run.jsonl"
    p.write_text('{"meta": {"solver": "gd"}}\n{"meta": [1]}\n{"meta": null}\n'
                 '1\n"meta"\n[1]\n{"iter": 0, "meta": 1}\n{"iter": 0}\n'
                 + "[" * 100000 + "\n")
    meta, records, skipped = read_run_log(p)
    assert meta == {"solver": "gd"}
    assert records == [{"iter": 0}]
    assert skipped == 7
