import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affine_spectra import (
    Coding,
    ae_exponent_sample,
    almost_everywhere_exponent,
    check_derivative,
    default_scales,
    derivative_series,
    errors,
    estimate_exponent,
    oracle,
    parse_preset,
    project,
)
from conftest import random_polygon_system

SKEW = "skew-takagi:0.3,0.5,0.25"


def test_default_scales():
    scales = default_scales()
    assert scales[0] == 2.0 ** -8 and scales[-1] == 2.0 ** -24
    assert len(scales) == 17
    assert all(b < a for a, b in zip(scales, scales[1:]))


# ---------------------------------------------------------- oscillation slopes

def test_estimate_takagi(make_system):
    tak, _ = make_system("takagi:0.5")
    est = estimate_exponent(tak, 1.0 / 3.0)
    assert not est.subtracted
    assert est.slope == pytest.approx(0.5, abs=0.05)
    assert est.r2 >= 0.98


def test_estimate_shear_free_zero_derivative(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    x = project(rn, Coding(period=(1, 2)))
    est = estimate_exponent(rn, x, derivative=0.0)
    assert est.subtracted
    assert est.slope == pytest.approx(1.125769383497982, abs=0.01)
    assert est.r2 >= 0.99


def test_estimate_needs_subtraction_above_one(make_system):
    skew, _ = make_system(SKEW)
    coding = Coding(period=(1, 2))
    x = project(skew, coding)
    gamma = (math.log(0.25) + math.log(0.25)) / (math.log(0.3) + math.log(0.7))
    deriv = derivative_series(skew, coding)
    raw = estimate_exponent(skew, x)
    assert raw.slope == pytest.approx(1.0, abs=0.1)  # drift term wins
    sub = estimate_exponent(skew, x, derivative=deriv)
    assert sub.slope == pytest.approx(gamma, abs=0.05)
    assert sub.r2 >= 0.98


def test_estimate_sides(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    for side in ("right", "left", "both"):
        est = estimate_exponent(rn, 0.5, side=side, derivative=0.0)
        assert est.side == side
        assert len(est.scales) == len(est.oscillations)
    with pytest.raises(errors.DegenerateWindow):
        estimate_exponent(rn, 1.0, side="right")
    with pytest.raises(errors.DegenerateWindow):
        estimate_exponent(rn, 0.0, side="left")


def test_estimate_flat_piece_is_infinitely_smooth(make_system):
    ok, _ = make_system("okamoto:0.5")
    est = estimate_exponent(ok, 0.5)
    assert est.slope == math.inf
    assert est.intercept == -math.inf
    assert est.r2 == 1.0


# ---------------------------------------------------------- difference quotients

def test_check_derivative_antiderivative(make_system):
    from affine_spectra import antiderivative_system
    rn, _ = make_system("riesz-nagy:0.3")
    anti = antiderivative_system(rn)
    hs = [2.0 ** -k for k in range(10, 27, 2)]
    chk = check_derivative(anti, 0.5, hs, 0.3, side="both")
    assert chk.final_step == hs[-1]
    assert chk.final_discrepancy < 1e-3
    assert len(chk.quotients) == len(hs)
    wrong = check_derivative(anti, 0.5, hs, 0.5, side="both")
    assert wrong.final_discrepancy > 0.1
    with pytest.raises(errors.NotDifferentiable):
        check_derivative(anti, 0.5, hs, None)


def test_check_derivative_one_sided(make_system):
    skew, _ = make_system(SKEW)
    hs = [2.0 ** -k for k in range(10, 25, 2)]
    # remainder ~ h^1.89 on the left: quotients are already at machine noise
    left = check_derivative(skew, 0.3, hs, 20.0 / 27.0, side="left")
    assert left.final_discrepancy < 1e-6
    # remainder ~ h^0.15 on the right: only the trend is testable
    right = check_derivative(skew, 0.3, hs, 20.0 / 7.0, side="right")
    assert np.all(np.diff(right.discrepancies) < 0.0)
    assert right.final_discrepancy < 0.4 * right.discrepancies[0]
    # swapping the sides must break the agreement
    swapped = check_derivative(skew, 0.3, hs, 20.0 / 27.0, side="right")
    assert swapped.final_discrepancy > 1.0


# ------------------------------------------------------------ generic exponent

def test_ae_expected_values(make_system):
    for a, want in ((0.2, 1.321928094887362), (0.3, 1.125769383497982),
                    (0.4, 1.029446844526784)):
        system, _ = make_system(f"riesz-nagy:{a}")
        assert almost_everywhere_exponent(system) == pytest.approx(want,
                                                                   abs=1e-12)
    ok, _ = make_system("okamoto:0.5")
    assert almost_everywhere_exponent(ok) == math.inf


def test_ae_sample_takagi(make_system):
    tak, _ = make_system("takagi:0.5")
    s = ae_exponent_sample(tak, 400, 4000, seed=1)
    assert s.expected == pytest.approx(0.5, abs=1e-12)
    assert s.fraction_finite == 1.0
    assert abs(s.median - 0.5) < 0.02
    assert len(s.values) == 400
    assert len(s.deciles) == 9
    assert all(b >= a for a, b in zip(s.deciles, s.deciles[1:]))
    again = ae_exponent_sample(tak, 400, 4000, seed=1)
    assert again.median == s.median


def test_ae_sample_flat_branch(make_system):
    ok, _ = make_system("okamoto:0.5")
    s = ae_exponent_sample(ok, 64, 4000, seed=0)
    assert s.expected == math.inf
    assert s.fraction_finite == 0.0
    assert s.median == math.inf


def test_ae_sample_guard(make_system):
    tak, _ = make_system("takagi:0.5")
    with pytest.raises(errors.HorizonTooSmall):
        ae_exponent_sample(tak, 16, 3, seed=0)


def _ae_values_reference(system, n_points, horizon, seed):
    """The sampler as it was before streaming: 4e6-digit chunks, searchsorted
    digits and two float64 cumsums.  Returns (values, median, deciles,
    fraction_finite)."""
    rng = np.random.default_rng(seed)
    a = np.asarray(system.a)
    cum = np.cumsum(a)
    cum[-1] = 1.0
    # the branch logs every layer reads: math.log, -inf where d = 0
    logd = np.array([math.log(abs(dk)) if dk else -math.inf for dk in system.d])
    loga = np.array([math.log(ak) for ak in system.a])
    zero_ids = np.array([k - 1 for k in sorted(system.index_zero)], dtype=np.int64)
    h0 = max(1, horizon // 2)

    values = np.empty(n_points)
    chunk = max(1, int(4_000_000 // horizon))
    for start in range(0, n_points, chunk):
        m = min(chunk, n_points - start)
        digits = np.searchsorted(cum, rng.random((m, horizon)), side="right")
        num = np.cumsum(logd[digits], axis=1)
        den = np.cumsum(loga[digits], axis=1)
        vals = (num[:, h0 - 1:] / den[:, h0 - 1:]).min(axis=1)
        if zero_ids.size:
            vals[np.isin(digits, zero_ids).any(axis=1)] = np.inf
        values[start:start + m] = vals

    finite = np.isfinite(values)
    deciles = tuple(float(v) for v in
                    np.percentile(values, range(10, 100, 10), method="lower"))
    median = float(np.percentile(values, 50, method="lower")) \
        if not finite.all() else float(np.median(values))
    return values, median, deciles, float(finite.mean())


def _assert_matches_reference(system, n_points, horizon, seed):
    s = ae_exponent_sample(system, n_points, horizon, seed)
    values, median, deciles, fraction_finite = _ae_values_reference(
        system, n_points, horizon, seed)
    assert s.values.tobytes() == values.tobytes()
    assert s.median == median
    assert s.deciles == deciles
    assert s.fraction_finite == fraction_finite


@given(sys_seed=st.integers(0, 10 ** 9), n_points=st.integers(1, 50),
       horizon=st.integers(4, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_ae_sample_matches_chunked_reference(sys_seed, n_points, horizon,
                                             seed):
    system = random_polygon_system(np.random.default_rng(sys_seed),
                                   allow_zero=True)
    _assert_matches_reference(system, n_points, horizon, seed)


def test_ae_sample_horizon_beyond_block(make_system):
    # one row per block, and that row longer than the block budget
    for name in ("riesz-nagy:0.3", "okamoto:0.5"):
        system, _ = make_system(name)
        _assert_matches_reference(system, 3, oracle._AE_BLOCK + 7, seed=2)


def test_ae_sample_memory_does_not_grow_with_points():
    system = parse_preset("riesz-nagy:0.3")
    tracemalloc.start()
    try:
        ae_exponent_sample(system, 1000, 10000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
