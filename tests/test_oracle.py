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
    evaluate_many,
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


_PRESETS = ("takagi:0.5", "takagi:1.5", "riesz-nagy:0.3", "okamoto:0.6",
            "okamoto:0.5", SKEW, "skew-takagi:0.5,1,0.3")


@pytest.mark.parametrize("name", _PRESETS + ("seed0", "seed1", "seed2", "seed3"))
def test_quotients_are_the_difference_quotients_of_evaluate_many(make_system,
                                                                 name):
    """Each side's quotient is bit for bit the forward, backward or central
    difference quotient of evaluate_many's values at the same tolerance."""
    if name.startswith("seed"):
        system = random_polygon_system(np.random.default_rng(int(name[4:])),
                                       allow_zero=True)
    else:
        system, _ = make_system(name)
    hs = [2.0 ** -k for k in range(6, 30, 3)]

    def phi(x):
        return float(evaluate_many(system, [x], oracle._EVAL_TOL)[0][0])

    for xi in (0.3, float(system.xs[1]), 0.5 * float(system.xs[1])):
        want = {"right": [(phi(xi + h) - phi(xi)) / h for h in hs],
                "left": [(phi(xi) - phi(xi - h)) / h for h in hs],
                "both": [(phi(xi + h) - phi(xi - h)) / (2.0 * h) for h in hs]}
        for side, quots in want.items():
            chk = check_derivative(system, xi, hs, 0.25, side=side)
            assert chk.steps == tuple(sorted(hs, reverse=True))
            assert chk.quotients == tuple(quots)
            assert chk.discrepancies == tuple(abs(q - 0.25) for q in quots)


def test_unknown_side_is_rejected(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    for side in ("up", "Right", None, ["right"]):
        with pytest.raises(ValueError, match="side must be"):
            estimate_exponent(rn, 0.5, side=side)
        with pytest.raises(ValueError, match="side must be"):
            check_derivative(rn, 0.5, [1e-3], 0.0, side=side)


def test_nan_scale_is_rejected_before_any_window(make_system, monkeypatch):
    """A NaN scale passed the old h <= 0 test, and _window_points then never
    pruned its search by size, so the call did not return."""
    rn, _ = make_system("riesz-nagy:0.3")

    def unreachable(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(oracle, "_window_points", unreachable)
    scales = [2.0 ** -k for k in range(8, 20)] + [math.nan]
    for side in ("right", "left", "both"):
        with pytest.raises(ValueError, match="scales"):
            estimate_exponent(rn, 0.3, side=side, scales=scales)


def test_infinite_scales_are_skipped(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    scales = [2.0 ** -k for k in range(8, 20)]
    for side in ("right", "left", "both"):
        want = estimate_exponent(rn, 0.3, side=side, scales=scales)
        got = estimate_exponent(rn, 0.3, side=side, scales=[math.inf] + scales)
        assert got == want


def test_nan_step_is_rejected(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    for hs in ([1e-3, math.nan], [math.nan]):
        with pytest.raises(ValueError, match="h_sequence"):
            check_derivative(rn, 0.3, hs, 0.0)


@pytest.mark.parametrize("derivative", [math.nan, math.inf, -math.inf])
def test_non_finite_derivative_is_rejected(make_system, derivative):
    rn, _ = make_system("riesz-nagy:0.3")
    with pytest.raises(ValueError, match="derivative"):
        estimate_exponent(rn, 0.3, derivative=derivative)
    for side in ("right", "left", "both"):
        with pytest.raises(ValueError, match="derivative"):
            check_derivative(rn, 0.3, [1e-3, 1e-4], derivative, side=side)


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


def _summary(values):
    """(values, median, deciles, fraction_finite) as AeSample reports them."""
    finite = np.isfinite(values)
    deciles = tuple(float(v) for v in
                    np.percentile(values, range(10, 100, 10), method="lower"))
    median = float(np.percentile(values, 50, method="lower")) \
        if not finite.all() else float(np.median(values))
    return values, median, deciles, float(finite.mean())


def _branch_tables(system):
    """cum with an exact 1 at the end, and the branch logs every layer
    reads: math.log, -inf where d = 0."""
    cum = np.cumsum(system.a)
    cum[-1] = 1.0
    logd = np.array([math.log(abs(dk)) if dk else -math.inf for dk in system.d])
    loga = np.array([math.log(ak) for ak in system.a])
    return cum, logd, loga


def _ae_values_reference(system, n_points, horizon, seed):
    """The sampler's scheme one group of oracle._AE_GROUP points at a time:
    head counts from one multinomial per group; the group's tail lanes from
    one random_raw call, step by step and point by point, split off each
    raw output by explicit shifts, low bits first, the last output's spare
    lanes discarded; a 37-bit tie draw at each position whose lane equals
    a cut's top 16 bits, in the same order; searchsorted digits of the
    53-bit integers so made; and two float64 cumsums along the steps
    seeded with the head sums.  Returns (values, median, deciles,
    fraction_finite)."""
    count_seq, lane_seq, tie_seq = np.random.SeedSequence(seed).spawn(3)
    count_rng = np.random.default_rng(count_seq)
    lane_bits = np.random.PCG64(lane_seq)
    tie_bits = np.random.PCG64(tie_seq)
    cum, logd, loga = _branch_tables(system)
    tops = [math.ceil(c * 2.0 ** 53) >> 37 for c in cum[:-1]]
    zero_ids = np.array([k - 1 for k in sorted(system.index_zero)], dtype=np.int64)
    h0 = horizon // 2
    tail = horizon - h0 + 1
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)

    values = np.empty(n_points)
    for start in range(0, n_points, oracle._AE_GROUP):
        g = min(oracle._AE_GROUP, n_points - start)
        counts = count_rng.multinomial(h0 - 1, system.a, size=g)
        head_d = np.zeros(g)
        head_a = np.zeros(g)
        for k in range(system.r):
            if k not in zero_ids:
                head_d = head_d + counts[:, k] * logd[k]
            head_a = head_a + counts[:, k] * loga[k]
        raw = lane_bits.random_raw(-(-tail * g // 4))
        lanes = ((raw[:, None] >> shifts) & np.uint64(0xFFFF)).reshape(-1)
        k = lanes[:tail * g].reshape(tail, g) << np.uint64(37)
        tied = np.isin(k >> np.uint64(37), tops)
        k[tied] |= tie_bits.random_raw(int(tied.sum())) >> np.uint64(27)
        digits = np.searchsorted(cum, k * 2.0 ** -53, side="right")
        num = np.cumsum(np.vstack([head_d, logd[digits]]), axis=0)
        den = np.cumsum(np.vstack([head_a, loga[digits]]), axis=0)
        vals = (num[1:] / den[1:]).min(axis=0)
        if zero_ids.size:
            hit = (counts[:, zero_ids] > 0).any(axis=1)
            vals[hit | np.isin(digits, zero_ids).any(axis=0)] = np.inf
        values[start:start + g] = vals
    return _summary(values)


def _ae_values_digitwise(system, n_points, horizon, seed):
    """The sampler's law drawn the long way: every one of the horizon
    digits from one stream, in chunks of about 5e5 digits.  Its values
    differ from the sampler's bit for bit, but not in distribution."""
    rng = np.random.default_rng(seed)
    cum, logd, loga = _branch_tables(system)
    zero_ids = np.array([k - 1 for k in sorted(system.index_zero)], dtype=np.int64)
    h0 = horizon // 2

    values = np.empty(n_points)
    chunk = max(1, int(500_000 // horizon))
    for start in range(0, n_points, chunk):
        m = min(chunk, n_points - start)
        digits = np.searchsorted(cum, rng.random((m, horizon)), side="right")
        num = np.cumsum(logd[digits], axis=1)
        den = np.cumsum(loga[digits], axis=1)
        vals = (num[:, h0 - 1:] / den[:, h0 - 1:]).min(axis=1)
        if zero_ids.size:
            vals[np.isin(digits, zero_ids).any(axis=1)] = np.inf
        values[start:start + m] = vals
    return _summary(values)


def _assert_matches_reference(system, n_points, horizon, seed):
    s = ae_exponent_sample(system, n_points, horizon, seed)
    values, median, deciles, fraction_finite = _ae_values_reference(
        system, n_points, horizon, seed)
    assert s.values.tobytes() == values.tobytes()
    assert s.median == median
    assert s.deciles == deciles
    assert s.fraction_finite == fraction_finite


@given(sys_seed=st.integers(0, 10 ** 9), n_points=st.integers(1, 50),
       horizon=st.integers(4, 3000), seed=st.integers(0, 2 ** 32 - 1),
       group=st.sampled_from([1, 3, 8, oracle._AE_GROUP]))
def test_ae_sample_matches_chunked_reference(sys_seed, n_points, horizon,
                                             seed, group):
    """Groups of one point, of widths that are no multiple of four (steps
    that share a raw output), and several groups per call."""
    system = random_polygon_system(np.random.default_rng(sys_seed),
                                   allow_zero=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_AE_GROUP", group)
        _assert_matches_reference(system, n_points, horizon, seed)


def test_ae_sample_horizon_beyond_block(make_system):
    # one row per block, and that row's tail longer than the block budget
    for name in ("riesz-nagy:0.3", "okamoto:0.5"):
        system, _ = make_system(name)
        _assert_matches_reference(system, 3, 2 * oracle._AE_BLOCK + 7,
                                  seed=2)


@given(sys_seed=st.integers(0, 10 ** 9), n_points=st.integers(1, 50),
       horizon=st.integers(4, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_ae_sample_values_do_not_depend_on_block(sys_seed, n_points, horizon,
                                                 seed):
    """Blocks of one row shorter than a tail, one row between one and two
    tails, several rows, and every point in one block give the same bits."""
    system = random_polygon_system(np.random.default_rng(sys_seed),
                                   allow_zero=True)
    tail = horizon - horizon // 2 + 1
    seen = set()
    for block in (max(1, tail // 2), tail + tail // 2, 3 * tail + 1, 10 ** 9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_AE_BLOCK", block)
            seen.add(ae_exponent_sample(system, n_points, horizon,
                                        seed).values.tobytes())
    assert len(seen) == 1


@given(sys_seed=st.integers(0, 10 ** 9), n_points=st.integers(1, 50),
       horizon=st.integers(4, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_ae_sample_values_do_not_depend_on_scan(sys_seed, n_points, horizon,
                                                seed):
    """Adding the steps one vector add at a time and by one cumsum along
    the steps, and the minimum by numpy's reduce and by folding rows, give
    the same bits."""
    system = random_polygon_system(np.random.default_rng(sys_seed),
                                   allow_zero=True)
    seen = set()
    for narrow in (0, 10 ** 9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_AE_NARROW", narrow)
            seen.add(ae_exponent_sample(system, n_points, horizon,
                                        seed).values.tobytes())
    assert len(seen) == 1


class _TieBits:
    """A stand-in tie stream: hands out the given 37-bit values, in order,
    as the top bits of raw outputs."""

    def __init__(self, low):
        self.low = [int(v) for v in low]

    def random_raw(self, n):
        out = np.array(self.low[:n], dtype=np.uint64) << np.uint64(27)
        del self.low[:n]
        return out


@pytest.mark.parametrize("weights", [
    (0.3, 0.7), (1 / 3, 1 / 3, 1 / 3), (0.1, 0.2, 0.3, 0.4),
    # two cuts with the same top 16 bits
    (0.5, 1e-7, 0.5 - 1e-7),
    # an inner cut that rounds to 1 is never reached
    (0.5, 0.5, 1e-17),
])
def test_lane_and_tie_digits_match_searchsorted(weights):
    """A 16-bit lane plus 37 tie bits drawn only on a tie give the digit
    searchsorted(cum, k 2^-53, "right") of the 53-bit k they make, for
    random k and for every k whose top bits are a cut's."""
    rng = np.random.default_rng(7)
    cum = np.cumsum(weights)
    keys = oracle._cut_keys(cum)
    cum[-1] = 1.0
    mask = 2 ** 37 - 1
    ks = [rng.integers(0, 2 ** 53, size=4000, dtype=np.uint64)]
    for c in cum[:-1]:
        key = math.ceil(c * 2.0 ** 53)
        top, low = key >> 37, key & mask
        edges = [0, low - 1, low, low + 1, mask]
        lows = np.concatenate([[v for v in edges if 0 <= v <= mask],
                               rng.integers(0, mask + 1, size=50)])
        if top < 2 ** 16:
            ks.append((np.uint64(top) << np.uint64(37)) | lows.astype(np.uint64))
    k = np.concatenate(ks)
    k = k[:k.size // 2 * 2].reshape(2, -1)
    hi = (k >> np.uint64(37)).astype(np.uint16)
    tied = np.isin(hi, [top for top, _ in keys])
    bits = _TieBits(k[tied] & np.uint64(mask))
    digits = np.empty(hi.shape, dtype=np.intp)
    oracle._digits(hi, keys, bits, digits)
    assert not bits.low
    assert np.array_equal(digits,
                          np.searchsorted(cum, k * 2.0 ** -53, side="right"))


def test_lanes_are_taken_low_bits_first():
    """The PCG64 raw stream of a spawned seed, and its 16-bit lanes taken
    low bits first whatever the host: the sampler's bits rely on both."""
    seq = np.random.SeedSequence(0).spawn(3)[1]
    raw = [int(v) for v in np.random.PCG64(seq).random_raw(4)]
    assert raw[:3] == [0xad5cc5f1a97c42b5, 0x3e34612a5a50a3c0,
                       0x9c9c8d5a14388100]
    # two steps of width 5: ten lanes of three raw outputs, two discarded
    lanes = oracle._lanes(np.random.PCG64(seq), 2, 5)
    flat = [(raw[i // 4] >> (16 * (i % 4))) & 0xFFFF for i in range(10)]
    assert lanes.tolist() == [flat[:5], flat[5:]]


def _ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    two empirical distribution functions, ties and infinities included."""
    x, y = np.sort(x), np.sort(y)
    at = np.concatenate([x, y])
    return float(np.max(np.abs(np.searchsorted(x, at, side="right") / x.size
                               - np.searchsorted(y, at, side="right") / y.size)))


def test_ae_sample_keeps_the_digitwise_law(make_system):
    """Drawing the head as counts changes the bits, not the law: against the
    digit-by-digit sampler, 4000 points at horizon 2000 stay below the
    two-sample KS critical value at level 0.001, 1.949 * sqrt(2 / 4000)."""
    n, horizon = 4000, 2000
    critical = 1.949 * math.sqrt(2.0 / n)
    systems = [make_system(name)[0] for name in ("riesz-nagy:0.3",
                                                 "okamoto:0.6")]
    systems.append(random_polygon_system(np.random.default_rng(4), r=4))
    for system in systems:
        new = ae_exponent_sample(system, n, horizon, seed=0).values
        old = _ae_values_digitwise(system, n, horizon, seed=0)[0]
        assert np.isfinite(new).all() and np.isfinite(old).all()
        assert _ks_statistic(new, old) < critical
    flat, _ = make_system("okamoto:0.5")
    assert np.isinf(ae_exponent_sample(flat, 200, horizon, seed=0).values).all()
    assert np.isinf(_ae_values_digitwise(flat, 200, horizon, seed=0)[0]).all()


def test_ae_sample_memory_does_not_grow_with_points():
    system = parse_preset("riesz-nagy:0.3")
    tracemalloc.start()
    try:
        ae_exponent_sample(system, 1000, 10000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
