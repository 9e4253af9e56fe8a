import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_spectra import (
    Coding,
    build_from_polygon,
    compute_constants,
    cut_point_exponents,
    errors,
    exponent_report,
    exponent_trace,
    gammas,
    generate_run_structured,
    holder_left,
    holder_right,
    is_polynomial,
    parse_coding,
    parse_preset,
    project,
    run_structure_for_target,
)
from affine_spectra import exponent as exponent_module
from affine_spectra.exponent import GammaBundle
from conftest import random_polygon_system

SKEW = "skew-takagi:0.3,0.5,0.25"
SQRT2 = math.sqrt(2.0)


# ------------------------------------------------- scalar oracle for the trace

@dataclass(frozen=True)
class RunStats:
    """Digit statistics of the first n digits, for one orientation.

    s maps each digit to its count; L_plus / L_minus are the terminal run
    lengths of digit r and digit 1.  chi and zeta are the indicator values
    for the requested side; both are 0 when the run covers all n digits.
    """
    n: int
    s: dict
    L_plus: int
    L_minus: int
    chi: int
    zeta: int
    side: str


def run_stats(system, constants, coding, n, side="right"):
    """Counts, terminal runs and correction indicators at depth n, one digit
    at a time: the scalar form of what exponent_trace vectorises.

    Right side: runs of digit r; chi fires when the digit after the
    pre-run digit lies in I_plus, zeta when the pre-run digit is in the
    overlap set.  Left side mirrors with runs of digit 1 and the digit
    *below* the pre-run digit.
    """
    digits = coding.digits(n)
    r = system.r
    s = {}
    for k in digits:
        s[k] = s.get(k, 0) + 1
    lp = 0
    while lp < n and digits[n - 1 - lp] == r:
        lp += 1
    lm = 0
    while lm < n and digits[n - 1 - lm] == 1:
        lm += 1
    L = lp if side == "right" else lm
    chi = zeta = 0
    # a run covering all n digits contributes no correction
    if n - L >= 1:
        boundary = digits[n - L - 1]
        probe = boundary + 1 if side == "right" else boundary - 1
        chi = 1 if probe in constants.index_plus else 0
        zeta = 1 if (boundary if side == "right" else boundary - 1) \
            in constants.lambda_set else 0
    return RunStats(n=n, s=s, L_plus=lp, L_minus=lm, chi=chi, zeta=zeta,
                    side=side)


# --------------------------------------------- full-array trace, the reference

def _exponent_trace_reference(system, constants, coding, n, side="right"):
    """The ratio traces as one pass over full-length arrays: the trace as
    it was before it ran in chunks, kept as the bitwise reference."""
    digits = np.fromiter(coding.digits(n), dtype=np.int64, count=n)
    r = system.r
    if constants.index_zero:
        zero = np.zeros(r + 1, dtype=bool)
        for k in constants.index_zero:
            zero[k] = True
        if zero[digits].any():
            raise errors.InfiniteExponent(
                "coding contains a zero-contraction digit")

    loga, logd = constants._logs
    num0 = np.cumsum(np.asarray(logd)[digits - 1])
    den = np.cumsum(np.asarray(loga)[digits - 1])

    extreme = r if side == "right" else 1
    pos = np.arange(1, n + 1, dtype=np.int64)
    lastnon = np.maximum.accumulate(np.where(digits != extreme, pos, 0))
    L = pos - lastnon
    boundary = np.where(lastnon > 0, digits[np.maximum(lastnon - 1, 0)], 0)
    probe_chi = boundary + 1 if side == "right" else boundary - 1
    probe_zeta = boundary if side == "right" else boundary - 1

    in_plus = np.zeros(r + 2, dtype=bool)
    for k in constants.index_plus:
        in_plus[k] = True
    in_lam = np.zeros(r + 2, dtype=bool)
    for k in constants.lambda_set:
        in_lam[k] = True
    valid = lastnon > 0
    chi = valid & in_plus[np.clip(probe_chi, 0, r + 1)]
    zeta = valid & in_lam[np.clip(probe_zeta, 0, r + 1)]

    (k1, k2), _ = constants._run_flags[side]
    g0 = num0 / den
    g1 = (num0 + k1 * chi * L) / den
    g2 = (num0 + k2 * zeta * L) / den
    return g0, g1, g2


def _gammas_reference(system, constants, coding, side, horizon):
    """gammas above _SCAN_MAX as it was: the minima of the full reference
    trace over the tail window (n/2, n]."""
    if constants.index_zero & set(coding.prefix + (coding.period or ())):
        raise errors.InfiniteExponent("coding contains a zero-contraction digit")
    n = len(coding.prefix) if horizon is None else horizon
    if n < 16:
        raise errors.HorizonTooSmall(f"need >= 16 digits, have {n}")
    lo = n // 2
    g0, g1, g2 = (float(g[lo:].min()) for g in
                  _exponent_trace_reference(system, constants, coding, n, side))
    return GammaBundle(g0, g1, g2, min(g0, g1, g2), "finite-horizon", n, side)


# ------------------------------------------------------------------- constants

def test_run_constants_by_side(make_system):
    _, c = make_system("riesz-nagy:0.3")
    (k1r, k2r), _ = c._run_flags["right"]
    assert k1r == pytest.approx(math.log(3.0 / 7.0), abs=1e-14)
    assert k2r == pytest.approx(math.log(5.0 / 7.0), abs=1e-14)
    assert (k1r, k2r) == (c.k1, c.k2)
    (k1l, k2l), _ = c._run_flags["left"]
    assert k1l == pytest.approx(math.log(7.0 / 3.0), abs=1e-14)
    assert k2l == pytest.approx(math.log(5.0 / 3.0), abs=1e-14)
    _, ct = make_system("takagi:1.5")
    assert ct._run_flags["left"][0] == ct._run_flags["right"][0]


def test_trace_matches_run_stats(make_system):
    # the vectorised trace and the per-depth digit statistics must agree
    skew, c = make_system(SKEW)
    digits = (1, 2, 2, 1, 1, 2, 1, 2, 2, 2, 1, 1, 1, 2, 2, 1, 2, 2, 2, 2)
    coding = Coding(prefix=digits)
    a, d = skew.a, skew.d
    for side in ("right", "left"):
        tr = exponent_trace(skew, c, coding, len(digits), side)
        (k1, k2), _ = c._run_flags[side]
        for n in range(1, len(digits) + 1):
            st_ = run_stats(skew, c, coding, n, side=side)
            num = sum(cnt * math.log(abs(d[k - 1]))
                      for k, cnt in st_.s.items())
            den = sum(cnt * math.log(a[k - 1]) for k, cnt in st_.s.items())
            L = st_.L_plus if side == "right" else st_.L_minus
            assert tr.g0[n - 1] == pytest.approx(num / den, abs=1e-12)
            assert tr.g1[n - 1] == pytest.approx(
                (num + k1 * st_.chi * L) / den, abs=1e-12)
            assert tr.g2[n - 1] == pytest.approx(
                (num + k2 * st_.zeta * L) / den, abs=1e-12)


# ---------------------------------------------------------------------- gammas

def test_gamma_exact_periodic(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    b = gammas(rn, c, Coding(period=(1, 2)))
    assert b.method == "exact-periodic"
    assert b.gamma == pytest.approx(math.log(0.21) / math.log(0.25),
                                    abs=1e-12)
    # the prefix does not move the limit
    shifted = gammas(rn, c, Coding(prefix=(2, 1, 2), period=(1, 2)))
    assert shifted.gamma == pytest.approx(b.gamma, abs=1e-12)


def test_gamma_takagi_is_w(make_system):
    for w in ("0.5", "1", "1.5"):
        system, c = make_system(f"takagi:{w}")
        for period in ((1, 2), (1, 1, 2), (1, 2, 2)):
            b = gammas(system, c, Coding(period=period))
            assert b.gamma == pytest.approx(float(w), abs=1e-12)


def test_gamma_finite_horizon_converges(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    exact = gammas(rn, c, Coding(period=(1, 2))).gamma
    bare = gammas(rn, c, Coding(prefix=(1, 2) * 500))
    assert bare.method == "finite-horizon"
    assert bare.horizon_used == 1000
    assert bare.gamma == pytest.approx(exact, abs=1e-2)
    # early transient must not leak into the estimate
    mirrored = gammas(rn, c, Coding(prefix=(2, 1) * 500))
    assert mirrored.gamma == pytest.approx(exact, abs=1e-2)


def test_gamma_horizon_guard(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    with pytest.raises(errors.HorizonTooSmall):
        gammas(rn, c, Coding(prefix=(1, 2) * 4))
    with pytest.raises(ValueError):
        gammas(rn, c, Coding(prefix=(1, 2)), side="down")


def test_gamma_periodic_range(make_system):
    rng = np.random.default_rng(11)
    for name in ("riesz-nagy:0.3", "okamoto:0.6", SKEW):
        system, c = make_system(name)
        r = system.r
        for _ in range(25):
            period = tuple(rng.integers(1, r + 1,
                                        size=rng.integers(2, 6)).tolist())
            if len(set(period)) == 1:
                continue
            if any(k in c.index_zero for k in period):
                continue
            g = gammas(system, c, Coding(period=period)).gamma
            assert c.alpha_min - 1e-9 <= g <= c.alpha_max + 1e-9


def test_infinite_exponent_digit(make_system):
    ok, c = make_system("okamoto:0.5")
    with pytest.raises(errors.InfiniteExponent):
        gammas(ok, c, Coding(period=(1, 2)))
    side = holder_right(ok, c, Coding(period=(1, 2)))
    assert side.infinite and side.alpha == math.inf
    # the tangent slope of the flat middle branch is zero
    assert side.derivative == 0.0


def test_mediant_correction_bound(make_system):
    # with the overlap correction, each corrected ratio is a mediant of an
    # uncorrected one and 1, so it never drops below min(min g0, 1)
    skew, c = make_system(SKEW)
    rng = np.random.default_rng(5)
    for _ in range(20):
        digits = tuple(rng.integers(1, 3, size=400).tolist())
        coding = Coding(prefix=digits)
        for side in ("right", "left"):
            tr = exponent_trace(skew, c, coding, 400, side)
            floor = min(float(np.min(tr.g0)), 1.0) - 1e-12
            assert np.min(tr.g2) >= floor


def test_takagi_mirror_symmetry(make_system):
    t15, c = make_system("takagi:1.5")
    rng = np.random.default_rng(3)
    digits = tuple(rng.integers(1, 3, size=64).tolist())
    mirrored = tuple(3 - k for k in digits)
    right = gammas(t15, c, Coding(prefix=digits), side="right")
    left = gammas(t15, c, Coding(prefix=mirrored), side="left")
    assert right.gamma == pytest.approx(left.gamma, abs=1e-12)


# ------------------------------------------------------------------ side holder

def test_holder_right_riesz_nagy(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    side = holder_right(rn, c, Coding(period=(1, 2)))
    assert side.alpha == pytest.approx(1.125769383497982, abs=1e-11)
    assert side.derivative == 0.0  # shear-free system
    assert side.bundle.method == "exact-periodic"


def test_holder_routing_guards(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    with pytest.raises(errors.Endpoint):
        holder_right(rn, c, Coding(period=(2,)))
    with pytest.raises(errors.Endpoint):
        holder_left(rn, c, Coding(period=(1,)))
    with pytest.raises(errors.CutPointCoding):
        holder_right(rn, c, Coding(prefix=(1,), period=(2,)))
    with pytest.raises(errors.CutPointCoding):
        holder_left(rn, c, Coding(prefix=(2,), period=(1,)))


def test_polynomial_gate(make_system):
    t2, c2 = make_system("takagi:2")
    assert is_polynomial(t2)
    assert not is_polynomial(parse_preset("takagi:0.5"))
    assert is_polynomial(parse_preset("riesz-nagy:0.5"))  # identity map
    # d_k = 2^-2.000000001 misses a_k^2 = 1/4 by 1.7e-10: no polynomial,
    # however close to the parabola 2x(1 - x) its values lie
    assert not is_polynomial(parse_preset("takagi:2.000000001"))
    with pytest.raises(errors.PolynomialDegenerate):
        holder_right(t2, c2, Coding(period=(1, 2)))
    with pytest.raises(errors.PolynomialDegenerate):
        cut_point_exponents(t2, c2, 0.5)
    # raw traces stay available
    assert gammas(t2, c2, Coding(period=(1, 2))).gamma == pytest.approx(2.0)


@pytest.mark.parametrize("vertices, d, polynomial", [
    # phi(x) = 10^6 x: the gate does not depend on the scale of phi
    ([(0, 0), (0.3, 3e5), (1, 1e6)], [0.5, -0.2], True),
    # the parabola 4 10^6 x (1 - x)
    ([(0, 0), (0.5, 1e6), (1, 0)], [0.25, 0.25], True),
    # 2x(1 - x) on four vertices, d_k = a_k^2
    ([(0, 0), (0.2, 0.32), (0.7, 0.42), (1, 0)], [0.04, 0.25, 0.09], True),
    # d_k = a_k^2, but one vertex off that parabola
    ([(0, 0), (0.2, 0.32), (0.7, 0.43), (1, 0)], [0.04, 0.25, 0.09], False),
])
def test_polynomial_gate_is_exact(vertices, d, polynomial):
    system = build_from_polygon(vertices, d)
    assert is_polynomial(system) is polynomial
    if polynomial:
        with pytest.raises(errors.PolynomialDegenerate):
            exponent_report(system, compute_constants(system),
                            parse_coding("1,2,(1,2)"))


# ------------------------------------------------------------------ cut points

def test_cut_riesz_nagy(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    cut = cut_point_exponents(rn, c, 0.5)
    assert cut.n0 == 1 and cut.boundary_digit == 1
    assert cut.alpha_right == pytest.approx(c.rho[1], abs=1e-12)
    assert cut.alpha_left == pytest.approx(c.rho[2], abs=1e-12)
    assert cut.alpha == pytest.approx(min(c.rho[1], c.rho[2]), abs=1e-12)
    assert not cut.differentiable


def test_cut_takagi_half(make_system):
    t05, c = make_system("takagi:0.5")
    cut = cut_point_exponents(t05, c, 0.5)
    assert cut.alpha == pytest.approx(0.5, abs=1e-12)
    assert not cut.differentiable
    # one-sided series diverge, so no derivatives are reported
    assert cut.derivative_right is None and cut.derivative_left is None


def test_cut_takagi_overlap_digit(make_system):
    # both sides are smoother than Lipschitz, but the boundary digit lies in
    # the overlap set: the exponent collapses to 1
    t15, c = make_system("takagi:1.5")
    cut = cut_point_exponents(t15, c, 0.5)
    assert cut.alpha_right == pytest.approx(1.5, abs=1e-12)
    assert cut.alpha_left == pytest.approx(1.5, abs=1e-12)
    assert cut.alpha == 1.0
    assert not cut.differentiable
    assert cut.derivative_right == pytest.approx(SQRT2, abs=1e-9)
    assert cut.derivative_left == pytest.approx(-SQRT2, abs=1e-9)


def test_cut_rejects_non_member(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    with pytest.raises(ValueError):
        cut_point_exponents(rn, c, Fraction(1, 3))
    # the nearest double is dyadic, hence genuinely a deep cut point
    assert cut_point_exponents(rn, c, 1.0 / 3.0).n0 > 30


def test_cut_beside_flat_branch(make_system):
    # right side of the first vertex sits inside the constant middle piece,
    # so only the left ratio counts
    ok, c = make_system("okamoto:0.5")
    cut = cut_point_exponents(ok, c, Fraction(ok.xs[1]))
    assert math.isinf(cut.alpha_right)
    assert cut.alpha_left == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert cut.alpha == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert not cut.differentiable
    assert cut.derivative_right == 0.0


def test_cut_inside_flat_branch(make_system):
    ok, c = make_system("okamoto:0.5")
    x1, x2 = Fraction(ok.xs[1]), Fraction(ok.xs[2])
    mid = x1 + (x2 - x1) * x1  # image of the first vertex under branch 2
    cut = cut_point_exponents(ok, c, mid)
    assert math.isinf(cut.alpha_left) and math.isinf(cut.alpha_right)
    assert math.isinf(cut.alpha)
    assert cut.differentiable
    assert cut.derivative_left == cut.derivative_right == 0.0


def test_cut_corner_between_affine_pieces():
    # two adjacent zero-contraction pieces with different slopes meet in a
    # genuine corner: both one-sided series are exact and the exponent is 1
    system = build_from_polygon(
        [(0.0, 0.0), (0.25, 0.3), (0.5, 0.5), (0.75, 0.2), (1.0, 1.0)],
        (0.5, 0.0, 0.0, 0.5))
    c = compute_constants(system)
    cut = cut_point_exponents(system, c, Fraction(1, 2))
    assert math.isinf(cut.alpha_left) and math.isinf(cut.alpha_right)
    assert cut.alpha == 1.0
    assert not cut.differentiable
    assert cut.derivative_left == pytest.approx(0.8, abs=1e-12)
    assert cut.derivative_right == pytest.approx(-1.2, abs=1e-12)


# --------------------------------------------------------------------- reports

def test_report_interior_two_sided(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    rep = exponent_report(rn, c, Coding(period=(1, 2)))
    assert rep.right is not None and rep.left is not None
    assert rep.cut is None
    assert rep.alpha == pytest.approx(min(rep.right.alpha, rep.left.alpha),
                                      abs=1e-12)


def test_report_endpoint_sides(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    rep0 = exponent_report(rn, c, Coding(period=(1,)))
    assert rep0.right is not None and rep0.left is None
    assert rep0.alpha == pytest.approx(c.rho[1], abs=1e-12)
    rep1 = exponent_report(rn, c, Coding(period=(2,)))
    assert rep1.left is not None and rep1.right is None
    assert rep1.alpha == pytest.approx(c.rho[2], abs=1e-12)


def test_report_normalizes_cut_codings(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    by_point = cut_point_exponents(rn, c, 0.5)
    for coding in (Coding(prefix=(1,), period=(2,)),
                   Coding(prefix=(2,), period=(1,))):
        rep = exponent_report(rn, c, coding)
        assert rep.cut_point
        assert rep.cut.n0 == by_point.n0
        assert rep.alpha == pytest.approx(by_point.alpha, abs=1e-12)
        assert rep.alpha_right == pytest.approx(by_point.alpha_right,
                                                abs=1e-12)
        assert rep.alpha_left == pytest.approx(by_point.alpha_left, abs=1e-12)


@given(seed=st.integers(0, 10 ** 9))
def test_report_alpha_is_min_of_sides(make_system, seed):
    rng = np.random.default_rng(seed)
    skew, c = make_system(SKEW)
    period = tuple(rng.integers(1, 3, size=int(rng.integers(2, 5))).tolist())
    if len(set(period)) == 1:
        period = (1, 2)
    rep = exponent_report(skew, c, Coding(period=period))
    assert rep.alpha == pytest.approx(min(rep.right.alpha, rep.left.alpha),
                                      abs=1e-12)
    assert c.alpha_min - 1e-9 <= rep.alpha <= c.alpha_max + 1e-9


# ------------------------------------------- the two gammas paths are one path

def _gammas_outcome(system, constants, coding, side, horizon, scan_max):
    """gammas with the tail-scan cut-off forced, or the error it raised."""
    with mock.patch.object(exponent_module, "_SCAN_MAX", scan_max):
        try:
            return gammas(system, constants, coding, side=side,
                          horizon=horizon)
        except (errors.InfiniteExponent, errors.HorizonTooSmall) as exc:
            return type(exc)


@given(seed=st.integers(0, 10 ** 9))
def test_tail_scan_is_bitwise_trace(seed):
    # the plain-float scan and the numpy trace give equal bundles, and raise
    # the same errors, at lengths on both sides of the cut-off between them
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    constants = compute_constants(system)
    r = system.r
    cut = exponent_module._SCAN_MAX
    n = int(rng.choice([rng.integers(1, 80), rng.integers(cut - 8, cut + 9),
                        rng.integers(cut, 3 * cut)]))
    # mostly nonzero-contraction digits, so that most codings get a bundle
    pool = sorted(system.index_plus) if rng.random() < 0.8 else range(1, r + 1)
    digits = rng.choice(pool, n).tolist()
    # a terminal run of 1 or r, up to the whole coding
    run = int(rng.integers(0, n + 1))
    digits[n - run:] = [int(rng.choice([1, r]))] * run
    codings = [Coding(prefix=tuple(digits))]
    period = tuple(rng.integers(1, r + 1, int(rng.integers(1, 4))).tolist())
    codings.append(Coding(prefix=tuple(digits[:3]), period=period))
    for coding in codings:
        horizon = None if coding.period is None else n
        for side in ("right", "left"):
            scan = _gammas_outcome(system, constants, coding, side, horizon,
                                   10 ** 9)
            trace = _gammas_outcome(system, constants, coding, side, horizon,
                                    0)
            assert scan == trace


@given(seed=st.integers(0, 10 ** 9))
def test_report_periodic_sides_match_holder_calls(seed):
    # exponent_report shares the one-period work between the sides; each
    # side must still be what its own holder_* call returns
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    constants = compute_constants(system)
    r = system.r
    prefix = tuple(rng.integers(1, r + 1, int(rng.integers(0, 4))).tolist())
    period = tuple(rng.integers(1, r + 1, int(rng.integers(2, 5))).tolist())
    if len(set(period)) == 1:
        period = (1, 2)
    coding = Coding(prefix=prefix, period=period)
    try:
        rep = exponent_report(system, constants, coding)
    except errors.PolynomialDegenerate:
        with pytest.raises(errors.PolynomialDegenerate):
            holder_left(system, constants, coding)
        return
    assert rep.right == holder_right(system, constants, coding)
    assert rep.left == holder_left(system, constants, coding)
    assert rep.alpha == min(rep.right.alpha, rep.left.alpha)


def _side_outcome(call, *args, **kwargs):
    """repr of the result (exact for floats, -0.0 included), or the type
    of the error raised."""
    try:
        return repr(call(*args, **kwargs))
    except errors.AffineSpectraError as exc:
        return type(exc)


@given(seed=st.integers(0, 10 ** 9))
def test_report_scans_once_for_both_sides(seed):
    # a finite coding of 16-256 digits, with a terminal run of 1 or r and at
    # times d = 0 digits: exponent_report scans its digits once, and each
    # side is bitwise what its own holder_* call gives
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    constants = compute_constants(system)
    r = system.r
    n = int(rng.integers(16, 257))
    pool = sorted(system.index_plus) if rng.random() < 0.8 else range(1, r + 1)
    digits = rng.choice(pool, n).tolist()
    run = int(rng.choice([rng.integers(1, 4), rng.integers(0, n + 1), n]))
    digits[n - run:] = [int(rng.choice([1, r]))] * run
    coding = Coding(prefix=tuple(digits))
    scans = mock.Mock(wraps=exponent_module._tail_scan)
    with mock.patch.object(exponent_module, "_tail_scan", scans):
        try:
            rep = exponent_report(system, constants, coding)
        except errors.AffineSpectraError as exc:
            rep = exc
    right = _side_outcome(holder_right, system, constants, coding)
    left = _side_outcome(holder_left, system, constants, coding)
    if isinstance(rep, Exception):
        assert right == left == type(rep)
        return
    assert (repr(rep.right), repr(rep.left)) == (right, left)
    zero = not system.index_zero.isdisjoint(digits)
    assert scans.call_count == (0 if zero else 1)


@settings(max_examples=25)
@given(seed=st.integers(0, 10 ** 9))
def test_cut_point_exponents_is_the_report_of_both_codings(seed):
    # at a vertex image given exactly (over the stored abscissae, as in_T
    # reads them), cut_point_exponents equals the cut block of
    # exponent_report on each of the point's two codings
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    constants = compute_constants(system)
    if is_polynomial(system):
        return
    r = system.r
    stem = tuple(rng.integers(1, r + 1, int(rng.integers(0, 4))).tolist())
    vertex = int(rng.integers(1, r))
    xs = [Fraction(v) for v in system.xs]
    x = xs[vertex]
    for k in reversed(stem):
        x = xs[k - 1] + (xs[k] - xs[k - 1]) * x
    cut = cut_point_exponents(system, constants, x)
    assert cut.coding_left == Coding(prefix=stem + (vertex,), period=(r,))
    for coding in (cut.coding_left, cut.coding_right):
        rep = exponent_report(system, constants, coding)
        assert rep.cut_point and repr(rep.cut) == repr(cut)


@given(seed=st.integers(0, 10 ** 9))
def test_report_routes_eventually_constant_codings(seed):
    # a random prefix, then all 1s or all rs: the report is holder_right at
    # x = 0, holder_left at x = 1 and the cut block of cut_point_exponents
    # at the exact point otherwise, or raises the same error
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    constants = compute_constants(system)
    r = system.r
    # digits 1 and r only, at times, so that x = 0 and x = 1 come up often
    pool = (1, r) if rng.random() < 0.5 else range(1, r + 1)
    prefix = tuple(int(k) for k in rng.choice(pool, int(rng.integers(0, 5))))
    tail = int(rng.choice([1, r]))
    coding = Coding(prefix=prefix, period=(tail,))
    try:
        rep = exponent_report(system, constants, coding)
    except errors.AffineSpectraError as exc:
        rep = type(exc)
    if all(k == tail for k in prefix):
        call = holder_right if tail == 1 else holder_left
        want = _side_outcome(call, system, constants, coding)
        if isinstance(rep, type):
            assert rep == want
            return
        side = rep.right if tail == 1 else rep.left
        assert (rep.left if tail == 1 else rep.right) is None
        assert not rep.cut_point and rep.alpha == side.alpha
        assert repr(side) == want
        return
    want = _side_outcome(cut_point_exponents, system, constants,
                         project(system, coding, exact=True))
    if isinstance(rep, type):
        assert rep == want
        return
    assert rep.cut_point and rep.alpha == rep.cut.alpha
    assert repr(rep.cut) == want


def test_report_checks_digits_once(make_system):
    # a caller's digits are range-checked once per report, whatever the
    # kind of coding, and not at all for the codings in_T builds
    rn, c = make_system("riesz-nagy:0.3")
    codings = [Coding(prefix=(1,), period=(1, 2)),       # plain, periodic
               Coding(prefix=(1, 2) * 16),               # plain, finite
               Coding(prefix=(1, 1), period=(1,)),       # x = 0
               Coding(prefix=(2,), period=(2,)),         # x = 1
               Coding(prefix=(1, 2), period=(1,))]       # two-coding point
    for coding in codings:
        with mock.patch.object(Coding, "max_digit", autospec=True,
                               side_effect=Coding.max_digit) as spy:
            exponent_report(rn, c, coding)
        assert spy.call_count == 1, coding
    with mock.patch.object(Coding, "max_digit", autospec=True,
                           side_effect=Coding.max_digit) as spy:
        cut = cut_point_exponents(rn, c, 0.5)
    assert spy.call_count == 0
    assert cut.derivative_right is not None


# ------------------------------------------------ the chunked trace is bitwise

def _outcome(call, *args, **kwargs):
    """call's result, or the type and message of the error it raised."""
    try:
        return call(*args, **kwargs)
    except (errors.InfiniteExponent, errors.HorizonTooSmall) as exc:
        return type(exc), str(exc)


def _trace_bytes(system, constants, coding, n, side):
    tr = exponent_trace(system, constants, coding, n, side)
    return tr.g0.tobytes(), tr.g1.tobytes(), tr.g2.tobytes()


def _reference_bytes(system, constants, coding, n, side):
    return tuple(g.tobytes() for g in _exponent_trace_reference(
        system, constants, coding, n, side))


@given(seed=st.integers(0, 10 ** 9), chunk=st.sampled_from([1, 2, 3, 64]))
def test_chunked_trace_is_bitwise_reference(seed, chunk):
    # exponent_trace and the long gammas path against the full-array trace,
    # with lengths and terminal runs placed on both sides of chunk edges and
    # of the tail window's start n/2
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    constants = compute_constants(system)
    r = system.r
    edge = chunk * int(rng.integers(1, 5))
    n = max(1, int(rng.choice([edge, 2 * edge])) + int(rng.integers(-2, 3)))
    pool = sorted(system.index_plus) if rng.random() < 0.8 else range(1, r + 1)
    digits = rng.choice(pool, n).tolist()
    # a terminal run of 1 or r, often across the last chunk edge
    run = int(rng.choice([rng.integers(0, n + 1), n - edge + 1, n]))
    digits[n - max(run, 0):] = [int(rng.choice([1, r]))] * max(run, 0)
    period = (tuple(rng.integers(1, r + 1, int(rng.integers(1, 4))).tolist())
              if rng.random() < 0.7 else (int(rng.choice([1, r])),))
    cut = int(rng.integers(0, n + 1))
    codings = [Coding(prefix=tuple(digits)),
               Coding(prefix=tuple(digits[:cut]), period=period)]
    with mock.patch.object(exponent_module, "_CHUNK", chunk), \
            mock.patch.object(exponent_module, "_SCAN_MAX", 0):
        for coding in codings:
            horizon = None if coding.period is None else n
            for side in ("right", "left"):
                args = (system, constants, coding, n, side)
                assert (_outcome(_trace_bytes, *args)
                        == _outcome(_reference_bytes, *args))
                assert (_outcome(gammas, system, constants, coding,
                                 side=side, horizon=horizon)
                        == _outcome(_gammas_reference, system, constants,
                                    coding, side, horizon))


def _peak_bytes(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_trace_memory_is_bounded(make_system):
    # at 1e5 digits the chunks keep the working memory small: gammas holds
    # no full-length array, exponent_trace only its three 0.8 MB outputs
    skew, c = make_system(SKEW)
    rs = run_structure_for_target(skew, c, 1.2, block_ends=(100, 100_000))
    coding = generate_run_structured(rs, 100_000, seed=4)
    assert _peak_bytes(lambda: gammas(skew, c, coding)) < 1.5e6
    assert _peak_bytes(
        lambda: exponent_trace(skew, c, coding, 100_000)) < 3.5e6
