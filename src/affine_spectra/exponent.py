"""Pointwise Holder exponents from digit statistics.

The one-sided exponent at a non-cut point is the liminf over n of

    (sum_{i<=n} log|d_{k_i}| + correction_n) / sum_{i<=n} log a_{k_i}

where the correction accounts for the terminal run of the extreme digit on
that side (digit r for the right side, digit 1 for the left): a long run
means the point hugs one end of its basic interval and the neighbouring
interval controls part of the oscillation.  Two corrected variants are
tracked; the exponent is the minimum of the plain and corrected liminfs.
Eventually periodic codings collapse to a closed form (one-period ratio).

Two-coding points get their own routine: their one-sided exponents are the
single-branch ratios rho_1 / rho_r, and two-sidedness hinges on whether the
vertex the point sits on carries a slope mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors
from .coding import Coding, CutPointQuery, _check_digits, _cut_query, in_T
from .evaluate import _check_series_tol, _derivative, _series
from .ifs import _REL_TOL, SelfAffineSystem, SpectrumConstants

_MIN_HORIZON = 16
# Longest horizon the plain-float tail scan takes; longer ones go through
# the chunked trace, whose fixed cost per call the scan avoids.  Per side on
# a 2-CPU Xeon (Python 3.11, numpy 2.4; best of 15 x 50 interleaved calls
# of gammas, skew-takagi r = 2 and okamoto:0.6 r = 3), scan / chunks in us:
# 32-47 / 66-74 at 128 digits, 52-69 / 47-80 at 256, 83-113 / 80-88 at
# 320-384 and 190-216 / 119-123 at 768.
_SCAN_MAX = 256
# Digits per chunk of the long-coding trace: its working arrays stay under
# 1 MB whatever the horizon
_CHUNK = 8192


def _check_side(side: str) -> None:
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")


@dataclass(frozen=True)
class ExponentTrace:
    """Ratio traces g0/g1/g2 for n = 1..len(g0) on one side: plain ratio,
    run-corrected with the cross-interval constant, and run-corrected with
    the vertex constant."""
    side: str
    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray


def _digit_chunks(coding: Coding, n: int):
    """(start, digits) over the first n digits, in int arrays of _CHUNK
    digits (the last one may be shorter): slices of the prefix, then the
    period tiled in place, so no array holds all n digits."""
    prefix, m = coding.prefix, len(coding.prefix)
    if coding.period is not None:
        period = np.array(coding.period, dtype=np.intp)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        head = prefix[start:stop]
        chunk = np.fromiter(head, dtype=np.intp, count=len(head))
        if stop > m:
            tail = np.take(period, np.arange(max(start, m) - m, stop - m),
                           mode="wrap")
            chunk = np.concatenate((chunk, tail))
        yield start, chunk


def _trace_chunks(constants: SpectrumConstants, coding: Coding, n: int,
                  side: str, lo: int = 0):
    """Ratio traces g0, g1, g2 over positions 1..n in chunks of _CHUNK.

    Yields (start, g0, g1, g2) for each chunk that meets positions lo+1..n;
    entry i of a chunk is position start + i + 1.  Earlier chunks only move
    the four carries: the running sums of log|d| and log a, the last
    position that holds a non-extreme digit and that digit.  The first sum
    of a chunk is carry + x[0] and the cumsum goes on from there, the
    running maximum of positions starts from the carried one, and a run
    that began in an earlier chunk takes its boundary digit from the carry,
    so every float operation is the one a single pass over all n digits
    would do, in the same order.  Raises InfiniteExponent at the first
    chunk holding a zero-contraction digit.
    """
    loga, logd = constants._logs
    r = len(loga)
    # log|d_k| + i log a_k by digit (0 unused): numpy adds complex numbers
    # part by part, so one cumsum gives the two sequential real sums
    steps = np.zeros(r + 1, dtype=complex)
    steps.real[1:] = logd
    steps.imag[1:] = loga
    extreme = r if side == "right" else 1
    # the correction per boundary digit, K times a 0/1 flag
    (k1, k2), flags = constants._run_flags[side]
    corr1 = np.array([k1 * chi for chi, _ in flags])
    corr2 = np.array([k2 * zeta for _, zeta in flags])
    zero = np.zeros(r + 1, dtype=bool)
    zero[list(constants.index_zero)] = True
    sums = 0j           # (sum log|d|, sum log a) up to the chunk
    last = 0            # last position with a non-extreme digit, 0 if none
    boundary = 0        # the digit there, 0 if none
    for start, d in _digit_chunks(coding, n):
        if constants.index_zero and zero[d].any():
            raise errors.InfiniteExponent(
                "coding contains a zero-contraction digit")
        z = steps[d]
        z[0] += sums
        np.cumsum(z, out=z)
        sums = complex(z[-1])
        stop = start + len(d)
        if stop <= lo:
            free = np.flatnonzero(d != extreme)
            if free.size:
                last, boundary = start + int(free[-1]) + 1, int(d[free[-1]])
            continue
        pos = np.arange(start + 1, stop + 1)
        lastnon = np.where(d != extreme, pos, 0)
        lastnon[0] = max(lastnon[0], last)
        np.maximum.accumulate(lastnon, out=lastnon)
        last = int(lastnon[-1])
        L = np.subtract(pos, lastnon, out=pos)     # terminal run lengths
        # boundary digits, the carried one at index 0 of the lookup
        lastnon -= start
        np.maximum(lastnon, 0, out=lastnon)
        b = np.concatenate(([boundary], d))[lastnon]
        boundary = int(b[-1])
        num, den = z.real, z.imag
        # (num + K chi L) / den, in place; a + b is b + a in floats
        g1, g2 = corr1[b], corr2[b]
        for g in (g1, g2):
            g *= L
            g += num
            g /= den
        yield start, num / den, g1, g2


def exponent_trace(system: SelfAffineSystem, constants: SpectrumConstants,
                   coding: Coding, n: int, side: str = "right") -> ExponentTrace:
    """Ratio traces over the first n digits.

    The three output arrays are filled chunk by chunk (_trace_chunks), so
    the working memory beside them stays bounded whatever n is, and the
    cost is linear in n.

    Raises InfiniteExponent if a zero-contraction digit occurs: after it the
    function is affine on a whole basic interval, so no finite ratio applies.
    """
    _check_side(side)
    _check_digits(coding, system.r)
    if n < 1:
        raise ValueError("n must be >= 1")
    coding.digit(n)     # InvalidCoding when a finite coding is too short
    g0, g1, g2 = np.empty(n), np.empty(n), np.empty(n)
    for start, c0, c1, c2 in _trace_chunks(constants, coding, n, side):
        stop = start + len(c0)
        g0[start:stop], g1[start:stop], g2[start:stop] = c0, c1, c2
    return ExponentTrace(side=side, g0=g0, g1=g1, g2=g2)


def _tail_scan(constants: SpectrumConstants, digits: tuple[int, ...]):
    """Minima of g0, g1 and g2 over the tail window (n/2, n], n = len(digits),
    on both sides in one plain-float pass: ((right), (left)) triples.

    g0 does not depend on the side and is formed once per position; each
    side keeps its own terminal run (of digit r on the right, of digit 1 on
    the left) and boundary flags for g1 and g2.  The arithmetic is
    exponent_trace's, in its order: sequential sums of the same log tables,
    then num/den, (num + K1 L)/den and (num + K2 L)/den.  A correction that
    does not fire adds a zero to num, which is never zero, so that ratio is
    g0 itself.  The minima are therefore bitwise those of the trace on
    either side.
    """
    loga, logd = constants._logs
    r = len(loga)
    (k1r, k2r), right_at = constants._run_flags["right"]
    (k1l, k2l), left_at = constants._run_flags["left"]
    lo = len(digits) // 2
    num = den = 0.0
    run_r = run_l = 0       # terminal runs of r and of 1
    chi_r = zeta_r = chi_l = zeta_l = False   # no boundary digit yet
    for k in digits[:lo]:
        num += logd[k - 1]
        den += loga[k - 1]
        if k == r:
            run_r += 1
        else:
            run_r = 0
            chi_r, zeta_r = right_at[k]
        if k == 1:
            run_l += 1
        else:
            run_l = 0
            chi_l, zeta_l = left_at[k]
    m0 = m1r = m2r = m1l = m2l = math.inf
    for k in digits[lo:]:
        num += logd[k - 1]
        den += loga[k - 1]
        if k == r:
            run_r += 1
        else:
            run_r = 0
            chi_r, zeta_r = right_at[k]
        if k == 1:
            run_l += 1
        else:
            run_l = 0
            chi_l, zeta_l = left_at[k]
        g0 = num / den
        if g0 < m0:
            m0 = g0
        g = (num + k1r * run_r) / den if chi_r and run_r else g0
        if g < m1r:
            m1r = g
        g = (num + k2r * run_r) / den if zeta_r and run_r else g0
        if g < m2r:
            m2r = g
        g = (num + k1l * run_l) / den if chi_l and run_l else g0
        if g < m1l:
            m1l = g
        g = (num + k2l * run_l) / den if zeta_l and run_l else g0
        if g < m2l:
            m2l = g
    return (m0, m1r, m2r), (m0, m1l, m2l)


def _has_zero_digit(constants: SpectrumConstants, coding: Coding) -> bool:
    """True when a zero-contraction digit occurs anywhere in the coding."""
    zero = constants.index_zero
    return bool(zero) and not (zero.isdisjoint(coding.prefix)
                               and zero.isdisjoint(coding.period or ()))


@dataclass(frozen=True)
class GammaBundle:
    """Liminf estimates (or exact values) of the three ratio variants and
    their minimum.  method is "exact-periodic" or "finite-horizon"."""
    gamma0: float
    gamma1: float
    gamma2: float
    gamma: float
    method: str
    horizon_used: int | None
    side: str


def gammas(system: SelfAffineSystem, constants: SpectrumConstants,
           coding: Coding, *, side: str = "right",
           horizon: int | None = None) -> GammaBundle:
    """Exponent candidates for one side.

    Eventually periodic codings (without an explicit horizon) use the exact
    one-period ratio, to which all three variants converge.  Otherwise the
    liminf of each trace is estimated by its minimum over the tail window
    (n/2, n]; a minimum over all of 1..n would instead converge to the
    infimum, which the early-digit transient drags below the liminf.  Fewer
    than 16 digits raise HorizonTooSmall.

    Horizons up to 256 digits (_SCAN_MAX) take the minima of both sides in
    one plain-float pass (_tail_scan), as on the one-point path (a 64-digit
    coding_of_point), and keep this side's; longer ones run this side's
    trace in chunks (_trace_chunks) and keep running minima over the chunks
    that meet the window, so no array holds all n digits.  Both paths do
    the same float operations in the same order, so the bundle is bitwise
    the same whichever runs.
    """
    _check_side(side)
    _check_digits(coding, system.r)
    if _has_zero_digit(constants, coding):
        raise errors.InfiniteExponent(
            "coding contains a zero-contraction digit")
    return _bundles(system, constants, coding, (side,), horizon)[0]


def _bundles(system: SelfAffineSystem, constants: SpectrumConstants,
             coding: Coding, sides: tuple[str, ...],
             horizon: int | None) -> list[GammaBundle]:
    """gammas for each of the sides, for a checked coding with no d = 0
    digit: the one-period ratio, or the digits scanned once for all the
    sides (horizons up to _SCAN_MAX)."""
    if coding.eventually_periodic and horizon is None:
        loga, logd = constants._logs
        g = (math.fsum(logd[k - 1] for k in coding.period)
             / math.fsum(loga[k - 1] for k in coding.period))
        return [GammaBundle(g, g, g, g, "exact-periodic", None, side)
                for side in sides]

    avail = coding.available()
    n = horizon if horizon is not None else avail
    if n is None:
        raise ValueError("periodic coding scans need an explicit horizon")
    if avail is not None:
        n = min(n, avail)
    if n < _MIN_HORIZON:
        raise errors.HorizonTooSmall(
            f"need >= {_MIN_HORIZON} digits, have {n}")
    if n <= _SCAN_MAX:
        minima = _tail_scan(constants, coding.digits(n))
        found = [minima[side == "left"] for side in sides]
    else:
        found = [_chunk_minima(constants, coding, n, side) for side in sides]
    return [GammaBundle(g0, g1, g2, min(g0, g1, g2), "finite-horizon", n, side)
            for (g0, g1, g2), side in zip(found, sides)]


def _chunk_minima(constants: SpectrumConstants, coding: Coding, n: int,
                  side: str) -> tuple[float, float, float]:
    """Minima of g0, g1 and g2 over the tail window (n/2, n] of one side,
    from the chunked trace."""
    lo = n // 2  # tail window (n/2, n], skips the early transient
    g0 = g1 = g2 = math.inf
    for start, c0, c1, c2 in _trace_chunks(constants, coding, n, side, lo):
        k = max(lo - start, 0)
        g0 = min(g0, float(c0[k:].min()))
        g1 = min(g1, float(c1[k:].min()))
        g2 = min(g2, float(c2[k:].min()))
    return g0, g1, g2


@lru_cache(maxsize=128)
def is_polynomial(system: SelfAffineSystem) -> bool:
    """True when phi is a polynomial, decided exactly from the parameters.

    If phi has degree m >= 2, the x^m coefficients of phi(a_k x + b_k) =
    c_k x + d_k phi(x) + e_k give d_k = a_k^m, and the x^(m-1) ones at
    b_1 = 0 < b_2 then rule out m >= 3.  Conversely a line through all r+1
    vertices, or a parabola through them when every d_k = a_k^2, satisfies
    the pinned equations, so it is phi.  Both tests hold at validate's
    relative 1e-12, the ordinates scaled by max(1, |y_k|).  Polynomial phi
    fall outside every exponent statement below; values and derivative
    series stay valid.
    """
    xs, ys = system.xs, system.ys
    tol = _REL_TOL * max(1.0, *map(abs, ys))
    # the chord through the end vertices; a parabola through them is
    # chord + t x (x - 1), and vertex 1 fixes t
    chord = [ys[0] + (ys[-1] - ys[0]) * x for x in xs]
    if all(abs(y - l) <= tol for y, l in zip(ys, chord)):
        return True
    if any(abs(dk - ak * ak) > _REL_TOL for ak, dk in zip(system.a, system.d)):
        return False
    t = (ys[1] - chord[1]) / (xs[1] * (xs[1] - 1.0))
    return all(abs(y - l - t * x * (x - 1.0)) <= tol
               for x, y, l in zip(xs, ys, chord))


@dataclass(frozen=True)
class SideExponent:
    side: str
    alpha: float
    derivative: float | None
    bundle: GammaBundle | None
    infinite: bool = False


def _route(coding: Coding, r: int) -> str:
    """The case of the pointwise formula a coding falls in: "zero" (all 1s,
    x = 0), "one" (all rs, x = 1), "cut" (any other coding that ends in all
    1s or all rs: a two-coding point) or "plain" (every other coding)."""
    tail = coding.constant_tail()
    if tail not in (1, r):
        return "plain"
    if all(k == tail for k in coding.prefix):
        return "zero" if tail == 1 else "one"
    return "cut"


def _holder_side(system: SelfAffineSystem, constants: SpectrumConstants,
                 coding: Coding, side: str, horizon: int | None,
                 series_tol: float) -> SideExponent:
    _check_series_tol(series_tol)
    _check_digits(coding, system.r)
    route = _route(coding, system.r)
    if route == ("one" if side == "right" else "zero"):
        raise errors.Endpoint(
            f"x = {'1' if route == 'one' else '0'} has no {side} side")
    if route == "cut":
        raise errors.CutPointCoding(
            "eventually constant coding addresses a two-coding point; "
            "use cut_point_exponents")
    return _sides(system, constants, coding, (side,), horizon, series_tol)[0]


def _sides(system: SelfAffineSystem, constants: SpectrumConstants,
           coding: Coding, sides: tuple[str, ...], horizon: int | None,
           series_tol: float) -> list[SideExponent]:
    """SideExponents of a checked coding for each of the sides.  What does
    not depend on the side is done once: the polynomial gate, the d = 0
    test, the bundles (_bundles) and the derivative series, which is the
    same number on both sides."""
    if is_polynomial(system):
        raise errors.PolynomialDegenerate(
            "phi is a polynomial; exponent statements do not apply")

    if _has_zero_digit(constants, coding):
        deriv = _series_or_none(system, coding, series_tol)
        return [SideExponent(side=side, alpha=math.inf, derivative=deriv,
                             bundle=None, infinite=True) for side in sides]

    bundles = _bundles(system, constants, coding, sides, horizon)
    deriv = None
    if coding.eventually_periodic and any(b.gamma > 1.0 for b in bundles):
        deriv = _series_or_none(system, coding, series_tol)
    return [SideExponent(side=b.side, alpha=b.gamma,
                         derivative=deriv if b.gamma > 1.0 else None,
                         bundle=b) for b in bundles]


def _series_or_none(system: SelfAffineSystem, coding: Coding,
                    series_tol: float) -> float | None:
    """derivative_series of a checked coding, None where it raises."""
    try:
        return _series(system, coding, series_tol)
    except (errors.TailBoundUnavailable, errors.NotDifferentiable):
        return None


def holder_right(system: SelfAffineSystem, constants: SpectrumConstants,
                 coding: Coding, *, horizon: int | None = None,
                 series_tol: float = 1e-12) -> SideExponent:
    """Right-side exponent at the point the coding addresses.

    Rejects codings of two-coding points (CutPointCoding) and the all-r
    coding of x = 1 (Endpoint); the all-1 coding of x = 0 is fine here.
    """
    return _holder_side(system, constants, coding, "right", horizon, series_tol)


def holder_left(system: SelfAffineSystem, constants: SpectrumConstants,
                coding: Coding, *, horizon: int | None = None,
                series_tol: float = 1e-12) -> SideExponent:
    """Left-side exponent; mirror of holder_right."""
    return _holder_side(system, constants, coding, "left", horizon, series_tol)


@dataclass(frozen=True)
class CutPointResult:
    """Exponents at a two-coding point sitting on the image of a vertex.

    alpha_right is the branch-1 ratio and alpha_left the branch-r ratio,
    except that a side becomes infinite when its coding passes through a
    zero-contraction digit (the side then lies inside an affine piece).
    With both sides above 1 the point is differentiable exactly when the
    stem's last digit avoids the slope-mismatch set; a mismatch pins the
    two-sided exponent to 1.  When both sides are affine the terminating
    series are exact slopes: equal slopes mean a flat spot, unequal ones a
    corner with exponent 1.
    """
    n0: int
    boundary_digit: int
    coding_left: Coding
    coding_right: Coding
    alpha_left: float
    alpha_right: float
    alpha: float
    differentiable: bool
    derivative_left: float | None
    derivative_right: float | None


def _rho_or_inf(constants: SpectrumConstants, k: int) -> float:
    if k in constants.index_zero:
        return math.inf
    return constants.rho[k]


def _cut_result(system: SelfAffineSystem, constants: SpectrumConstants,
                query: CutPointQuery, series_tol: float) -> CutPointResult:
    """Exponents at the two-coding point of an in_T answer whose stem is
    not empty, from the codings that in_T built."""
    if is_polynomial(system):
        raise errors.PolynomialDegenerate(
            "phi is a polynomial; exponent statements do not apply")
    r = system.r
    left, right = query.left, query.right
    stem, k = left.prefix, query.boundary_digit
    # a d = 0 digit anywhere in a side's coding puts that side inside an
    # affine piece, which the rho of the tail digit alone would miss
    shared = set(stem[:-1])
    zero = constants.index_zero
    if (shared | {k + 1, 1}) & zero:
        alpha_right = math.inf
    else:
        alpha_right = _rho_or_inf(constants, 1)
    if (shared | {k, r}) & zero:
        alpha_left = math.inf
    else:
        alpha_left = _rho_or_inf(constants, r)

    deriv_right = (_series_or_none(system, right, series_tol)
                   if alpha_right > 1.0 else None)
    deriv_left = (_series_or_none(system, left, series_tol)
                  if alpha_left > 1.0 else None)
    if math.isinf(alpha_right) and math.isinf(alpha_left):
        # affine on both sides; the terminating series are exact slopes up
        # to rounding, compared whether or not their bounds meet series_tol
        slope_right, slope_left = (_derivative(system, c)[0]
                                   for c in (right, left))
        scale = max(1.0, abs(slope_right), abs(slope_left))
        if abs(slope_right - slope_left) <= 1e-12 * scale:
            alpha, differentiable = math.inf, True
        else:
            alpha, differentiable = 1.0, False  # corner of two lines
    elif alpha_right > 1.0 and alpha_left > 1.0:
        if k in constants.lambda_set:
            alpha, differentiable = 1.0, False
        else:
            alpha, differentiable = min(alpha_right, alpha_left), True
    else:
        alpha, differentiable = min(alpha_right, alpha_left), False
    return CutPointResult(n0=query.n0, boundary_digit=k, coding_left=left,
                          coding_right=right, alpha_left=alpha_left,
                          alpha_right=alpha_right, alpha=alpha,
                          differentiable=differentiable,
                          derivative_left=deriv_left,
                          derivative_right=deriv_right)


def cut_point_exponents(system: SelfAffineSystem, constants: SpectrumConstants,
                        x, *, series_tol: float = 1e-12) -> CutPointResult:
    """Exponent data at a two-coding point given as a number in (0, 1)."""
    _check_series_tol(series_tol)
    query = in_T(system, x)
    if query.member and query.n0 == 0:
        raise errors.Endpoint("0 and 1 are not two-coding points")
    if not query.member:
        raise ValueError(f"x = {x} is not a two-coding point"
                         + ("" if query.decided else " (undecided at depth cap)"))
    return _cut_result(system, constants, query, series_tol)


@dataclass(frozen=True)
class ExponentReport:
    """Two-sided exponent summary for one coding.

    Non-cut points carry per-side results (one of them None at 0 and 1);
    two-coding points carry a CutPointResult instead.
    """
    coding: Coding
    cut_point: bool
    alpha: float
    right: SideExponent | None = None
    left: SideExponent | None = None
    cut: CutPointResult | None = None

    @property
    def alpha_right(self) -> float | None:
        if self.cut is not None:
            return self.cut.alpha_right
        return self.right.alpha if self.right is not None else None

    @property
    def alpha_left(self) -> float | None:
        if self.cut is not None:
            return self.cut.alpha_left
        return self.left.alpha if self.left is not None else None


def exponent_report(system: SelfAffineSystem, constants: SpectrumConstants,
                    coding: Coding, *, horizon: int | None = None,
                    series_tol: float = 1e-12) -> ExponentReport:
    """Route a coding to the applicable exponent computation (_route).

    Eventually constant codings are normalised: the endpoints keep their
    single side, interior two-coding points go through the vertex routine,
    and everything else gets both one-sided liminfs with alpha their minimum.
    The caller's digits are checked once, here.
    Both sides share one pass: finite codings, and periodic ones with a
    horizon, are scanned once for both (see gammas for the path by
    length), other periodic codings get the exact one-period ratio once,
    and the derivative series is summed once.  Each side equals its own
    holder_right / holder_left result.  A negative or nan series_tol
    raises ValueError, as in derivative_series.
    """
    _check_series_tol(series_tol)
    _check_digits(coding, system.r)
    route = _route(coding, system.r)
    if route == "cut":
        cut = _cut_result(system, constants, _cut_query(coding, system.r),
                          series_tol)
        return ExponentReport(coding=coding, cut_point=True,
                              alpha=cut.alpha, cut=cut)
    if route == "plain":
        right, left = _sides(system, constants, coding, ("right", "left"),
                             horizon, series_tol)
        return ExponentReport(coding=coding, cut_point=False,
                              alpha=min(right.alpha, left.alpha),
                              right=right, left=left)
    # x = 0 has only a right side, x = 1 only a left one
    side, = _sides(system, constants, coding,
                   ("right",) if route == "zero" else ("left",), horizon,
                   series_tol)
    return ExponentReport(coding=coding, cut_point=False, alpha=side.alpha,
                          **{side.side: side})
