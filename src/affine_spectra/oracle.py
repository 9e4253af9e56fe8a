"""Empirical cross-checks: oscillation regressions, difference-quotient
derivative checks, and typical-point exponent sampling.

These estimate from function values alone what the exponent layer computes
from digit statistics, so the two can be compared on concrete systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .evaluate import evaluate_many
from .ifs import SelfAffineSystem, _branch_logs

_EVAL_TOL = 1e-18          # keep value noise far below the oscillations read
_UNIFORM_PER_WINDOW = 64
_STRATIFY_FACTOR = 64      # keep basic intervals down to h / 64
_AE_BLOCK = 40_000         # tail digits per a.e. block: buffers stay in cache
_DROP_SCALES = 2           # largest scales left out of a fit (transients)


def default_scales() -> tuple[float, ...]:
    return tuple(2.0 ** -k for k in range(8, 25))


def _window_points(system: SelfAffineSystem, lo: float, hi: float) -> np.ndarray:
    """Window endpoints, a uniform fill, and every basic-interval endpoint
    at scale >= (hi-lo)/64 inside the window.  The endpoints are where the
    oscillation of a self-affine graph peaks, so a plain uniform grid would
    systematically undershoot."""
    h = hi - lo
    pts = {lo, hi}
    thresh = h / _STRATIFY_FACTOR
    a = system.a
    xs = system.xs
    stack = [((0.0, 1.0))]
    while stack:
        left, length = stack.pop()
        if left + length <= lo or left >= hi or length < thresh:
            continue
        if lo <= left <= hi:
            pts.add(left)
        if lo <= left + length <= hi:
            pts.add(left + length)
        for k in range(system.r):
            stack.append((left + length * xs[k], length * a[k]))
    pts.update(np.linspace(lo, hi, _UNIFORM_PER_WINDOW + 2)[1:-1].tolist())
    return np.array(sorted(pts))


@dataclass(frozen=True)
class RegressionEstimate:
    """log-log fit of oscillation against scale.  slope estimates the
    one-sided exponent; subtracted records whether a linear part was removed
    before measuring."""
    slope: float
    intercept: float
    r2: float
    scales: tuple[float, ...]
    oscillations: tuple[float, ...]
    subtracted: bool
    side: str


def _check_osc_side(side: str) -> None:
    if side not in ("right", "left", "both"):
        raise ValueError("side must be 'right', 'left' or 'both'")


def estimate_exponent(system: SelfAffineSystem, xi: float,
                      side: str = "right", scales=None, *,
                      derivative: float | None = None) -> RegressionEstimate:
    """Regress log max|phi - P| over windows of shrinking scale h at xi.

    P is the constant phi(xi), or the tangent line when `derivative` is
    given; exponents above 1 are invisible without subtracting it.  The
    _DROP_SCALES largest scales are excluded from the fit (transients).
    All windows are evaluated in one batch, so a NonConvergence names the
    worst bound over all scales.
    """
    _check_osc_side(side)
    if not 0.0 <= xi <= 1.0:
        raise errors.OutOfDomain(f"xi = {xi} not in [0, 1]")
    if scales is None:
        scales = default_scales()
    scales = sorted((float(h) for h in scales), reverse=True)
    if any(h <= 0.0 for h in scales):
        raise ValueError("scales must be positive")

    windows: list[tuple[float, np.ndarray]] = []
    for h in scales:
        if side == "right":
            lo, hi = xi, xi + h
        elif side == "left":
            lo, hi = xi - h, xi
        else:
            lo, hi = xi - h, xi + h
        if lo < 0.0 or hi > 1.0:
            continue
        pts = _window_points(system, lo, hi)
        if xi not in pts:
            pts = np.sort(np.append(pts, xi))
        windows.append((h, pts))
    usable: list[tuple[float, float]] = []
    if windows:
        # one call for every window: evaluate_many's values do not depend
        # on the batch, and numpy's per-call cost dominates small batches
        flat, _, _ = evaluate_many(
            system, np.concatenate([pts for _, pts in windows]), _EVAL_TOL)
        ends = np.cumsum([pts.size for _, pts in windows])[:-1]
        for (h, pts), values in zip(windows, np.split(flat, ends)):
            base = float(values[np.searchsorted(pts, xi)])
            model = (base if derivative is None
                     else base + derivative * (pts - xi))
            usable.append((h, float(np.max(np.abs(values - model)))))

    if len(usable) < _DROP_SCALES + 3:
        raise errors.DegenerateWindow(
            f"only {len(usable)} scales fit inside [0, 1]; "
            f"need {_DROP_SCALES + 3}")
    kept = usable[_DROP_SCALES:]
    positive = [(h, m) for h, m in kept if m > 0.0]
    if not positive:
        # the model matches exactly at every scale: affine piece
        return RegressionEstimate(
            slope=math.inf, intercept=-math.inf, r2=1.0,
            scales=tuple(h for h, _ in kept),
            oscillations=tuple(m for _, m in kept),
            subtracted=derivative is not None, side=side)
    if len(positive) < 3:
        raise errors.ZeroOscillation(
            "too few nonzero oscillations for a regression")
    xs = np.log([h for h, _ in positive])
    ys = np.log([m for _, m in positive])
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionEstimate(
        slope=float(slope), intercept=float(intercept), r2=r2,
        scales=tuple(h for h, _ in positive),
        oscillations=tuple(m for _, m in positive),
        subtracted=derivative is not None, side=side)


@dataclass(frozen=True)
class DerivativeCheck:
    derivative: float
    side: str
    steps: tuple[float, ...]
    quotients: tuple[float, ...]
    discrepancies: tuple[float, ...]

    @property
    def final_step(self) -> float:
        return self.steps[-1]

    @property
    def final_discrepancy(self) -> float:
        return self.discrepancies[-1]


def check_derivative(system: SelfAffineSystem, xi: float, h_sequence,
                     derivative: float | None, side: str = "right") -> DerivativeCheck:
    """Difference quotients against a claimed one-sided derivative.

    Steps are sorted decreasing; the final (smallest-step) discrepancy is
    the headline number.
    """
    _check_osc_side(side)
    if derivative is None:
        raise errors.NotDifferentiable("no derivative value to check")
    hs = sorted((float(h) for h in h_sequence), reverse=True)
    if not hs or hs[-1] <= 0.0:
        raise ValueError("h_sequence must be positive")
    if side == "right":
        xs = [xi + h for h in hs]
    elif side == "left":
        xs = [xi - h for h in hs]
    else:
        xs = [xi + h for h in hs] + [xi - h for h in hs]
    if any(x < 0.0 or x > 1.0 for x in xs):
        raise errors.OutOfDomain("a step leaves [0, 1]")
    values, _, _ = evaluate_many(system, [xi] + xs, _EVAL_TOL)
    base = float(values[0])
    quots = []
    for i, h in enumerate(hs):
        if side == "right":
            quots.append((float(values[1 + i]) - base) / h)
        elif side == "left":
            quots.append((base - float(values[1 + i])) / h)
        else:
            plus = float(values[1 + i])
            minus = float(values[1 + len(hs) + i])
            quots.append((plus - minus) / (2.0 * h))
    disc = [abs(qt - derivative) for qt in quots]
    return DerivativeCheck(derivative=derivative, side=side, steps=tuple(hs),
                           quotients=tuple(quots), discrepancies=tuple(disc))


def almost_everywhere_exponent(system: SelfAffineSystem) -> float:
    """Exponent at Lebesgue-typical points:
    sum a_k log|d_k| / sum a_k log a_k, infinite when some d_k = 0."""
    if system.index_zero:
        return math.inf
    loga, logd = _branch_logs(system.a, system.d)
    return (math.fsum(ak * lk for ak, lk in zip(system.a, logd))
            / math.fsum(ak * lk for ak, lk in zip(system.a, loga)))


@dataclass(frozen=True)
class AeSample:
    """Monte Carlo draw of the typical-point exponent.

    values holds one estimate per sampled point: the minimum digit-ratio
    over the second half of the horizon (the early-digit transient would
    bias a full running minimum low).  The first half enters only through
    its digit counts, which are drawn as such.  deciles are the 10%..90%
    quantiles.
    """
    values: np.ndarray
    median: float
    deciles: tuple[float, ...]
    fraction_finite: float
    horizon: int
    expected: float


def ae_exponent_sample(system: SelfAffineSystem, n_points: int, horizon: int,
                       seed: int = 0) -> AeSample:
    """Sample n_points uniform points via iid digits and estimate each
    exponent from the first `horizon` digits.

    A point's estimate is the minimum over n in [h0, horizon], h0 =
    horizon // 2, of sum log|d| / sum log a over its first n digits.  The
    first h0 - 1 digits enter only through those sums, which depend only
    on how often each branch occurs: the head is drawn as counts N ~
    Multinomial(h0 - 1, a), and uniforms are drawn only for the tail,
    digits h0..horizon.  Counts and tail uniforms come from the two
    streams of SeedSequence(seed).spawn(2), each consumed in point order.

    Points are drawn in row blocks of about 40k tail digits that reuse
    three buffers, so memory stays at a few MB whatever n_points is and
    time is linear in n_points * horizon.  The two streams, and hence
    every value, are the same for any block size.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if horizon < 4:
        raise errors.HorizonTooSmall("horizon must be >= 4")
    count_seq, tail_seq = np.random.SeedSequence(seed).spawn(2)
    count_rng = np.random.default_rng(count_seq)
    tail_rng = np.random.default_rng(tail_seq)
    a = np.asarray(system.a)
    cum = np.cumsum(a)
    loga, logd = _branch_logs(system.a, system.d)
    # one complex gather and one cumsum carry both sums: real and imaginary
    # parts are added, and rounded, exactly as two float64 cumsums
    table = np.array(logd) + 1j * np.array(loga)
    h0 = horizon // 2
    tail = horizon - h0 + 1

    values = np.empty(n_points)
    rows = min(n_points, max(1, _AE_BLOCK // tail))
    u = np.empty((rows, tail))
    digits = np.empty((rows, tail), dtype=np.intp)
    z = np.empty((rows, tail), dtype=complex)
    for start in range(0, n_points, rows):
        m = min(rows, n_points - start)
        um, dm, zm = u[:m], digits[:m], z[:m]
        counts = count_rng.multinomial(h0 - 1, a, size=m)
        # the head sums, added branch by branch; a d = 0 branch that occurs
        # makes the log|d| sum -inf (0 * -inf would be nan)
        head = np.zeros(m, dtype=complex)
        for k in range(system.r):
            nk = counts[:, k]
            if logd[k] == -math.inf:
                head.real[nk > 0] = -math.inf
            else:
                head.real += nk * logd[k]
            head.imag += nk * loga[k]
        tail_rng.random(out=um)
        # u < 1 = the last cumulative width, so counting the inner cuts at
        # or below u is searchsorted(cum, u, side="right")
        np.greater_equal(um, cum[0], out=dm)
        for c in cum[1:-1]:
            dm += um >= c
        # the digits are in range; mode="raise" would buffer the output
        np.take(table, dm, out=zm, mode="clip")
        zm[:, 0] += head
        np.cumsum(zm, axis=1, out=zm)
        ratio = np.divide(zm.real, zm.imag, out=um)
        vals = ratio.min(axis=1, out=values[start:start + m])
        # a d = 0 digit, in the head or the tail, turns the log|d| sums
        # into -inf from there to the end of the row
        vals[zm.real[:, -1] == -np.inf] = np.inf

    finite = np.isfinite(values)
    # order statistics: interpolating between two infinities would give nan
    deciles = tuple(float(v) for v in
                    np.percentile(values, range(10, 100, 10), method="lower"))
    median = float(np.percentile(values, 50, method="lower")) \
        if not finite.all() else float(np.median(values))
    return AeSample(values=values, median=median, deciles=deciles,
                    fraction_finite=float(finite.mean()), horizon=horizon,
                    expected=almost_everywhere_exponent(system))
