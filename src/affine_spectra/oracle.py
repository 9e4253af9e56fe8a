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
_AE_BLOCK = 40_000         # tail digits per a.e. chunk: buffers stay in cache
_AE_GROUP = 1024           # points whose tails are drawn step by step together
_AE_NARROW = 192           # narrower groups: one cumsum, a folded minimum
_LO_BITS = 37              # bits of a 53-bit draw below its 16-bit lane
_LO_MASK = (1 << _LO_BITS) - 1
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


# each side's window at scale h is [xi + s_lo h, xi + s_hi h]
_SIDES = {"right": (0.0, 1.0), "left": (-1.0, 0.0), "both": (-1.0, 1.0)}


def _side_steps(side: str) -> tuple[float, float]:
    """(s_lo, s_hi) of a side, from _SIDES; ValueError for any other."""
    try:
        return _SIDES[side]
    except (KeyError, TypeError):
        raise ValueError("side must be 'right', 'left' or 'both'") from None


def estimate_exponent(system: SelfAffineSystem, xi: float,
                      side: str = "right", scales=None, *,
                      derivative: float | None = None) -> RegressionEstimate:
    """Regress log max|phi - P| over windows of shrinking scale h at xi.

    The window at scale h is [xi + s_lo h, xi + s_hi h], (s_lo, s_hi) the
    side's entry of _SIDES; scales whose window leaves [0, 1], infinite
    ones too, are skipped.  A scale that is not > 0 (NaN included) and a
    non-finite derivative raise ValueError.
    P is the constant phi(xi), or the tangent line when `derivative` is
    given; exponents above 1 are invisible without subtracting it.  The
    _DROP_SCALES largest scales are excluded from the fit (transients).
    All windows are evaluated in one batch, so a NonConvergence names the
    worst bound over all scales.
    """
    s_lo, s_hi = _side_steps(side)
    if not 0.0 <= xi <= 1.0:
        raise errors.OutOfDomain(f"xi = {xi} not in [0, 1]")
    if derivative is not None and not math.isfinite(derivative):
        raise ValueError(f"derivative must be finite, got {derivative}")
    if scales is None:
        scales = default_scales()
    scales = sorted((float(h) for h in scales), reverse=True)
    if not all(h > 0.0 for h in scales):
        raise ValueError("scales must be positive")

    windows: list[tuple[float, np.ndarray]] = []
    for h in scales:
        lo, hi = xi + s_lo * h, xi + s_hi * h
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

    At step h the quotient is (phi(xi + s_hi h) - phi(xi + s_lo h)) /
    ((s_hi - s_lo) h), (s_lo, s_hi) the side's entry of _SIDES: forward,
    backward or central.  A step that is not > 0 (NaN included) and a
    non-finite derivative raise ValueError; a point outside [0, 1] raises
    OutOfDomain.  Steps are sorted decreasing; the final (smallest-step)
    discrepancy is the headline number.
    """
    s_lo, s_hi = _side_steps(side)
    if derivative is None:
        raise errors.NotDifferentiable("no derivative value to check")
    if not math.isfinite(derivative):
        raise ValueError(f"derivative must be finite, got {derivative}")
    hs = sorted((float(h) for h in h_sequence), reverse=True)
    if not hs or not all(h > 0.0 for h in hs):
        raise ValueError("h_sequence must be positive")
    ends = [(xi + s_lo * h, xi + s_hi * h) for h in hs]
    if not all(0.0 <= x <= 1.0 for pair in ends for x in pair):
        raise errors.OutOfDomain("a step leaves [0, 1]")
    # each distinct point once: on one side every lower or upper end is xi
    points = list(dict.fromkeys(x for pair in ends for x in pair))
    values, _, _ = evaluate_many(system, points, _EVAL_TOL)
    phi = dict(zip(points, values.tolist()))
    quots = [(phi[hi] - phi[lo]) / ((s_hi - s_lo) * h)
             for (lo, hi), h in zip(ends, hs)]
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
    its digit counts, which are drawn as such; the second half's digits
    are drawn with the law of a uniform 53-bit double, from 16-bit lanes
    and tie bits (see ae_exponent_sample).  deciles are the 10%..90%
    quantiles.
    """
    values: np.ndarray
    median: float
    deciles: tuple[float, ...]
    fraction_finite: float
    horizon: int
    expected: float


def _cut_keys(cum) -> list[tuple[int, int]]:
    """The inner cuts as 53-bit integers K = ceil(c 2^53), each split into
    its top 16 bits and its low 37: a draw k 2^-53 (k a 53-bit integer, as
    numpy's doubles are made) is >= c exactly when k >= K.  A cut at or
    above 1 is never reached and is left out."""
    keys = (math.ceil(c * 2.0 ** 53) for c in cum[:-1])
    return [(k >> _LO_BITS, k & _LO_MASK) for k in keys if k < 2 ** 53]


def _lanes(bitgen, steps: int, width: int) -> np.ndarray:
    """The next steps x width 16-bit lanes, four per PCG64 raw output, each
    output's lanes taken low bits first on any host; the last output's
    lanes past steps x width are discarded."""
    n = steps * width
    raw = bitgen.random_raw(-(-n // 4)).astype("<u8", copy=False)
    return raw.view("<u2")[:n].reshape(steps, width)


def _digits(hi: np.ndarray, keys, tie_bits, out: np.ndarray) -> None:
    """Digits of k = hi 2^37 + lo into out (C-contiguous, shaped as hi):
    the number of cuts K <= k.  The top bits hi decide every cut they do
    not equal; lo is drawn only at a position whose hi equals some cut's
    top bits, one 37-bit draw from tie_bits per such position in C order,
    so the digit has exactly the law of searchsorted(cum, k 2^-53)."""
    tied = hi == keys[0][0]
    np.greater(hi, keys[0][0], out=out)
    for top, _ in keys[1:]:
        out += hi > top
        tied |= hi == top
    at = np.flatnonzero(tied)
    if at.size:
        lo = tie_bits.random_raw(at.size) >> np.uint64(64 - _LO_BITS)
        top_at = hi.reshape(-1)[at]
        flat = out.reshape(-1)
        for top, low in keys:
            flat[at] += (top_at == top) & (lo >= low)


def _min_rows(u: np.ndarray) -> np.ndarray:
    """u.min(axis=0), found by folding the rows' halves together in place:
    exact as any minimum, and fast on the tall narrow arrays where numpy
    reduces along the first axis a few elements at a time."""
    m = u.shape[0]
    while m > 1:
        half = m // 2
        np.minimum(u[:half], u[m - half:m], out=u[:half])
        m -= half
    return u[0]


def ae_exponent_sample(system: SelfAffineSystem, n_points: int, horizon: int,
                       seed: int = 0) -> AeSample:
    """Sample n_points uniform points via iid digits and estimate each
    exponent from the first `horizon` digits.

    A point's estimate is the minimum over n in [h0, horizon], h0 =
    horizon // 2, of sum log|d| / sum log a over its first n digits.  The
    first h0 - 1 digits enter only through those sums, which depend only
    on how often each branch occurs: the head is drawn as counts N ~
    Multinomial(h0 - 1, a), and digits are drawn only for the tail,
    digits h0..horizon.

    A tail digit is where a 53-bit uniform k falls among the cuts
    cumsum(a), as for a double k 2^-53.  Its top 16 bits, one lane of a
    PCG64 raw output, decide every cut whose own top 16 bits differ; only
    on a tie (probability 2^-16 a cut) are its 37 low bits drawn.

    Points go in groups of _AE_GROUP, and a group's tails are drawn one
    step at a time across its points, so the running sums advance by one
    vector add a step.  The three streams of SeedSequence(seed).spawn(3)
    give the head counts (one multinomial per group, in point order), the
    lanes (step by step, in point order within a step, the lanes left in
    a group's last raw output discarded) and the tie bits (in the same
    order), so the values depend on _AE_GROUP.

    A group's steps are drawn in chunks of about _AE_BLOCK digits, a
    multiple of four steps, that reuse three buffers, so memory stays at a
    few MB whatever n_points is and time is linear in n_points * horizon.
    Every value is the same for any chunk size and either way of adding
    the steps.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if horizon < 4:
        raise errors.HorizonTooSmall("horizon must be >= 4")
    count_seq, lane_seq, tie_seq = np.random.SeedSequence(seed).spawn(3)
    count_rng = np.random.default_rng(count_seq)
    lane_bits = np.random.PCG64(lane_seq)
    tie_bits = np.random.PCG64(tie_seq)
    a = np.asarray(system.a)
    keys = _cut_keys(np.cumsum(a))
    loga, logd = _branch_logs(system.a, system.d)
    # one complex gather and one running sum carry both sums: real and
    # imaginary parts are added, and rounded, exactly as two float64 sums
    table = np.array(logd) + 1j * np.array(loga)
    h0 = horizon // 2
    tail = horizon - h0 + 1

    values = np.empty(n_points)
    for start in range(0, n_points, _AE_GROUP):
        g = min(_AE_GROUP, n_points - start)
        # a chunk of a multiple of four steps takes whole raw outputs, so
        # the lanes do not depend on where the chunks end
        steps = min(tail, 4 * -(-_AE_BLOCK // (4 * g)))
        digits = np.empty((steps, g), dtype=np.intp)
        z = np.empty((steps, g), dtype=complex)
        ratio = np.empty((steps, g))
        counts = count_rng.multinomial(h0 - 1, a, size=g)
        # the head sums, added branch by branch; a d = 0 branch that occurs
        # makes the log|d| sum -inf (0 * -inf would be nan)
        run = np.zeros(g, dtype=complex)
        for k in range(system.r):
            nk = counts[:, k]
            if logd[k] == -math.inf:
                run.real[nk > 0] = -math.inf
            else:
                run.real += nk * logd[k]
            run.imag += nk * loga[k]
        low = values[start:start + g]
        low[:] = np.inf
        for first in range(0, tail, steps):
            m = min(steps, tail - first)
            dm, zm, um = digits[:m], z[:m], ratio[:m]
            _digits(_lanes(lane_bits, m, g), keys, tie_bits, dm)
            # the digits are in range; mode="raise" would buffer the output
            np.take(table, dm, out=zm, mode="clip")
            zm[0] += run
            if g < _AE_NARROW:
                np.cumsum(zm, axis=0, out=zm)
            else:
                # the same adds in the same order as the cumsum, one step
                # across the group at a time
                for prev, row in zip(zm, zm[1:]):
                    np.add(prev, row, out=row)
            run[:] = zm[-1]
            np.divide(zm.real, zm.imag, out=um)
            np.minimum(low, _min_rows(um) if g < _AE_NARROW
                       else um.min(axis=0), out=low)
        # a d = 0 digit, in the head or the tail, turns the log|d| sum
        # into -inf from there to the end
        low[run.real == -np.inf] = np.inf

    finite = np.isfinite(values)
    # order statistics: interpolating between two infinities would give nan
    deciles = tuple(float(v) for v in
                    np.percentile(values, range(10, 100, 10), method="lower"))
    median = float(np.percentile(values, 50, method="lower")) \
        if not finite.all() else float(np.median(values))
    return AeSample(values=values, median=median, deciles=deciles,
                    fraction_finite=float(finite.mean()), horizon=horizon,
                    expected=almost_everywhere_exponent(system))
