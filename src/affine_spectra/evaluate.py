"""Evaluation of phi with certified error bounds, plus the one-sided
derivative series and divided-difference utilities.

Values accumulate the affine recursion phi(g_n(t)) = A_n + B_n t + R_n phi(t)
along the digits of x; once |R_n| sup|phi| falls below tol the unknown
phi(t) is replaced by the midpoint 0 of the a-priori range.  Landing exactly
on 0 or 1 closes with the exact endpoint ordinate.  All tolerance contracts
are relative to IEEE double arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors
from .coding import Coding, _check_digits
from .ifs import SelfAffineSystem

_DEFAULT_MAX_DEPTH = 500_000
_BLOCK = 8_192       # points per block: a block's working arrays stay in cache


def sup_bound(system: SelfAffineSystem) -> float:
    """A priori bound: sup |phi| <= max_k(|c_k| + |e_k|) / (1 - max_k |d_k|)."""
    top = max(abs(br.c) + abs(br.e) for br in system.branches)
    dmax = max(abs(br.d) for br in system.branches)
    return top / (1.0 - dmax)


@dataclass(frozen=True)
class EvalResult:
    value: float
    error_bound: float
    depth_used: int


def evaluate_many(system: SelfAffineSystem, xs, tol: float,
                  max_depth: int | None = None):
    """Vectorised evaluate.  Returns (values, error_bounds, depths) arrays.

    Exact vertex hits return the stored ordinate with a zero bound.  Other
    points run in blocks of _BLOCK through compact arrays, and each leaves
    its block at the step where it stops.  Every point sees the operations
    of evaluate in the same order, so results are bitwise those of evaluate
    and do not depend on the batch or its partition into blocks.  Cost is
    linear in the sum of the depths; beyond the per-point arrays, memory is
    bounded by the block.  NonConvergence reports the worst bound left at
    the depth cap over all blocks.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    pts = np.asarray(xs, dtype=float)
    flat = pts.ravel()
    if flat.size and not (np.isfinite(flat).all()
                          and flat.min() >= 0.0 and flat.max() <= 1.0):
        raise errors.OutOfDomain("points must lie in [0, 1]")
    if max_depth is None:
        max_depth = _DEFAULT_MAX_DEPTH

    part = np.asarray(system.xs)
    cuts = system.xs[1:-1]
    # rows x_{k-1}, a_k, e_k, c_k, d_k of branch k, gathered in one take
    consts = np.array([system.xs[:-1], system.a, system.e, system.c,
                       system.d])
    y0, yr = system.ys[0], system.ys[-1]
    bound = sup_bound(system)

    # rows t, A, B, R: each point's state, written back when it stops
    state = np.zeros((4, flat.size))
    state[0] = flat
    state[3] = 1.0
    depth = np.zeros(flat.shape, dtype=np.int64)

    # exact vertex hits bypass the recursion entirely; with bound <= tol
    # every other point stops at depth 0 too
    vidx = np.clip(np.searchsorted(part, flat), 0, len(part) - 1)
    exact_vertex = part[vidx] == flat
    live = np.flatnonzero(~exact_vertex & (bound > tol))

    size = min(live.size, _BLOCK)
    kbuf = np.empty(size, dtype=np.intp)
    fbuf = np.empty(size)
    gbuf = np.empty(5 * size)
    bbuf = np.empty((2, size), dtype=bool)
    worst = 0.0          # a point left at the cap has |R| bound > tol > 0
    for start in range(0, live.size, _BLOCK):
        pos = live[start:start + _BLOCK].copy()
        block = state.take(pos, 1)
        m = 0
        step = 0
        while True:
            if m != pos.size:        # first step, or the block shrank
                m = pos.size
                t, A, B, R = block
                k, f, (still, mask) = kbuf[:m], fbuf[:m], bbuf[:, :m]
                gathered = gbuf[:5 * m].reshape(5, m)
                left, ak, ek, ck, dk = gathered
            if step >= max_depth:
                worst = max(worst, float((np.abs(R) * bound).max()))
                capped = step
                break
            # branch k + 1 holds t when exactly k cuts are <= t
            np.greater_equal(t, cuts[0], k)
            for cut in cuts[1:]:
                np.greater_equal(t, cut, mask)
                np.add(k, mask, k)
            consts.take(k, 1, gathered, "wrap")
            np.subtract(t, left, t)
            # x_{k-1} <= t, so the rounded difference is never negative
            np.divide(t, ak, t)
            np.multiply(B, left, f)
            np.multiply(R, ek, ek)
            np.add(f, ek, f)
            np.add(A, f, A)
            np.multiply(B, ak, B)
            np.multiply(R, ck, ck)
            np.add(B, ck, B)
            np.multiply(R, dk, R)
            step += 1
            # stop test: |R| bound <= tol, or the orbit sits on 0 or 1
            np.abs(R, f)
            np.multiply(f, bound, f)
            np.greater(f, tol, still)
            np.not_equal(t, 0.0, mask)
            np.logical_and(still, mask, still)
            np.not_equal(t, 1.0, mask)
            np.logical_and(still, mask, still)
            n_still = np.count_nonzero(still)
            if n_still < m:
                gone = np.flatnonzero(~still)
                done = pos[gone]
                state[:, done] = block[:, gone]
                depth[done] = step
                if not n_still:
                    break
                # points still running above n_still fill the holes below
                holes = gone[:gone.searchsorted(n_still)]
                movers = n_still + np.flatnonzero(still[n_still:])
                block[:, holes] = block[:, movers]
                pos[holes] = pos[movers]
                block, pos = block[:, :n_still], pos[:n_still]
    if worst:
        raise errors.NonConvergence(
            f"depth cap {max_depth} hit; achieved bound {worst:g} > tol {tol:g}",
            achieved_bound=worst, depth=capped)

    t, A, B, R = state
    closing = np.where(t == 0.0, y0, np.where(t == 1.0, yr, 0.0))
    values = A + B * t + R * closing
    errs = np.where((t == 0.0) | (t == 1.0), 0.0, np.abs(R) * bound)
    if exact_vertex.any():
        yarr = np.asarray(system.ys)
        values[exact_vertex] = yarr[vidx[exact_vertex]]
        errs[exact_vertex] = 0.0
    return (values.reshape(pts.shape), errs.reshape(pts.shape),
            depth.reshape(pts.shape))


@lru_cache(maxsize=128)
def _table(system: SelfAffineSystem):
    """What scalar evaluate reads, built once per system: the abscissae,
    the cuts, a tuple (x_{k-1}, a_k, c_k, d_k, e_k) per branch and
    sup_bound."""
    xs = system.xs
    rows = tuple(zip(xs[:-1], system.a, system.c, system.d, system.e))
    return xs, xs[1:-1], rows, sup_bound(system)


def evaluate(system: SelfAffineSystem, x: float, tol: float,
             max_depth: int | None = None) -> EvalResult:
    """phi(x) with |returned - phi(x)| <= error_bound <= tol.

    The one-point form of evaluate_many, in plain floats: numpy's per-call
    cost on a 1-element array is most of the time of a scalar query.  It
    makes the same branch choice (x_k <= t selects branch k + 1), the same
    operations in the same order and the same stop, vertex and endpoint
    tests, so value, error_bound and depth_used are bitwise equal to
    evaluate_many(system, [x], tol), and the same errors are raised.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    t = float(x)
    if not 0.0 <= t <= 1.0:      # NaN fails too
        raise errors.OutOfDomain("points must lie in [0, 1]")
    if max_depth is None:
        max_depth = _DEFAULT_MAX_DEPTH
    part, cuts, rows, bound = _table(system)
    if t in part:
        return EvalResult(system.ys[part.index(t)], 0.0, 0)

    A, B, R = 0.0, 0.0, 1.0
    depth = 0
    while abs(R) * bound > tol and t != 0.0 and t != 1.0:
        if depth >= max_depth:
            worst = abs(R) * bound
            raise errors.NonConvergence(
                f"depth cap {max_depth} hit; achieved bound {worst:g} > tol {tol:g}",
                achieved_bound=worst, depth=depth)
        # branch k + 1 holds t when exactly k cuts are <= t
        left, a, c, d, e = rows[bisect_right(cuts, t)]
        t = (t - left) / a    # left <= t: the difference is never negative
        A += B * left + R * e
        B = B * a + R * c
        R = R * d
        depth += 1

    if t == 0.0 or t == 1.0:
        closing = system.ys[0] if t == 0.0 else system.ys[-1]
        return EvalResult(A + B * t + R * closing, 0.0, depth)
    return EvalResult(A + B * t, abs(R) * bound, depth)


def sample(system: SelfAffineSystem, n_points: int, tol: float):
    """Uniform grid including both endpoints: (xs, values, error_bounds)."""
    if n_points < 2:
        raise ValueError("need at least 2 points")
    xs = np.linspace(0.0, 1.0, n_points)
    values, errs, _ = evaluate_many(system, xs, tol)
    return xs, values, errs


def _derivative(system: SelfAffineSystem, coding: Coding):
    """The series of derivative_series and a bound on its rounding error.

    Running error analysis (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3): a running product of m ratios is within m u of the
    exact product, relatively, and each rounded operation adds at most u
    times its computed result, u = 2^-53.  The bound sums these first-order
    terms and is inflated by 1% for the second-order ones; it ignores
    underflow.  Returns (value, bound).
    """
    if coding.period is None and system.index_zero.isdisjoint(coding.prefix):
        raise errors.TailBoundUnavailable(
            "tail bound needs an eventually periodic coding")
    a, c, d = system.a, system.c, system.d
    eps = 1.01 * 2.0 ** -53
    total, err = 0.0, 0.0    # prefix sum; its error over eps
    P, n = 1.0, 0            # signed prod_{i<m} d/a, within n eps of exact
    for k in coding.prefix:
        ck, dk = c[k - 1] / a[k - 1], d[k - 1] / a[k - 1]
        term = ck * P
        total += term
        err += (n + 2) * abs(term) + abs(total)
        if dk == 0.0:
            return total, eps * err    # the series terminates exactly
        P *= dk
        n += 2

    S, m, errS = 0.0, 0, 0.0  # the same over one period, from Q = 1
    Q = 1.0
    for k in coding.period:
        ck, dk = c[k - 1] / a[k - 1], d[k - 1] / a[k - 1]
        term = ck * Q
        S += term
        errS += (m + 2) * abs(term) + abs(S)
        Q *= dk
        m += 2
    if not abs(Q) < 1.0:
        raise errors.NotDifferentiable(
            "period is not width-contracting; the series diverges")
    den = 1.0 - Q
    den_err = eps * (m * abs(Q) + abs(den))
    if den_err >= den:
        return math.nan, math.inf     # 1 - Q may vanish
    num = P * S
    num_err = eps * (abs(P) * errS + (n + 1) * abs(num))
    tail = num / den
    value = total + tail
    tail_err = (num_err + abs(tail) * den_err) / (den - den_err)
    return value, eps * (err + abs(tail) + abs(value)) + tail_err


def _series(system: SelfAffineSystem, coding: Coding, tol: float) -> float:
    """derivative_series of a checked coding, without the gamma test."""
    value, bound = _derivative(system, coding)
    if not bound <= tol * max(1.0, abs(value)):
        raise errors.TailBoundUnavailable(
            f"rounding bound {bound:g} above tol {tol:g} x max(1, |value|)"
            f" at value {value:g}")
    return value


def derivative_series(system: SelfAffineSystem, coding: Coding,
                      tol: float = 1e-12, *,
                      gamma: float | None = None) -> float:
    """One-sided derivative at the point addressed by the coding:

        sum_m (c_{k_m} / a_{k_m}) prod_{i<m} (d_{k_i} / a_{k_i}).

    For an eventually periodic coding the series is one geometric sum,
    prefix + P S / (1 - Q), where P is the product of d/a over the prefix,
    Q the same over one period and S the series of one period alone; no
    window is iterated.  A digit with d = 0 ends the series exactly.  The
    value carries a running bound on its rounding error, which grows like
    u / (1 - |Q|) as |Q| nears 1, and is returned only when that bound is
    at most tol * max(1, |value|): tol is relative for derivatives above 1
    in magnitude, whose last bit alone can exceed an absolute tol.

    Raises NotDifferentiable when the supplied exponent gamma is <= 1 or the
    period is not contracting relative to the widths (|Q| >= 1);
    TailBoundUnavailable, before any summing, for a coding that is neither
    periodic nor ended by a d = 0 digit, and with the bound named when the
    bound exceeds tol * max(1, |value|).
    """
    _check_digits(coding, system.r)
    if gamma is not None and not gamma > 1.0:
        raise errors.NotDifferentiable(f"exponent {gamma} <= 1")
    return _series(system, coding, tol)


def divided_difference(points, values) -> float:
    """Top coefficient f[x_0, ..., x_n] of the Newton table.

    Vanishes on polynomials of degree below n; points must be pairwise
    distinct.
    """
    xs = [float(p) for p in points]
    if len(set(xs)) != len(xs):
        raise errors.DuplicateAbscissa("points must be pairwise distinct")
    if len(xs) != len(values):
        raise ValueError("points and values must have equal length")
    col = [float(v) for v in values]
    n = len(xs)
    for level in range(1, n):
        col = [(col[i + 1] - col[i]) / (xs[i + level] - xs[i])
               for i in range(n - level)]
    return col[0]


def oscillation_lower_bound(points, values, dd: float | None = None) -> float:
    """Deviation of f from every polynomial P of degree below N:

        max_k |f(x_k) - P(x_k)| >= N! (delta/2)^N |f[x_0..x_N]|

    with delta the smallest gap of the strictly increasing points.  The
    divided difference kills P, and each Newton weight is at most
    (delta^N i! (N-i)!)^-1.
    """
    xs = [float(p) for p in points]
    if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
        raise errors.NotIncreasing("points must be strictly increasing")
    if dd is None:
        dd = divided_difference(xs, values)
    n = len(xs) - 1
    delta = min(xs[i + 1] - xs[i] for i in range(n))
    return math.factorial(n) * (delta / 2.0) ** n * abs(dd)
