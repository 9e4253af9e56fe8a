"""Evaluation of phi with a bound on truncating its recursion, plus the
one-sided derivative series and divided-difference utilities.

Values accumulate the affine recursion phi(g_n(t)) = A_n + B_n t + R_n phi(t)
along the digits of x; once |R_n| sup|phi| falls below tol the unknown
phi(t) is replaced by the midpoint 0 of the a-priori range.  Landing exactly
on 0 or 1 closes with the exact endpoint ordinate.  The error bound
|R_n| sup|phi| covers only that truncation, not the rounding of the float
orbit and of the accumulated value, so the distance to the exact phi can
exceed it (at tol 1e-12 it does on okamoto:5/6, okamoto:0.6 and
takagi:0.5).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors
from ._records import record
from .coding import Coding, _check_digits, _word_length
from .ifs import SelfAffineSystem, sup_bound

_DEFAULT_MAX_DEPTH = 500_000
_BLOCK = 8_192       # points per block: a block's working arrays stay in cache


@dataclass(frozen=True)
class EvalResult:
    value: float
    error_bound: float
    depth_used: int


def _words(system: SelfAffineSystem):
    """The word length m and one affine map per word of m digits.

    Word w = k_1 ... k_m (0-based branches, index sum_i k_i r^(m-i)) maps
    t = L_w + V_w t' and phi(t) = A_w + B_w t' + R_w phi(t'), the m steps
    of evaluate composed.  The doubles x_{k-1}, a_k, e_k, c_k, d_k
    are integers over a common 2^S, so words of length j are integers over
    2^(jS): each entry is composed exactly and rounded once, and words of
    one digit are the system's coefficients.  m is the longest length with
    r^m <= 256 (coding._word_length, which also sizes the word table of
    coding_of_point).  An orbit cannot pass through 1 inside a word: a_r is
    1 - x_{r-1} in doubles, so the float step of branch r fixes t = 1.
    Returns (m, a tuple of (L_w, V_w, A_w, B_w, R_w) in word order).
    """
    xs = system.xs
    m = _word_length(system.r)
    rows = [[v.as_integer_ratio() for v in row] for row in
            zip(xs[:-1], system.a, system.e, system.c, system.d)]
    S = max(q.bit_length() for row in rows for _, q in row) - 1
    digits = [[p << (S + 1 - q.bit_length()) for p, q in row] for row in rows]
    level = [(0, 1, 0, 0, 1)]        # the empty word, over 2^0
    for j in range(m):
        shift = j * S
        level = [((x << shift) + a * L, a * V, (e << shift) + c * L + d * A,
                  c * V + d * B, d * R)
                 for x, a, e, c, d in digits for L, V, A, B, R in level]
    den = 1 << (m * S)
    return m, tuple(tuple(v / den for v in word) for word in level)


def _compact(block, pos, keep, n_keep):
    """Move the points of the block marked in keep to its front, in
    place; returns the shortened block and positions."""
    gone = np.flatnonzero(~keep)
    holes = gone[:gone.searchsorted(n_keep)]
    movers = n_keep + np.flatnonzero(keep[n_keep:])
    # one row at a time: 2-d fancy indexing is several times slower
    for row in (*block, pos):
        row.put(holes, row.take(movers))
    return block[:, :n_keep], pos[:n_keep]


def _move(dest, dpos, n, block, pos, out, step):
    """Append the rows t, A, B, R, depth and the positions of the points
    of the block marked in out to dest and dpos at n, their depth raised
    by step; returns the new count."""
    gone = np.flatnonzero(out)
    end = n + gone.size
    # one row at a time: 2-d fancy indexing is several times slower
    for row, to in zip((*block, pos), (*dest, dpos)):
        row.take(gone, 0, to[n:end])
    dest[4, n:end] += step
    return end


def _running(R, t, bound, tol, f, g, still, mask):
    """Marks in still, and counts, the points that go on: |R| bound > tol
    and t not on 0 or 1.  Leaves |R| in f and |R| bound in g."""
    np.abs(R, f)
    np.multiply(f, bound, g)
    np.greater(g, tol, still)
    np.not_equal(t, 0.0, mask)
    np.logical_and(still, mask, still)
    np.not_equal(t, 1.0, mask)
    np.logical_and(still, mask, still)
    return np.count_nonzero(still)


def _by_words(block, pos, m, cuts, steps, words, rmax, bound, tol, passes):
    """At most `passes` word passes over one block of running points.

    block holds the rows t, A, B, R and depth, all at depth 0.  Each pass
    steps t digit by digit, as evaluate does, and builds the word index;
    A, B and R then take the word's map once.  A point whose word would
    end with |R| bound <= tol, or with t on 0 or 1, does not take it: it
    is set aside with its state at the start of the word.  A point that
    every word would stop, |R| rmax bound <= tol with rmax = max_w |R_w|
    (rounding is monotone), is set aside at the end of its word instead,
    which skips a word it would not take; so is every point after the
    last pass.  Returns the rows and positions of the set-aside points.
    """
    size = pos.size
    r = len(cuts) + 1
    aside, apos = np.empty((5, size)), np.empty(size, dtype=np.intp)
    na = 0
    wbuf = np.empty(size, dtype=np.uint8)
    kbuf = np.empty(size, dtype=np.intp)
    bbuf = np.empty((3, size), dtype=bool)
    fbuf = np.empty((3, size))
    gbuf = np.empty(7 * size)
    n = 0
    step = 0
    while True:
        if n != pos.size:            # first pass, or the block shrank
            n = pos.size
            t, A, B, R, _ = block
            w, k = wbuf[:n], kbuf[:n]
            (still, nxt, mask), (u, f, g) = bbuf[:, :n], fbuf[:, :n]
            bit = mask.view(np.uint8)
            gathered = gbuf[:7 * n].reshape(7, n)
            left, a = gathered[:2]
            L, V, Aw, Bw, Rw = gathered[2:]
        # the word index is below r^m <= 256: one byte
        w.fill(0)
        src = t
        for _ in range(m):
            # branch j + 1 holds u when exactly j cuts are <= u
            np.multiply(w, r, w)
            for cut in cuts:
                np.greater_equal(src, cut, mask)
                np.add(w, bit, w)
            np.copyto(k, w)
            steps.take(k, 1, gathered[:2], "wrap")
            np.subtract(src, left, u)
            # x_{j-1} <= u, so the rounded difference is never negative
            np.divide(u, a, u)
            src = u
        words.take(k, 1, gathered[2:], "wrap")
        np.multiply(R, Rw, Rw)
        # the point takes the word when the word does not stop it
        n_still = _running(Rw, u, bound, tol, f, g, still, mask)
        passes -= 1
        # and some word after it need not stop the point (none may follow
        # the last pass)
        np.multiply(f, rmax if passes else 0.0, f)
        np.multiply(f, bound, f)
        np.greater(f, tol, nxt)
        np.logical_and(nxt, still, nxt)
        n_next = np.count_nonzero(nxt)
        if n_still < n:
            na = _move(aside, apos, na, block, pos, ~still, step)
        np.multiply(B, L, L)
        np.multiply(R, Aw, Aw)
        np.add(L, Aw, L)
        np.add(A, L, A)
        np.multiply(B, V, B)
        np.multiply(R, Bw, Bw)
        np.add(B, Bw, B)
        np.copyto(R, Rw)
        np.copyto(t, u)
        step += m
        if n_next < n_still:
            na = _move(aside, apos, na, block, pos, still ^ nxt, step)
        if n_next < n:
            if not n_next:
                return aside, apos
            block, pos = _compact(block, pos, nxt, n_next)


def _by_digits(block, pos, cuts, digits, bound, tol, max_depth):
    """Digit passes over one block of running points, each from its own
    depth, until each stops or its depth reaches max_depth.

    block holds the rows t, A, B, R and depth.  Returns the rows and
    positions of the points where they stop, and the largest |R| bound
    among the points stopped by the cap, or 0.
    """
    size = pos.size
    done, dpos = np.empty((5, size)), np.empty(size, dtype=np.intp)
    nd = 0
    kbuf = np.empty(size, dtype=np.intp)
    fbuf = np.empty(size)
    gbuf = np.empty(5 * size)
    bbuf = np.empty((2, size), dtype=bool)
    cap_at = max_depth - int(block[4].max())
    worst = 0.0
    n = 0
    step = 0
    while True:
        if n != pos.size:            # first step, or the block shrank
            n = pos.size
            t, A, B, R, D = block
            k, f, (still, mask) = kbuf[:n], fbuf[:n], bbuf[:, :n]
            gathered = gbuf[:5 * n].reshape(5, n)
            left, ak, ek, ck, dk = gathered
        if step >= cap_at:
            # points whose depth reached the cap leave with their bound
            np.less(D, max_depth - step, still)
            n_still = np.count_nonzero(still)
            if n_still < n:
                out = ~still
                worst = max(worst, float((np.abs(R[out]) * bound).max()))
                nd = _move(done, dpos, nd, block, pos, out, step)
                if not n_still:
                    return done, dpos, worst
                block, pos = _compact(block, pos, still, n_still)
                continue
        # branch j + 1 holds t when exactly j cuts are <= t
        np.greater_equal(t, cuts[0], k)
        for cut in cuts[1:]:
            np.greater_equal(t, cut, mask)
            np.add(k, mask, k)
        digits.take(k, 1, gathered, "wrap")
        np.subtract(t, left, t)
        # x_{j-1} <= t, so the rounded difference is never negative
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
        n_still = _running(R, t, bound, tol, f, f, still, mask)
        if n_still < n:
            nd = _move(done, dpos, nd, block, pos, ~still, step)
            if not n_still:
                return done, dpos, worst
            block, pos = _compact(block, pos, still, n_still)


def _orbits(system: SelfAffineSystem, flat, tol: float, max_depth: int):
    """The orbits of evaluate_many before the closing step, one block of
    _BLOCK points of flat at a time.  Yields, per block: its slice of
    flat; its vertex hits, as positions in the block and vertex indices;
    the rows t, A, B, R and depth of its other points where each stops,
    with their positions in the block; and the largest |R| sup_bound left
    at the depth cap, or 0 when no point reached it (such points stop at
    the cap)."""
    _, cuts, _, bound, m, rmax, _, (part, _, digits, words, steps) = \
        _table(system)
    passes = max_depth // m if m > 1 and rmax * bound > tol else 0

    for start in range(0, flat.size, _BLOCK):
        out = slice(start, start + _BLOCK)
        seg = flat[out]
        # exact vertex hits bypass the recursion entirely
        vidx = part.searchsorted(seg)
        hit = part.take(vidx, mode="clip") == seg
        hits = np.flatnonzero(hit)
        pos = np.flatnonzero(~hit)
        # rows t, A, B, R and depth
        block = np.zeros((5, pos.size))
        seg.take(pos, 0, block[0])
        block[3] = 1.0
        worst = 0.0      # a point left at the cap has |R| bound > tol > 0
        # with bound <= tol every point stops at depth 0
        if pos.size and bound > tol:
            if passes:
                block, pos = _by_words(block, pos, m, cuts, steps, words,
                                       rmax, bound, tol, passes)
            block, pos, worst = _by_digits(block, pos, cuts, digits, bound,
                                           tol, max_depth)
        yield out, hits, vidx.take(hits), block, pos, worst


def evaluate_many(system: SelfAffineSystem, xs, tol: float,
                  max_depth: int | None = None):
    """Vectorised evaluate.  Returns (values, error_bounds, depths) arrays.

    Points run in blocks of _BLOCK, each finished before the next starts.
    A block's exact vertex hits take the stored ordinate with a zero
    bound.  Its other points run word passes while depth + m <= max_depth
    (_by_words: t steps one digit at a time, and A, B and R take the map
    of a word of m digits once), then digit passes from the start of the
    word that would stop them (_by_digits), so each stops at the digit
    where the per-digit test stops it.  They close with the endpoint
    ordinate when t lands on 0 or 1, and with the bound |R| sup_bound
    otherwise, written straight into the outputs.  Every point sees the
    operations of evaluate in the same order, so results are bitwise
    those of evaluate, whatever the batch and its blocks.  Cost is linear
    in the sum of the depths; beside the input and the three outputs,
    memory is one block's working set.  NonConvergence reports the worst
    bound left at the depth cap over all blocks.
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
    values = np.empty(flat.shape)
    errs = np.zeros(flat.shape)
    depths = np.zeros(flat.shape, dtype=np.int64)
    _, _, _, bound, _, _, _, (_, ys, _, _, _) = _table(system)
    worst = 0.0
    for out, hits, vidx, (t, A, B, R, D), pos, capped in _orbits(
            system, flat, tol, max_depth):
        worst = max(worst, capped)
        values[out].put(hits, ys.take(vidx))
        at0, at1 = t == 0.0, t == 1.0
        closing = np.where(at0, ys[0], np.where(at1, ys[-1], 0.0))
        values[out].put(pos, A + B * t + R * closing)
        errs[out].put(pos, np.where(at0 | at1, 0.0, np.abs(R) * bound))
        depths[out].put(pos, D)
        del t, A, B, R, D      # one block at a time: free its rows
    if worst:
        raise errors.NonConvergence(
            f"depth cap {max_depth} hit; achieved bound {worst:g} > tol {tol:g}",
            achieved_bound=worst, depth=max_depth)
    return (values.reshape(pts.shape), errs.reshape(pts.shape),
            depths.reshape(pts.shape))


@lru_cache(maxsize=128)
def _table(system: SelfAffineSystem):
    """What evaluate and evaluate_many read, built once per system: the
    abscissae, the cuts, a tuple (x_{k-1}, a_k, e_k, c_k, d_k) per branch,
    sup_bound, the word length m, max_w |R_w|, the words of _words as a
    tree (entry k of a node is (x_{k-1}, a_k, the node of the next digit),
    and the m-th digit's node is the word (L_w, V_w, A_w, B_w, R_w)), and
    read-only arrays: abscissae, ordinates, the rows x_{k-1}, a_k, e_k,
    c_k, d_k by branch, the rows L, V, A, B, R by word, and the rows
    x_{k-1}, a_k of the last digit of each prefix of a word."""
    xs = system.xs
    rows = tuple(zip(xs[:-1], system.a, system.e, system.c, system.d))
    m, nodes = _words(system)
    rmax = max(abs(word[4]) for word in nodes)
    r = system.r
    digits = np.array([xs[:-1], system.a, system.e, system.c, system.d])
    arrays = (np.asarray(xs), np.asarray(system.ys), digits,
              np.array(nodes).T, np.tile(digits[:2], r ** (m - 1)))
    for array in arrays:
        array.flags.writeable = False
    for _ in range(m):
        nodes = [tuple((x, a, nodes[i + k]) for k, (x, a, *_) in enumerate(rows))
                 for i in range(0, len(nodes), r)]
    return xs, xs[1:-1], rows, sup_bound(system), m, rmax, nodes[0], arrays


def evaluate(system: SelfAffineSystem, x: float, tol: float,
             max_depth: int | None = None) -> EvalResult:
    """phi(x) with error_bound <= tol, where error_bound bounds the
    truncation of the recursion but not the rounding of the float orbit and
    of the accumulated value (see the module docstring).

    The one-point form of evaluate_many, in plain floats: numpy's per-call
    cost on a 1-element array is most of the time of a scalar query.  It
    makes the same branch choice (x_k <= t selects branch k + 1) and the
    same passes: word passes while depth + m <= max_depth, with t stepped
    digit by digit and A, B and R advanced once per word of m digits; the
    word that would stop the point is not taken, and digit passes from its
    start find where it stops.  With m = 1 every pass is a digit pass.
    The operations come in the same order, with the same stop, vertex and
    endpoint tests, so value, error_bound and depth_used are bitwise equal
    to evaluate_many(system, [x], tol), and the same errors are raised.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    t = float(x)
    if not 0.0 <= t <= 1.0:      # NaN fails too
        raise errors.OutOfDomain("points must lie in [0, 1]")
    if max_depth is None:
        max_depth = _DEFAULT_MAX_DEPTH
    part, cuts, rows, bound, m, rmax, tree, _ = _table(system)
    if t in part:
        return record(EvalResult, value=system.ys[part.index(t)],
                      error_bound=0.0, depth_used=0)

    A, B, R = 0.0, 0.0, 1.0
    depth = 0
    passes = max_depth // m if m > 1 and rmax * bound > tol else 0
    while passes:
        u, node = t, tree
        for _ in range(m):
            left, a, node = node[bisect_right(cuts, u)]
            u = (u - left) / a
        L, V, Aw, Bw, Rw = node
        Rw = R * Rw
        if not (abs(Rw) * bound > tol and u != 0.0 and u != 1.0):
            break            # the digit passes find where the point stops
        A += B * L + R * Aw
        B = B * V + R * Bw
        R, t = Rw, u
        depth += m
        passes -= 1
        if not abs(R) * rmax * bound > tol:
            break            # every word would stop the point: skip one
    while abs(R) * bound > tol and t != 0.0 and t != 1.0:
        if depth >= max_depth:
            worst = abs(R) * bound
            raise errors.NonConvergence(
                f"depth cap {max_depth} hit; achieved bound {worst:g} > tol {tol:g}",
                achieved_bound=worst, depth=depth)
        # branch k + 1 holds t when exactly k cuts are <= t
        left, a, e, c, d = rows[bisect_right(cuts, t)]
        t = (t - left) / a    # left <= t: the difference is never negative
        A += B * left + R * e
        B = B * a + R * c
        R = R * d
        depth += 1

    if t == 0.0 or t == 1.0:
        closing = system.ys[0] if t == 0.0 else system.ys[-1]
        return record(EvalResult, value=A + B * t + R * closing,
                      error_bound=0.0, depth_used=depth)
    return record(EvalResult, value=A + B * t, error_bound=abs(R) * bound,
                  depth_used=depth)


def sample(system: SelfAffineSystem, n_points: int, tol: float):
    """Uniform grid including both endpoints: (xs, values, error_bounds)."""
    if n_points < 2:
        raise ValueError("need at least 2 points")
    xs = np.linspace(0.0, 1.0, n_points)
    values, errs, _ = evaluate_many(system, xs, tol)
    return xs, values, errs


@lru_cache(maxsize=128)
def _ratios(system: SelfAffineSystem) -> tuple[tuple[float, float], ...]:
    """(c_k / a_k, d_k / a_k) by branch, the ratios of the derivative
    series, divided once per system."""
    return tuple((ck / ak, dk / ak)
                 for ak, ck, dk in zip(system.a, system.c, system.d))


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
    ratios = _ratios(system)
    eps = 1.01 * 2.0 ** -53
    total, err = 0.0, 0.0    # prefix sum; its error over eps
    P, n = 1.0, 0            # signed prod_{i<m} d/a, within n eps of exact
    for k in coding.prefix:
        ck, dk = ratios[k - 1]
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
        ck, dk = ratios[k - 1]
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


def _check_series_tol(tol: float) -> None:
    """A negative or nan series tol no bound can meet is a usage error."""
    if not tol >= 0.0:
        raise ValueError(f"series tol must be >= 0, got {tol}")


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
    bound exceeds tol * max(1, |value|); ValueError for a negative or nan
    tol.
    """
    _check_series_tol(tol)
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
