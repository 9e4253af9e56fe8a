"""Dimension spectrum of the exponent level sets.

The central object is beta(q), the unique root of

    sum_{d_k != 0} |d_k|^q a_k^beta = 1,

a strictly decreasing convex function with beta(0) = s_hat.  Its concave
conjugate beta*(alpha) = inf_q (alpha q + beta(q)) gives the dimension of
the level set at alpha on the concave part of the spectrum; regimes with a
nonempty overlap set and all |d_k| < a_k additionally carry a linear part
sigma (alpha - 1) between 1 and the tangency point alpha0.

Every public function rests on _solve, which takes increasing alphas and
builds the rows of each range _ranges finds (degenerate, linear, endpoint,
empty, legendre) at once.  _legendre gives (q, beta(q)) in closed form
with two d_k != 0 branches, else by a Newton iteration that evaluates the
weights once per step and moves q and beta together.

The same numbers arise variationally: beta*(alpha) is the maximum of
H(p) = sum p log p / sum p log a over weight vectors with zeros on the
d_k = 0 branches satisfying sum p_k (log|d_k| - alpha log a_k) = 0, attained
at the Gibbs weights p_k = |d_k|^q a_k^beta(q).  duality_maximizer returns
the maximiser for an alpha; entropy_ratio and contraction_ratio expose the
two functionals for direct experimentation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import errors
from .ifs import Regime, SpectrumConstants, _end_ties
from .roots import unit_sum_root

_END_TOL = 1e-12    # slack when classifying alpha against the support ends
_DEG_TOL = 1e-12    # all-rho-equal degeneracy
_Q_TOL = 1e-12      # relative step in q, bracket half-width included
_B_ERR = 1e-16      # relative error the last step in beta leaves (Legendre)
_SURE = 1e-6        # relative step in beta below which alpha(q) is trusted
_NEWTON_CAP = 100   # steps on (q, beta) per row


def _degenerate(constants: SpectrumConstants) -> bool:
    """All ratios rho_k coincide: the support is the one point alpha_hat."""
    amin, amax = constants.alpha_min, constants.alpha_max
    return amax - amin <= _DEG_TOL * max(1.0, abs(amax))


def _two_branch(ld, la, alphas):
    """(q, beta) for two branches with log|d| = ld, log a = la, and whether
    both rounded weights are positive: w_k = |d_k|^q a_k^beta is the one
    pair with sum w_k (log|d_k| - alpha log a_k) = 0 and sum w_k = 1."""
    (ld1, ld2), (la1, la2) = ld, la
    g1, g2 = ld1 - alphas * la1, ld2 - alphas * la2
    w1, w2 = g2 / (g2 - g1), -g1 / (g2 - g1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lw1, lw2 = np.log(w1), np.log(w2)
    det = ld1 * la2 - ld2 * la1
    q, b = (lw1 * la2 - lw2 * la1) / det, (ld1 * lw2 - ld2 * lw1) / det
    return q, b, (w1 > 0.0) & (w2 > 0.0)


def _legendre(constants: SpectrumConstants, alphas):
    """(q, beta(q)) arrays with alpha(q) = alpha inside the support: by
    _two_branch when two branches have d_k != 0 and its rounded weights are
    positive (not so a few ulps inside an end above about 4e3), else by
    _legendre_newton."""
    alphas = np.asarray(alphas, dtype=float)
    if len(constants.index_plus) != 2:
        return _legendre_newton(constants, alphas)
    _, logd, loga = constants._plus_columns
    q, b, ok = _two_branch(logd[:, 0].tolist(), loga[:, 0].tolist(), alphas)
    if not ok.all():
        q[~ok], b[~ok] = _legendre_newton(constants, alphas[~ok])
    return q, b


def _legendre_newton(constants: SpectrumConstants, alphas):
    """_legendre by iteration, for any number of d_k != 0 branches.

    Rows start at _two_branch of the extreme-ratio branches (b below beta)
    or at q = 0, b = s_hat, with b >= max_k (-q rho_k).  Each step evaluates
    the weights once: unit_sum_root's step db on b, which leaves b within
    err = (l_max - l_min)^2 / (2 |l_max|) db^2 of beta for log a_k in
    [l_min, l_max]; a Newton step on q for log((alpha(q) - alpha_min) /
    (alpha_max - alpha(q))), alpha(q) corrected to first order for db; and b
    along its Taylor polynomial of degree two.  Only a sure evaluation (db <=
    _SURE or err <= _B_ERR, relative) moves the bracket on q and sets the
    size the next step must halve; a step that leaves the bracket, fails to
    halve or, unsure, exceeds 4 max(1, |q|) bisects (or holds q).  A row
    stops on a step (a bisection's included) <= _Q_TOL relative once
    err <= _B_ERR, which makes its evaluation sure.  A lone row runs on two
    equal columns, so a row's bits do not depend on the rows solved with it."""
    _, logd, loga = constants._plus_columns
    amin, amax = constants.alpha_min, constants.alpha_max
    ld, la = logd[:, 0].tolist(), loga[:, 0].tolist()
    rho = [d / a for d, a in zip(ld, la)]
    i, j = rho.index(min(rho)), rho.index(max(rho))
    sums = np.array([[1.0] * len(la), la, ld])[:, :, None]
    curve = (max(la) - min(la)) ** 2 / (-2.0 * max(la))
    q, b = np.empty(alphas.size), np.empty(alphas.size)
    if not q.size:
        return q, b
    rows = np.arange(q.size) if q.size > 1 else np.zeros(2, int)
    alpha = alphas if q.size > 1 else alphas.repeat(2)
    target = np.log((alpha - amin) / (amax - alpha))
    qi, bi, ok = _two_branch((ld[i], ld[j]), (la[i], la[j]), alpha)
    qi = np.where(ok, qi, 0.0)
    bi = np.maximum(np.where(ok, bi, constants.s_hat),
                    (qi * -(logd / loga)).max(axis=0))
    lo, (hi, last) = np.full(rows.size, -np.inf), np.full((2, rows.size), np.inf)
    add = np.add.reduce
    for _ in range(_NEWTON_CAP):
        w = np.exp(qi * logd + bi * loga)
        s, mass, first = add(w * sums, axis=1)
        mean = first / mass
        db = np.log(s) * s / -mass
        dev = logd - mean * loga
        wdev = w * dev
        slope = add(wdev * dev, axis=0) / mass
        shift = add(wdev * loga, axis=0) / mass * db
        abs_db = np.abs(db)
        rel = abs_db / np.maximum(1.0, np.abs(bi))
        err = curve * abs_db * rel
        sure = (rel <= _SURE) | (err <= _B_ERR)
        g = mean + shift - alpha
        np.copyto(lo, qi, where=sure & (g > 0.0))
        np.copyto(hi, qi, where=sure & (g < 0.0))
        u, v = mean - amin, amax - mean
        scale = np.maximum(1.0, np.abs(qi))
        tol = _Q_TOL * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ((target - np.log(u / v)) * u * v / (amax - amin)
                    - shift) / slope
            new, size = qi + step, np.abs(step)
            wild = ~((lo < new) & (new < hi) & (size <= 0.5 * last)
                     & (sure | (size <= 4.0 * scale)) | (size <= tol))
            if np.count_nonzero(wild):
                mid = 0.5 * (lo + hi)
                step = np.where(wild, np.where(np.isfinite(mid), mid - qi,
                                               np.where(sure, step, 0.0)), step)
                size = np.abs(step)
        near = (size <= tol) | (g == 0.0)
        step[near] = 0.0
        np.copyto(last, size, where=sure & ~near)
        bi = bi + db
        done = near & (err <= _B_ERR)
        if np.count_nonzero(done):
            q[rows[done]], b[rows[done]] = qi[done], bi[done]
            keep = np.flatnonzero(~done)
            if not keep.size:
                return q, b
            keep = keep.repeat(2) if keep.size == 1 else keep
            rows, alpha, target, qi, bi, lo, hi, last, step, mean, slope = (
                x[keep] for x in (rows, alpha, target, qi, bi, lo, hi, last,
                                  step, mean, slope))
        bi -= step * (mean + 0.5 * slope * step)
        qi = qi + step
    raise errors.NonConvergence("Legendre solve unconverged at alpha = "
                                f"{alphas[np.unique(rows)].tolist()}")


def beta(constants: SpectrumConstants, q: float) -> float:
    """Root of sum |d_k|^q a_k^beta = 1 over the d_k != 0 branches."""
    _, logd, loga = constants._plus_columns
    q = float(q)
    if not math.isfinite(q):
        raise errors.OutOfRange(f"q = {q} is not finite")
    return unit_sum_root(loga[:, 0].tolist(),
                         [q * ld for ld in logd[:, 0].tolist()])


def alpha_of_q(constants: SpectrumConstants, q: float) -> float:
    """Negated slope of beta at q: the alpha whose conjugate is attained
    there.  Strictly decreasing from alpha_max (q -> -inf) to alpha_min."""
    _, logd, loga = constants._plus_columns
    ld, la, b = logd[:, 0].tolist(), loga[:, 0].tolist(), beta(constants, q)
    w = [math.exp(float(q) * ldk + b * lak) for ldk, lak in zip(ld, la)]
    return (math.fsum(wk * ldk for wk, ldk in zip(w, ld))
            / math.fsum(wk * lak for wk, lak in zip(w, la)))


def q_star(constants: SpectrumConstants, alpha: float) -> float:
    """Inverse of alpha_of_q; alpha must lie strictly inside
    (alpha_min, alpha_max)."""
    if not constants.alpha_min < alpha < constants.alpha_max:
        raise errors.OutOfRange(
            f"alpha = {alpha} not inside ({constants.alpha_min}, "
            f"{constants.alpha_max})")
    return float(_legendre(constants, [alpha])[0][0])


def _ranges(constants: SpectrumConstants, alphas, overlap: bool = True):
    """Branches of increasing alphas as (branch, stop) pairs, each range
    from the previous stop, by binary search for the thresholds a lone alpha
    meets.  overlap=False drops the Case B linear part; in a degenerate
    system it ends where the window of the one point alpha_hat (= alpha0)
    begins."""
    amin, amax, tol = constants.alpha_min, constants.alpha_max, _END_TOL
    degenerate = _degenerate(constants)
    if degenerate:
        off = alphas - constants.alpha_hat
        lo, hi = np.searchsorted(off, -1e-9), np.searchsorted(off, 1e-9, "right")
        body = [("empty", int(lo)), ("degenerate", int(hi))]
    else:
        below, inner = np.searchsorted(alphas, (amin - tol, amax - tol)).tolist()
        low, above = np.searchsorted(alphas, (amin + tol, amax + tol), "right").tolist()
        body = list(zip(("empty", "endpoint", "legendre", "endpoint"),
                        (below, low, max(low, inner), above)))
    head, start = [], 0
    if overlap and constants.regime is Regime.CASE_B:
        one, start = np.searchsorted(alphas, (1.0 - tol, constants.alpha0)).tolist()
        if degenerate:
            start = body[0][1]
        head = [("empty", min(one, start)), ("linear", start)]
    return head + [(branch, max(start, cut)) for branch, cut in body] + [
        ("empty", alphas.size)]


def beta_star(constants: SpectrumConstants, alpha: float) -> float:
    """Concave conjugate inf_q (alpha q + beta(q)).

    -inf outside [alpha_min, alpha_max]; the endpoint values are the
    partition exponents of the extremal-ratio branch sets.  When all ratios
    coincide beta is affine and the conjugate degenerates to a single point.
    """
    pt = _solve(constants, [alpha], overlap=False)[0][0]
    return -math.inf if pt.dim is None else pt.dim


def entropy_ratio(p, a) -> float:
    """H(p) = sum p log p / sum p log a (terms with p_k = 0 drop out)."""
    if len(p) != len(a):
        raise ValueError("p must have one entry per branch")
    num = math.fsum(pk * math.log(pk) for pk in p if pk > 0.0)
    den = math.fsum(pk * math.log(ak) for pk, ak in zip(p, a) if pk > 0.0)
    return num / den


def contraction_ratio(p, constants: SpectrumConstants) -> float:
    """G(p) = sum p log p / sum p (log|d| - log a) over the d_k != 0 branches.

    In the overlap regime its maximum over the simplex is sigma, attained at
    p_star.  p must put no mass on d_k = 0 branches.
    """
    if len(p) != len(constants.a):
        raise ValueError("p must have one entry per branch")
    for k in constants.index_zero:
        if p[k - 1] != 0.0:
            raise ValueError(f"p_{k} must be 0 on a branch with d = 0")
    loga, logd = constants._logs
    num = math.fsum(pk * math.log(pk) for pk in p if pk > 0.0)
    den = math.fsum(p[k - 1] * (logd[k - 1] - loga[k - 1])
                    for k in sorted(constants.index_plus) if p[k - 1] > 0.0)
    return num / den


@dataclass(frozen=True)
class DualityResult:
    """Weight vector realising the dimension at one alpha."""
    p: tuple[float, ...]
    entropy: float
    contraction: float | None
    q: float | None
    branch: str


def duality_maximizer(constants: SpectrumConstants, alpha: float) -> DualityResult:
    """Maximising weights for the dimension at alpha.

    Interior alphas use the Gibbs weights |d|^q a^beta(q); the support
    endpoints concentrate on the extremal-ratio branches; in the overlap
    regime every alpha below the tangency point returns p_star (the
    contraction_ratio maximiser).  OutOfRange outside the spectrum support.
    """
    (pt,), (q,) = _solve(constants, [alpha])
    if pt.dim is None:
        raise errors.OutOfRange(f"alpha = {alpha} outside the support")
    try:
        g = contraction_ratio(pt.p_opt, constants)
    except (ValueError, ZeroDivisionError):
        g = None
    return DualityResult(p=pt.p_opt, entropy=entropy_ratio(pt.p_opt, constants.a),
                         contraction=g, q=q, branch=pt.branch)


@dataclass(frozen=True)
class SpectrumPoint:
    """One abscissa of the dimension spectrum.  dim is None off the support
    (branch "empty"); branch "infinite" is the alpha = inf point, dimension 1
    exactly when some branch has d = 0."""
    alpha: float
    dim: float | None
    branch: str
    p_opt: tuple[float, ...] | None = None
    note: str | None = None


_new = object.__new__


def _points(alphas, dims, branch, ps, note=None) -> list[SpectrumPoint]:
    """SpectrumPoint(alpha, dim, branch, p, note) for each alpha, dim, p, in
    one loop over a range of rows: as _records.record does for one record,
    each row's fields go straight into its __dict__, here one item at a
    time, about 0.35 us a row against 0.5 us for a call of record per row
    (2-CPU Xeon, Python 3.11).  SpectrumPoint has no __post_init__ to skip."""
    pts = []
    for alpha, dim, p in zip(alphas, dims, ps):
        pt = _new(SpectrumPoint)
        fields = pt.__dict__
        fields["alpha"], fields["dim"], fields["branch"] = alpha, dim, branch
        fields["p_opt"], fields["note"] = p, note
        pts.append(pt)
    return pts


def _solve(constants: SpectrumConstants, alphas, overlap: bool = True):
    """SpectrumPoints for increasing finite alphas and the q of each (None
    off the legendre branch), built a range of _ranges at a time."""
    x = np.asarray(alphas, dtype=float)
    if x.size and np.isnan(x[-1]):      # NaN sorts last
        raise errors.OutOfRange("alpha = nan is not a number")
    pts, qs, lo = [], [], 0
    for branch, hi in _ranges(constants, x, overlap):
        n, part, q = hi - lo, alphas[lo:hi], [None] * (hi - lo)
        if not n:
            continue
        if branch == "legendre":
            q, b = _legendre(constants, x[lo:hi])
            cols, logd, loga = constants._plus_columns
            gibbs = [[0.0] * n] * len(constants.a)
            for k, col in zip(cols, np.exp(q * logd + b * loga).tolist()):
                gibbs[k] = col
            pts += _points(part, (x[lo:hi] * q + b).tolist(), branch, zip(*gibbs))
            q = q.tolist()
        elif branch == "linear":    # dimension 0 up to alpha = 1 + tol
            edge = int(np.searchsorted(x[lo:hi], 1.0 + _END_TOL, "right"))
            p, sigma = [constants.p_star] * n, constants.sigma
            pts += _points(part[:edge], [0.0] * edge, branch, p, "left edge of the "
                           "linear part; the level set is nonempty with dimension 0")
            pts += _points(part[edge:], [sigma * (al - 1.0) for al in part[edge:]],
                           branch, p)
        elif branch != "empty":     # weights on the tied extreme-ratio branches
            if branch == "degenerate":
                ties, dim = constants.index_plus, constants.s_hat
            elif x[lo] <= constants.alpha_min + _END_TOL:
                ties, dim = _end_ties(constants.rho, constants.alpha_min), constants.s_min
            else:
                ties, dim = _end_ties(constants.rho, constants.alpha_max), constants.s_max
            p = tuple(ak ** dim if k in ties else 0.0
                      for k, ak in enumerate(constants.a, start=1))
            pts += _points(part, [dim] * n, branch, [p] * n)
        else:
            pts += _points(part, q, branch, q)
        qs += q
        lo = hi
    return pts, qs


def spectrum_D(constants: SpectrumConstants, alpha: float) -> SpectrumPoint:
    """Dimension of the level set at alpha (math.inf allowed)."""
    if math.isinf(alpha) and alpha > 0:
        if constants.index_zero:
            return SpectrumPoint(alpha=math.inf, dim=1.0, branch="infinite")
        return SpectrumPoint(alpha=math.inf, dim=None, branch="empty")
    return _solve(constants, [alpha])[0][0]


def spectrum_table(constants: SpectrumConstants, *,
                   points: int = 201) -> tuple[SpectrumPoint, ...]:
    """Spectrum sampled on a uniform grid over the support plus the
    distinguished abscissae (support ends, maximum location, tangency point),
    ending with the alpha = inf point when some branch has d = 0.
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    special = [constants.alpha_min, constants.alpha_hat, constants.alpha_max]
    if _degenerate(constants):      # the concave part is the point alpha_hat
        special = [constants.alpha_hat]
    elif constants.regime is Regime.CASE_B:
        special[0] = constants.alpha0
    if constants.regime is Regime.CASE_B:
        special.insert(0, 1.0)
    alphas = special
    if len(special) > 1:
        lo, hi = special[0], special[-1]
        grid = np.linspace(lo, hi, points)
        # for 0 < lo < hi, linspace puts grid point i within a few ulps of hi
        # of lo + i step, so a step above 8 such ulps makes the grid strictly
        # increasing, and positive finite inner abscissae go in by bisection
        # where a sort puts them.  Anything else a constants file may hold
        # (an int, a NaN, an infinity, a signed zero, whose tie with the
        # other zero the sort breaks its own way) takes the sort itself
        if (all(type(x) is float and 0.0 < x < math.inf for x in special)
                and 8.0 * math.ulp(hi) < (hi - lo) / (points - 1)):
            alphas = grid.tolist()
            for x in special[1:-1]:
                i = bisect_left(alphas, x)
                if i == len(alphas) or alphas[i] != x:
                    alphas.insert(i, x)
        else:
            alphas = np.unique(np.concatenate([grid, special])).tolist()
    rows = _solve(constants, alphas)[0]
    if constants.index_zero:
        rows.append(spectrum_D(constants, math.inf))
    return tuple(rows)
