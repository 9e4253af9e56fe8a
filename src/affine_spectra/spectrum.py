"""Dimension spectrum of the exponent level sets.

The central object is beta(q), the unique root of

    sum_{d_k != 0} |d_k|^q a_k^beta = 1,

a strictly decreasing convex function with beta(0) = s_hat.  Its concave
conjugate beta*(alpha) = inf_q (alpha q + beta(q)) gives the dimension of
the level set at alpha on the concave part of the spectrum; regimes with a
nonempty overlap set and all |d_k| < a_k additionally carry a linear part
sigma (alpha - 1) between 1 and the tangency point alpha0.

Every public function rests on _classify, which sorts the alphas of a call
into the branches degenerate, linear, endpoint, empty and legendre, and on
_legendre, which solves all legendre alphas of a call at once.  When only
two branches have d_k != 0 the weights below are fixed by the constraint
alone, so (q, beta(q)) comes in closed form from a 2 x 2 linear system;
with three or more it comes from a bracketed Newton iteration on q around
an inner Newton iteration for beta(q).  That inner iteration steps on
log sum |d_k|^q a_k^beta, which is convex and decreasing in beta and nearly
linear far from the root, so from a start at or below the root its iterates
rise monotonically and reach it in a few steps.  A table's rows are then
assembled in bulk: one array expression for the dimensions alpha q + beta
and one dictionary update per SpectrumPoint.

The same numbers arise variationally: beta*(alpha) is the maximum of
H(p) = sum p log p / sum p log a over weight vectors with zeros on the
d_k = 0 branches satisfying sum p_k (log|d_k| - alpha log a_k) = 0, attained
at the Gibbs weights p_k = |d_k|^q a_k^beta(q).  duality_maximizer returns
the maximiser for an alpha; entropy_ratio and contraction_ratio expose the
two functionals for direct experimentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .ifs import Regime, SpectrumConstants, _end_ties

_END_TOL = 1e-12    # slack when classifying alpha against the support ends
_DEG_TOL = 1e-12    # all-rho-equal degeneracy
_Q_TOL = 1e-12      # relative step in q, bracket half-width included
_B_TOL = 1e-14      # relative Newton step in beta
_NEWTON_CAP = 100   # iterations on q per row
_PRESSURE_CAP = 100  # iterations on beta per row and call


def _degenerate(constants: SpectrumConstants) -> bool:
    """All ratios rho_k coincide: the support is the one point alpha_hat."""
    amin, amax = constants.alpha_min, constants.alpha_max
    return amax - amin <= _DEG_TOL * max(1.0, abs(amax))


def _pressure(logd, loga, q, start=-np.inf):
    """beta at each q by Newton's method on F(b) = log sum_k w_k,
    w_k = |d_k|^q a_k^b, from at least max_k (-q rho_k).

    F is convex (a log-sum-exp of lines in b) and decreasing, and F >= 0 at
    every start: at max_k (-q rho_k) one w_k is 1 and none exceeds 1, and a
    tangent restart lies below the convex beta.  Each tangent root then
    stays left of the root, so the iterates rise monotonically to it; a sum
    that rounds below 1 there counts as 1, so no step is negative.  Far
    left of the root the sum grows like an exponential, so a Newton step on
    the sum minus 1 gains little there, while its log grows nearly like a
    line, on which a Newton step lands close to the root.  Near the root
    both converge quadratically.

    np.add.reduce(..., axis=0) adds the rows one by one in branch order, as
    the builtin sum did, so a row's result does not depend on the rows
    solved with it.  The one exception is a lone row of eight or more
    branches, whose column numpy sums pairwise."""
    b = np.maximum(start, (-q * logd / loga).max(axis=0))
    todo = None                 # every row active: no gathers
    for _ in range(_PRESSURE_CAP):
        qi, bi = (q, b) if todo is None else (q[todo], b[todo])
        w = np.exp(qi * logd + bi * loga)
        s = np.add.reduce(w, axis=0)
        step = (np.maximum(np.log(s), 0.0) * s
                / -np.add.reduce(w * loga, axis=0))
        more = step > _B_TOL * np.maximum(1.0, np.abs(bi))
        if todo is None:
            b += step
            todo = np.flatnonzero(more)
        else:
            b[todo] = bi + step
            todo = todo[more]
        if not todo.size:
            return b
    raise errors.NonConvergence(f"beta unsolved at q = {q[todo].tolist()}")


def _gibbs(logd, loga, q, b):
    """alpha(q) and alpha'(q) = Var_w(log|d| - alpha(q) log a) / sum w log a
    for the Gibbs weights w = |d|^q a^b, b = beta(q); rows are added as in
    _pressure."""
    w = np.exp(q * logd + b * loga)
    mass = np.add.reduce(w * loga, axis=0)
    mean = np.add.reduce(w * logd, axis=0) / mass
    dev = logd - mean * loga
    return mean, np.add.reduce(w * dev * dev, axis=0) / mass


def _legendre(constants: SpectrumConstants, alphas):
    """(q, beta(q)) arrays with alpha(q) = alpha, for alphas strictly inside
    the support.

    With two d_k != 0 branches the Gibbs weights w_k = |d_k|^q a_k^beta are
    the one weight vector with sum w_k g_k = 0, g_k = log|d_k| - alpha
    log a_k: w_1 = g_2 / (g_2 - g_1), w_2 = -g_1 / (g_2 - g_1).  Inside the
    support g_1 and g_2 have opposite signs, and (q, beta) solves
    log w_k = q log|d_k| + beta log a_k, k = 1, 2.  No iteration runs.

    Systems with more branches take _legendre_newton, and so does a row
    whose rounded weights are not both positive: that takes an alpha a few
    ulps inside an end above about 4e3, where one ulp exceeds the 1e-12 end
    tolerance of _classify.
    """
    alphas = np.asarray(alphas, dtype=float)
    if len(constants.index_plus) != 2:
        return _legendre_newton(constants, alphas)
    _, logd, loga = constants._plus_columns
    (ld1, ld2), (la1, la2) = logd[:, 0].tolist(), loga[:, 0].tolist()
    g1, g2 = ld1 - alphas * la1, ld2 - alphas * la2
    w1, w2 = g2 / (g2 - g1), -g1 / (g2 - g1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lw1, lw2 = np.log(w1), np.log(w2)
    det = ld1 * la2 - ld2 * la1
    q, b = (lw1 * la2 - lw2 * la1) / det, (ld1 * lw2 - ld2 * lw1) / det
    off = ~((w1 > 0.0) & (w2 > 0.0))
    if off.any():
        q[off], b[off] = _legendre_newton(constants, alphas[off])
    return q, b


def _legendre_newton(constants: SpectrumConstants, alphas):
    """_legendre by iteration, for any number of d_k != 0 branches.

    Newton steps go on log((alpha(q) - alpha_min) / (alpha_max - alpha(q))),
    nearly linear in q at both ends.  Each evaluation moves an end of the
    row's bracket on q; a step that leaves the bracket or fails to halve the
    last one bisects instead.  beta restarts from its tangent
    b - alpha(q) dq, which lies below the convex beta, so _pressure's
    log-space Newton iterates rise from there to the root in a few
    steps.

    Every row starts at q = 0, where beta and the Gibbs moments are one
    and the same for all rows: they are solved once and repeated.  The
    solve runs on two columns when there are two rows or more, because
    np.add.reduce sums a lone column of eight or more branches pairwise,
    not one row after another as in a table, so each row keeps the bits
    it would get solved with its companions."""
    _, logd, loga = constants._plus_columns
    amin, amax = constants.alpha_min, constants.alpha_max
    target = np.log((alphas - amin) / (amax - alphas))
    q = np.zeros(alphas.size)
    start = np.zeros(min(q.size, 2))
    b0 = _pressure(logd, loga, start)
    b = np.repeat(b0[:1], q.size)
    mean, slope = (np.repeat(v[:1], q.size)
                   for v in _gibbs(logd, loga, start, b0))
    lo, hi, last = (np.full(q.size, x) for x in (-np.inf, np.inf, np.inf))
    todo = np.arange(q.size)
    for _ in range(_NEWTON_CAP):
        qi, bi = q[todo], b[todo]
        g = mean - alphas[todo]
        lo[todo] = li = np.where(g > 0.0, qi, lo[todo])
        hi[todo] = hj = np.where(g < 0.0, qi, hi[todo])
        u, v = mean - amin, amax - mean
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (target[todo] - np.log(u / v)) * u * v / (slope * (amax - amin))
            wild = (~((li < qi + step) & (qi + step < hj))
                    | (np.abs(step) > 0.5 * last[todo]))
            step = np.where(np.isfinite(li + hj) & wild, 0.5 * (li + hj) - qi, step)
        done = (g == 0.0) | (np.abs(step) <= _Q_TOL * np.maximum(1.0, np.abs(qi)))
        todo, qi, bi, mean, step = (x[~done] for x in (todo, qi, bi, mean, step))
        if not todo.size:
            return q, b
        q[todo] = qi + step
        b[todo] = _pressure(logd, loga, q[todo], bi - mean * step)
        last[todo] = np.abs(step)
        mean, slope = _gibbs(logd, loga, q[todo], b[todo])
    raise errors.NonConvergence(
        f"Legendre solve unconverged at alpha = {alphas[todo].tolist()}")


def beta(constants: SpectrumConstants, q: float) -> float:
    """Root of sum |d_k|^q a_k^beta = 1 over the d_k != 0 branches."""
    _, logd, loga = constants._plus_columns
    return float(_pressure(logd, loga, np.array([float(q)]))[0])


def alpha_of_q(constants: SpectrumConstants, q: float) -> float:
    """Negated slope of beta at q: the alpha whose conjugate is attained
    there.  Strictly decreasing from alpha_max (q -> -inf) to alpha_min."""
    _, logd, loga = constants._plus_columns
    qs = np.array([float(q)])
    return float(_gibbs(logd, loga, qs, _pressure(logd, loga, qs))[0][0])


def q_star(constants: SpectrumConstants, alpha: float) -> float:
    """Inverse of alpha_of_q; alpha must lie strictly inside
    (alpha_min, alpha_max)."""
    if not constants.alpha_min < alpha < constants.alpha_max:
        raise errors.OutOfRange(
            f"alpha = {alpha} not inside ({constants.alpha_min}, "
            f"{constants.alpha_max})")
    return float(_legendre(constants, [alpha])[0][0])


def _classify(constants: SpectrumConstants, alphas,
              overlap: bool = True) -> list[str]:
    """Branch of each finite alpha, by one array comparison per test.
    overlap=False ignores the Case B linear part, which leaves the plain
    concave conjugate beta*."""
    alphas = np.asarray(alphas, dtype=float)
    amin, amax = constants.alpha_min, constants.alpha_max
    if _degenerate(constants):
        near = np.abs(alphas - constants.alpha_hat) <= 1e-9
        return np.where(near, "degenerate", "empty").tolist()
    out = np.full(alphas.shape, "legendre", dtype=object)
    out[(alphas <= amin + _END_TOL) | (alphas >= amax - _END_TOL)] = "endpoint"
    out[(alphas < amin - _END_TOL) | (alphas > amax + _END_TOL)] = "empty"
    if overlap and constants.regime is Regime.CASE_B:
        low = alphas < constants.alpha0
        out[low] = np.where(alphas[low] >= 1.0 - _END_TOL, "linear", "empty")
    return out.tolist()


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
    pt, q = _solve(constants, [alpha])[0]
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


def _point(alpha, dim, branch, p_opt, note) -> SpectrumPoint:
    """SpectrumPoint(alpha, dim, branch, p_opt, note) by one __dict__ update
    instead of the frozen dataclass's five object.__setattr__ calls; the
    fields are the same, so the point compares, hashes and reprs the same."""
    pt = object.__new__(SpectrumPoint)
    pt.__dict__.update(alpha=alpha, dim=dim, branch=branch, p_opt=p_opt,
                       note=note)
    return pt


def _solve(constants: SpectrumConstants, alphas, overlap: bool = True):
    """(SpectrumPoint, q) for each finite alpha, q None off the legendre
    branch; the legendre rows share one _legendre call, and their
    dimensions alpha q + beta are one array expression."""
    branches = _classify(constants, alphas, overlap)
    inner = [al for al, br in zip(alphas, branches) if br == "legendre"]
    x = np.array(inner, dtype=float)
    qs, bs = _legendre(constants, x)
    cols, logd, loga = constants._plus_columns
    gibbs = np.zeros((x.size, len(constants.a)))
    gibbs[:, cols] = np.exp(qs * logd + bs * loga).T
    solved = iter([(_point(alpha, dim, "legendre", p, None), q)
                   for alpha, q, dim, p in zip(inner, qs.tolist(),
                                               (x * qs + bs).tolist(),
                                               map(tuple, gibbs.tolist()))])
    out = []
    for alpha, branch in zip(alphas, branches):
        if branch == "legendre":
            out.append(next(solved))
            continue
        note = p = dim = None
        if branch == "linear":
            p, dim = constants.p_star, constants.sigma * (alpha - 1.0)
            if alpha <= 1.0 + _END_TOL:
                dim, note = 0.0, ("left edge of the linear part; the level "
                                  "set is nonempty with dimension 0")
        elif branch != "empty":
            # all mass on the branches whose ratio is the extremal one,
            # tied by the rule that fixed s_min and s_max
            if branch == "degenerate":
                ties, dim = constants.index_plus, constants.s_hat
            elif alpha <= constants.alpha_min + _END_TOL:
                ties = _end_ties(constants.rho, constants.alpha_min)
                dim = constants.s_min
            else:
                ties = _end_ties(constants.rho, constants.alpha_max)
                dim = constants.s_max
            p = tuple(ak ** dim if k in ties else 0.0
                      for k, ak in enumerate(constants.a, start=1))
        out.append((_point(alpha, dim, branch, p, note), None))
    return out


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
    if _degenerate(constants):
        alphas = [constants.alpha_hat]
    else:
        special = [constants.alpha_min, constants.alpha_hat,
                   constants.alpha_max]
        if constants.regime is Regime.CASE_B:
            special = [1.0, constants.alpha0] + special[1:]
        grid = np.linspace(special[0], constants.alpha_max, points)
        alphas = np.unique(np.concatenate([grid, special])).tolist()
    rows = [pt for pt, _ in _solve(constants, alphas)]
    if constants.index_zero:
        rows.append(spectrum_D(constants, math.inf))
    return tuple(rows)
