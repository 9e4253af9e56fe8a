"""Dimension spectrum of the exponent level sets.

The central object is beta(q), the unique root of

    sum_{d_k != 0} |d_k|^q a_k^beta = 1,

a strictly decreasing convex function with beta(0) = s_hat.  Its concave
conjugate beta*(alpha) = inf_q (alpha q + beta(q)) gives the dimension of
the level set at alpha on the concave part of the spectrum; regimes with a
nonempty overlap set and all |d_k| < a_k additionally carry a linear part
sigma (alpha - 1) between 1 and the tangency point alpha0.

Every public function rests on _classify, which sorts an alpha into one of
the branches degenerate, linear, endpoint, empty and legendre, and on
_legendre, which solves all legendre alphas of a call at once by a bracketed
Newton iteration on q around an inner Newton iteration for beta(q).

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
from .ifs import Regime, SpectrumConstants

_END_TOL = 1e-12    # slack when classifying alpha against the support ends
_DEG_TOL = 1e-12    # all-rho-equal degeneracy
_Q_TOL = 1e-12      # relative step in q, bracket half-width included
_B_TOL = 1e-14      # relative Newton step in beta
_NEWTON_CAP = 100   # iterations on q per row
_PRESSURE_CAP = 100  # iterations on beta per row and call


def _plus_arrays(constants: SpectrumConstants):
    """Indices with d_k != 0, and log|d_k|, log a_k on them as columns."""
    ks = sorted(constants.index_plus)
    logd = np.array([[math.log(abs(constants.d[k - 1]))] for k in ks])
    loga = np.array([[math.log(constants.a[k - 1])] for k in ks])
    return ks, logd, loga


def _pressure(logd, loga, q, start=-np.inf):
    """beta at each q by Newton's method from at least max_k (-q rho_k),
    where the sum, convex and decreasing in b, is >= 1: the iterates rise
    monotonically to the root.  The builtin sum adds branches in a fixed
    order, so a row's result does not depend on the rows solved with it."""
    b = np.maximum(start, (-q * logd / loga).max(axis=0))
    todo = np.arange(q.size)
    for _ in range(_PRESSURE_CAP):
        bi = b[todo]
        w = np.exp(q[todo] * logd + bi * loga)
        step = (sum(w) - 1.0) / -sum(w * loga)
        b[todo] = bi + step
        todo = todo[step > _B_TOL * np.maximum(1.0, np.abs(bi))]
        if not todo.size:
            return b
    raise errors.NonConvergence(f"beta unsolved at q = {q[todo].tolist()}")


def _gibbs(logd, loga, q, b):
    """alpha(q) and alpha'(q) = Var_w(log|d| - alpha(q) log a) / sum w log a
    for the Gibbs weights w = |d|^q a^b, b = beta(q)."""
    w = np.exp(q * logd + b * loga)
    mass = sum(w * loga)
    mean = sum(w * logd) / mass
    dev = logd - mean * loga
    return mean, sum(w * dev * dev) / mass


def _legendre(constants: SpectrumConstants, alphas):
    """(q, beta(q)) arrays with alpha(q) = alpha, for alphas strictly inside
    the support.  Newton steps go on log((alpha(q) - alpha_min) / (alpha_max
    - alpha(q))), nearly linear in q at both ends.  Each evaluation moves an
    end of the row's bracket on q; a step that leaves the bracket or fails to
    halve the last one bisects instead.  beta restarts from its tangent."""
    _, logd, loga = _plus_arrays(constants)
    amin, amax = constants.alpha_min, constants.alpha_max
    alphas = np.asarray(alphas, dtype=float)
    target = np.log((alphas - amin) / (amax - alphas))
    q = np.zeros(alphas.size)
    b = _pressure(logd, loga, q)
    lo, hi, last = (np.full(q.size, x) for x in (-np.inf, np.inf, np.inf))
    todo = np.arange(q.size)
    for _ in range(_NEWTON_CAP):
        qi, bi = q[todo], b[todo]
        mean, slope = _gibbs(logd, loga, qi, bi)
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
    raise errors.NonConvergence(
        f"Legendre solve unconverged at alpha = {alphas[todo].tolist()}")


def beta(constants: SpectrumConstants, q: float) -> float:
    """Root of sum |d_k|^q a_k^beta = 1 over the d_k != 0 branches."""
    _, logd, loga = _plus_arrays(constants)
    return float(_pressure(logd, loga, np.array([float(q)]))[0])


def alpha_of_q(constants: SpectrumConstants, q: float) -> float:
    """Negated slope of beta at q: the alpha whose conjugate is attained
    there.  Strictly decreasing from alpha_max (q -> -inf) to alpha_min."""
    _, logd, loga = _plus_arrays(constants)
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


def _classify(constants: SpectrumConstants, alpha: float,
              overlap: bool = True) -> str:
    """Branch of a finite alpha.  overlap=False ignores the Case B linear
    part, which leaves the plain concave conjugate beta*."""
    amin, amax = constants.alpha_min, constants.alpha_max
    if amax - amin <= _DEG_TOL * max(1.0, abs(amax)):
        return ("degenerate" if abs(alpha - constants.alpha_hat) <= 1e-9
                else "empty")
    if (overlap and constants.regime is Regime.CASE_B
            and alpha < constants.alpha0):
        return "linear" if alpha >= 1.0 - _END_TOL else "empty"
    if alpha < amin - _END_TOL or alpha > amax + _END_TOL:
        return "empty"
    if alpha <= amin + _END_TOL or alpha >= amax - _END_TOL:
        return "endpoint"
    return "legendre"


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
    num = math.fsum(pk * math.log(pk) for pk in p if pk > 0.0)
    den = math.fsum(p[k - 1] * (math.log(abs(constants.d[k - 1]))
                                - math.log(constants.a[k - 1]))
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


def _tie_weights(constants: SpectrumConstants, alpha: float, s: float):
    """a_k^s on the branches whose ratio is alpha; s = 0 for a single one."""
    ties = [k for k in sorted(constants.index_plus)
            if abs(constants.rho[k] - alpha) <= 1e-9 * max(1.0, abs(alpha))]
    return tuple(ak ** s if k in ties else 0.0
                 for k, ak in enumerate(constants.a, start=1))


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


def _solve(constants: SpectrumConstants, alphas, overlap: bool = True):
    """(SpectrumPoint, q) for each finite alpha, q None off the legendre
    branch; the legendre rows share one _legendre call."""
    branches = [_classify(constants, al, overlap) for al in alphas]
    inner = [al for al, br in zip(alphas, branches) if br == "legendre"]
    qs, bs = _legendre(constants, inner)
    ks, logd, loga = _plus_arrays(constants)
    gibbs = np.zeros((len(inner), len(constants.a)))
    gibbs[:, [k - 1 for k in ks]] = np.exp(qs * logd + bs * loga).T
    solved = zip(qs.tolist(), bs.tolist(), map(tuple, gibbs.tolist()))
    out = []
    for alpha, branch in zip(alphas, branches):
        q = note = p = dim = None
        if branch == "legendre":
            q, b, p = next(solved)
            dim = alpha * q + b
        elif branch == "linear":
            p, dim = constants.p_star, constants.sigma * (alpha - 1.0)
            if alpha <= 1.0 + _END_TOL:
                dim, note = 0.0, ("left edge of the linear part; the level "
                                  "set is nonempty with dimension 0")
        elif branch != "empty":
            # all mass on the branches whose ratio is the extremal one
            end, dim = ((constants.alpha_hat, constants.s_hat)
                        if branch == "degenerate" else
                        (constants.alpha_min, constants.s_min)
                        if alpha <= constants.alpha_min + _END_TOL else
                        (constants.alpha_max, constants.s_max))
            p = _tie_weights(constants, end, dim)
        out.append((SpectrumPoint(alpha=alpha, dim=dim, branch=branch,
                                  p_opt=p, note=note), q))
    return out


def spectrum_D(constants: SpectrumConstants, alpha: float) -> SpectrumPoint:
    """Dimension of the level set at alpha (math.inf allowed)."""
    if math.isinf(alpha) and alpha > 0:
        if constants.index_zero:
            return SpectrumPoint(alpha=math.inf, dim=1.0, branch="infinite")
        return SpectrumPoint(alpha=math.inf, dim=None, branch="empty")
    return _solve(constants, [alpha])[0][0]


def spectrum_table(constants: SpectrumConstants, *, points: int = 201,
                   include_infinite: bool = True) -> tuple[SpectrumPoint, ...]:
    """Spectrum sampled on a uniform grid over the support plus the
    distinguished abscissae (support ends, maximum location, tangency point),
    ending with the alpha = inf point when some branch has d = 0.
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    if _classify(constants, constants.alpha_hat) == "degenerate":
        alphas = [constants.alpha_hat]
    else:
        special = [constants.alpha_min, constants.alpha_hat,
                   constants.alpha_max]
        if constants.regime is Regime.CASE_B:
            special = [1.0, constants.alpha0] + special[1:]
        grid = np.linspace(special[0], constants.alpha_max, points)
        alphas = np.unique(np.concatenate([grid, special])).tolist()
    rows = [pt for pt, _ in _solve(constants, alphas)]
    if include_infinite and constants.index_zero:
        rows.append(spectrum_D(constants, math.inf))
    return tuple(rows)
