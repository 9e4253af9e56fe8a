"""Independent references for the benchmark's output checks.

Nothing here calls into affine_spectra beyond reading a system's stored
coefficients.  Values of phi and digit expansions come from exact
`Fraction` orbits, the pressure beta(q) and its conjugate from `mpmath`
Newton iterations, and the exponent and derivative statements from their
closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

_DPS = 40


def _exact(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


# ----------------------------------------------------------------- phi


class ExactSystem:
    """The stored coefficients of a system as exact rationals.

    The orbit follows the recursion phi(x_{k-1} + a_k t) = c_k t + d_k phi(t)
    + e_k with the stored abscissae x_k and stored widths a_k, which is the
    recursion the program evaluates in doubles.
    """

    def __init__(self, system):
        self.r = system.r
        self.xs = _exact(system.xs)
        self.a = _exact(system.a)
        self.c = _exact(system.c)
        self.d = _exact(system.d)
        self.e = _exact(system.e)
        top = max(abs(c) + abs(e) for c, e in zip(self.c, self.e))
        self.sup = top / (1 - max(abs(d) for d in self.d))
        # phi(0) and phi(1) are the fixed points of the first and last map
        self.phi0 = self.e[0] / (1 - self.d[0])
        self.phi1 = (self.c[-1] + self.e[-1]) / (1 - self.d[-1])

    def branch(self, t: Fraction) -> int:
        k = 1
        while k < self.r and t >= self.xs[k]:
            k += 1
        return k


def phi_exact(ex: ExactSystem, x, rem_tol: float) -> tuple[Fraction, Fraction]:
    """(value, remainder) with |phi(x) - value| <= remainder <= rem_tol.

    phi(x) = A + B t + R phi(t) holds exactly after every step; the orbit
    stops when |R| sup|phi| <= rem_tol or t lands on 0 or 1, where phi is
    known exactly.
    """
    t = Fraction(x)
    A, B, R = Fraction(0), Fraction(0), Fraction(1)
    tol = Fraction(rem_tol)
    while True:
        if t == 0:
            return A + R * ex.phi0, Fraction(0)
        if t == 1:
            return A + B + R * ex.phi1, Fraction(0)
        if abs(R) * ex.sup <= tol:
            return A + B * t, abs(R) * ex.sup
        k = ex.branch(t) - 1
        t = (t - ex.xs[k]) / ex.a[k]
        A += B * ex.xs[k] + R * ex.e[k]
        B = B * ex.a[k] + R * ex.c[k]
        R = R * ex.d[k]


def digits_exact(system, x, n: int) -> tuple[int, ...]:
    """First n digits of the exact expansion of x under the partition of
    the stored abscissae.  A point of the partition's images gets the right
    coding: the digit to the right of the vertex, then all 1s."""
    cuts = _exact(system.xs)
    r = system.r
    t = Fraction(x)
    out: list[int] = []
    while len(out) < n:
        if t == 0 and out:
            out.extend([1] * (n - len(out)))
            break
        k = 1
        while k < r and t >= cuts[k]:
            k += 1
        out.append(k)
        t = (t - cuts[k - 1]) / (cuts[k] - cuts[k - 1])
    return tuple(out)


def ulp_slack(ex: ExactSystem, ulps: int) -> float:
    """`ulps` units in the last place of the a-priori bound on sup|phi|."""
    return ulps * math.ulp(float(ex.sup))


# ------------------------------------------------------------ spectrum


def _plus_logs(a, d):
    ks = [k for k in range(len(d)) if d[k] != 0.0]
    logd = [mpmath.log(abs(mpmath.mpf(d[k]))) for k in ks]
    loga = [mpmath.log(mpmath.mpf(a[k])) for k in ks]
    return logd, loga


def _unit_sum_root(offsets, slopes):
    """s with sum exp(o_k + s l_k) = 1 for slopes l_k < 0.  The sum is convex
    and decreasing in s, so Newton from a point where it is >= 1 converges
    monotonically."""
    def terms(s):
        return [mpmath.exp(o + s * sl) for o, sl in zip(offsets, slopes)]

    s = mpmath.mpf(0)
    while mpmath.fsum(terms(s)) < 1:
        s -= 1
    for _ in range(200):
        w = terms(s)
        step = (mpmath.fsum(w) - 1) / mpmath.fsum(wk * sl for wk, sl in zip(w, slopes))
        s -= step
        if abs(step) < mpmath.mpf(10) ** (-_DPS + 5):
            return s
    raise ArithmeticError("Newton did not converge")


def _beta(logd, loga, q):
    return _unit_sum_root([q * ld for ld in logd], loga)


def _alpha_and_curvature(logd, loga, q):
    """alpha(q) = -beta'(q) and beta''(q) = sum w u^2 / (-sum w log a) with
    Gibbs weights w = |d|^q a^beta(q) and u = log|d| - alpha log a."""
    b = _beta(logd, loga, q)
    w = [mpmath.exp(q * ld + b * la) for ld, la in zip(logd, loga)]
    den = mpmath.fsum(wk * la for wk, la in zip(w, loga))
    alpha = mpmath.fsum(wk * ld for wk, ld in zip(w, logd)) / den
    curv = mpmath.fsum(wk * (ld - alpha * la) ** 2
                       for wk, ld, la in zip(w, logd, loga)) / (-den)
    return alpha, curv


def beta_mp(a, d, q) -> float:
    """beta(q): sum |d_k|^q a_k^beta = 1 over the d_k != 0 branches."""
    with mpmath.workdps(_DPS):
        logd, loga = _plus_logs(a, d)
        return float(_beta(logd, loga, mpmath.mpf(q)))


def beta_star_mp(a, d, alpha) -> float:
    """inf_q (alpha q + beta(q)) for alpha strictly inside the ratio range.

    Newton on alpha(q) = alpha with derivative -beta''(q), kept inside a
    bracket on which alpha(q) - alpha changes sign."""
    with mpmath.workdps(_DPS):
        logd, loga = _plus_logs(a, d)
        target = mpmath.mpf(alpha)
        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        while _alpha_and_curvature(logd, loga, lo)[0] < target:
            lo *= 2
        while _alpha_and_curvature(logd, loga, hi)[0] > target:
            hi *= 2
        q = (lo + hi) / 2
        for _ in range(400):
            al, curv = _alpha_and_curvature(logd, loga, q)
            if al > target:
                lo = q
            else:
                hi = q
            nxt = q + (al - target) / curv
            if not lo < nxt < hi:
                nxt = (lo + hi) / 2
            if abs(nxt - q) < mpmath.mpf(10) ** (-_DPS + 8):
                return float(target * nxt + _beta(logd, loga, nxt))
            q = nxt
        raise ArithmeticError("beta* Newton did not converge")


def partition_exponent_mp(widths) -> float:
    """s with sum a_k^s = 1 (0 for a single width)."""
    with mpmath.workdps(_DPS):
        logs = [mpmath.log(mpmath.mpf(v)) for v in widths]
        return float(_unit_sum_root([0] * len(logs), logs))


def sigma_mp(a, d) -> float:
    """sigma with sum (|d_k| / a_k)^sigma = 1 over d_k != 0."""
    with mpmath.workdps(_DPS):
        logs = [mpmath.log(abs(mpmath.mpf(dk)) / mpmath.mpf(ak))
                for ak, dk in zip(a, d) if dk != 0.0]
        return float(_unit_sum_root([0] * len(logs), logs))


# --------------------------------------------------------- closed forms


def ratio(system, digits) -> float:
    """sum log|d_k| / sum log a_k over the digits: the exponent of a
    periodic coding when the digits are one period."""
    num = math.fsum(math.log(abs(system.d[k - 1])) for k in digits)
    den = math.fsum(math.log(system.a[k - 1]) for k in digits)
    return num / den


def tail_window_min_ratio(system, digits) -> float:
    """min over n in (N/2, N] of the plain digit ratio of the first n
    digits: the uncorrected finite-horizon liminf estimate."""
    n_all = len(digits)
    best = math.inf
    num = den = 0.0
    for n, k in enumerate(digits, start=1):
        num += math.log(abs(system.d[k - 1]))
        den += math.log(system.a[k - 1])
        if n > n_all // 2:
            best = min(best, num / den)
    return best


def derivative_exact(system, prefix, period) -> Fraction:
    """sum_m (c/a)_{k_m} prod_{i<m} (d/a)_{k_i} summed in closed form: the
    prefix terms plus a geometric series over the period."""
    a, c, d = _exact(system.a), _exact(system.c), _exact(system.d)
    total, P = Fraction(0), Fraction(1)
    for k in prefix:
        total += c[k - 1] / a[k - 1] * P
        P *= d[k - 1] / a[k - 1]
    window, Q = Fraction(0), Fraction(1)
    for k in period:
        window += c[k - 1] / a[k - 1] * Q
        Q *= d[k - 1] / a[k - 1]
    return total + P * window / (1 - Q)


OVERLAP_RTOL = 1e-9   # the stored coefficients are rounded


def one_sided_derivatives(system, k: int) -> tuple[Fraction, Fraction]:
    """phi'(x_k-) and phi'(x_k+) at the interior vertex x_k: the derivative
    series of its left coding (k, r, r, ...) and of its right coding
    (k+1, 1, 1, ...).  Needs |d_1| < a_1 and |d_r| < a_r, so that both
    geometric tails converge."""
    if not (abs(system.d[0]) < system.a[0] and abs(system.d[-1]) < system.a[-1]):
        raise ValueError("one-sided derivatives need |d_1| < a_1 and |d_r| < a_r")
    return (derivative_exact(system, (k,), (system.r,)),
            derivative_exact(system, (k + 1,), (1,)))


def overlap_set(system) -> frozenset[int]:
    """Interior vertices k at which the two expansions of phi give different
    one-sided derivatives.  A vertex between two d = 0 branches is left out:
    phi is affine on both sides there, a plain corner."""
    out = set()
    for k in range(1, system.r):
        if system.d[k - 1] == 0.0 and system.d[k] == 0.0:
            continue
        left, right = one_sided_derivatives(system, k)
        if abs(left - right) > OVERLAP_RTOL * max(1, abs(left), abs(right)):
            out.add(k)
    return frozenset(out)


def is_case_b(system) -> bool:
    """All |d_k| < a_k and a nonempty overlap set: the regime whose spectrum
    has the linear part sigma (alpha - 1)."""
    return (all(abs(dk) < ak for ak, dk in zip(system.a, system.d))
            and bool(overlap_set(system)))


def ae_exponent(system) -> float:
    """sum a_k log|d_k| / sum a_k log a_k; infinite when some d_k = 0."""
    if any(dk == 0.0 for dk in system.d):
        return math.inf
    num = math.fsum(ak * math.log(abs(dk)) for ak, dk in zip(system.a, system.d))
    den = math.fsum(ak * math.log(ak) for ak in system.a)
    return num / den


def rho(system, k: int) -> float:
    """log|d_k| / log a_k, infinite when d_k = 0."""
    dk = system.d[k - 1]
    if dk == 0.0:
        return math.inf
    return math.log(abs(dk)) / math.log(system.a[k - 1])
