"""Self-affine interpolation systems and their derived constants.

A system is a family of r >= 2 planar affine maps

    T_k(x, y) = (a_k x + b_k,  c_k x + d_k y + e_k),      k = 1..r,

pinned to a polygonal line through (x_0, y_0), ..., (x_r, y_r) with
0 = x_0 < ... < x_r = 1.  The union of the T_k images of the attractor is
the graph of the unique continuous phi: [0,1] -> R satisfying

    phi(a_k x + b_k) = c_k x + d_k phi(x) + e_k.

Pinning forces a_k = x_k - x_{k-1}, b_k = x_{k-1},
d_k (y_r - y_0) + c_k = y_k - y_{k-1} and d_k y_0 + e_k = y_{k-1}; for each
branch the vertical contraction d_k is the one free parameter.  A system is
therefore stored once, as its vertices and d, and checked once, when it is
built; its coefficients a, c and e are derived by these relations (b is
xs[:-1]), so its maps tile [0, 1].  from_branches
checks raw coefficient rows against the polygon they pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

from . import errors
from .roots import unit_sum_root

_REL_TOL = 1e-12          # from_branches' row checks; is_polynomial
LAMBDA_TOL = 1e-10        # membership test for the overlap set
_TIE_TOL = 1e-12          # equality of exponent ratios rho_k


@dataclass(frozen=True)
class SelfAffineSystem:
    """Interpolation polygon plus one vertical contraction per piece.

    `vertices` has r+1 points (x_k, y_k), `d` r contractions, both as tuples
    of floats; the maps, ordered left to right, are derived from them.
    Instances are immutable and check themselves when built: the counts
    must match and every number be finite (ValueError), the abscissae
    satisfy 0 = x_0 < ... < x_r = 1 (NonMonotonePartition), each
    |d_k| < 1 (ContractionOutOfRange) with at least two d_k != 0
    (DegenerateSystem), and the shears, lifts and sup_bound be finite
    (ValueError).
    """
    vertices: tuple[tuple[float, float], ...]
    d: tuple[float, ...]

    def __post_init__(self):
        verts, d = self.vertices, self.d
        if len(verts) < 3 or len(d) != len(verts) - 1:
            raise ValueError(
                f"need r+1 vertices and r contractions, got {len(verts)} and {len(d)}")
        if not all(map(math.isfinite, (*d, *(v for xy in verts for v in xy)))):
            raise ValueError("vertices and contractions must be finite")
        xs = self.xs
        if not (xs[0] == 0.0 and xs[-1] == 1.0
                and all(x_lo < x_hi for x_lo, x_hi in zip(xs, xs[1:]))):
            raise errors.NonMonotonePartition(
                "vertex abscissae must satisfy 0 = x_0 < ... < x_r = 1")
        for k, dk in enumerate(d, start=1):
            if not abs(dk) < 1.0:
                raise errors.ContractionOutOfRange(f"|d| = {abs(dk)} >= 1", branch=k)
        if len(self.index_plus) < 2:
            raise errors.DegenerateSystem("need at least two branches with d_k != 0")
        bound = sup_bound(self)
        if not all(map(math.isfinite, (bound, *self.c, *self.e))):
            raise ValueError(f"sup_bound = {bound}: the shears and lifts must be "
                             "finite, and small enough for doubles")

    @property
    def r(self) -> int:
        return len(self.d)

    # Derived tables are built on first use and kept: the instance is
    # immutable, and the one-point paths read them on every call.
    @cached_property
    def xs(self) -> tuple[float, ...]:
        return tuple(v[0] for v in self.vertices)

    @cached_property
    def ys(self) -> tuple[float, ...]:
        return tuple(v[1] for v in self.vertices)

    @cached_property
    def a(self) -> tuple[float, ...]:
        """Widths a_k = x_k - x_{k-1}; the offsets b_k are xs[:-1]."""
        xs = self.xs
        return tuple(x_hi - x_lo for x_lo, x_hi in zip(xs, xs[1:]))

    @cached_property
    def c(self) -> tuple[float, ...]:
        """Shears c_k = (y_k - y_{k-1}) - d_k (y_r - y_0)."""
        ys = self.ys
        rise = ys[-1] - ys[0]
        return tuple((y_hi - y_lo) - dk * rise
                     for y_lo, y_hi, dk in zip(ys, ys[1:], self.d))

    @cached_property
    def e(self) -> tuple[float, ...]:
        """Lifts e_k = y_{k-1} - d_k y_0."""
        ys = self.ys
        return tuple(y_lo - dk * ys[0] for y_lo, dk in zip(ys, self.d))

    @cached_property
    def index_zero(self) -> frozenset[int]:
        """1-based branch indices with d_k = 0."""
        return frozenset(k for k, dk in enumerate(self.d, start=1) if dk == 0.0)

    @cached_property
    def index_plus(self) -> frozenset[int]:
        """1-based branch indices with d_k != 0."""
        return frozenset(k for k, dk in enumerate(self.d, start=1) if dk != 0.0)

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, self.d))

    def __hash__(self) -> int:
        # the value the generated dataclass hash gives, computed once
        return self._hash


def build_from_polygon(vertices, d) -> SelfAffineSystem:
    """The unique pinned system through `vertices` with the given d.

    Args:
        vertices: sequence of r+1 points (x_k, y_k), x_0 = 0, x_r = 1,
            strictly increasing in x.
        d: sequence of r vertical contractions, each |d_k| < 1.

    The numbers are converted to floats; SelfAffineSystem checks them and
    raises its errors.
    """
    return SelfAffineSystem(tuple((float(x), float(y)) for x, y in vertices),
                            tuple(float(v) for v in d))


def from_branches(branches) -> SelfAffineSystem:
    """The system of raw branch rows (a, b, c, d, e), checked against the
    polygon they pin.

    y_0 and y_r come from the branch fixed points phi(0) = e_1 / (1 - d_1),
    phi(1) = (c_r + e_r) / (1 - d_r); interior ordinates from the pin
    relation y_{k-1} = d_k y_0 + e_k.  The abscissae are the running sums
    of the widths with x_r pinned to 1.  A rebuilt coordinate that is not
    finite raises ValueError naming the row it comes from.  The polygon
    goes through build_from_polygon, and each given a_r, b_k and c_k must
    then match the derived one to 1e-12 relative (SumNotOne,
    OffsetMismatch, ShearMismatch); e_k and the other widths fix the
    polygon and match it by construction.  The derived system is returned,
    so its maps tile [0, 1]: ten widths of 0.1 give x_3 = 0.30000000000000004.
    """
    rows = [tuple(map(float, row)) for row in branches]
    r = len(rows)
    if r < 2:
        raise errors.DegenerateSystem("need r >= 2 branches")
    a, b, c, d, e = zip(*rows, strict=True)
    for k, dk in enumerate(d, start=1):
        if not abs(dk) < 1.0:
            raise errors.ContractionOutOfRange(f"|d| = {abs(dk)} >= 1", branch=k)
    y0 = e[0] / (1.0 - d[0])
    xs = [0.0]
    for ak in a[:-1]:
        xs.append(xs[-1] + ak)
    xs.append(1.0)
    ys = [dk * y0 + ek for dk, ek in zip(d, e)]
    ys.append((c[-1] + e[-1]) / (1.0 - d[-1]))
    # row k sets x_k by its width and y_(k-1) by its lift; row r also y_r
    gives = [(k, f"x_{k} = x_{k - 1} + a", xs[k]) for k in range(1, r)]
    gives += [(k, f"y_{k - 1} = d y_0 + e", ys[k - 1]) for k in range(1, r + 1)]
    gives.append((r, f"y_{r} = (c + e) / (1 - d)", ys[r]))
    for k, name, v in gives:
        if not math.isfinite(v):
            raise ValueError(f"branch {k}: the row gives {name} = {v!r}, "
                             "which is not finite")
    system = build_from_polygon(zip(xs, ys), d)
    if not abs(a[-1] - system.a[-1]) <= _REL_TOL:
        raise errors.SumNotOne(f"widths leave a_r = {system.a[-1]!r}, "
                               f"not {a[-1]!r}")
    for k in range(1, r + 1):
        if not abs(b[k - 1] - xs[k - 1]) <= _REL_TOL:
            raise errors.OffsetMismatch(
                f"b = {b[k - 1]!r} but x_(k-1) = {xs[k - 1]!r}", branch=k)
        yscale = max(1.0, abs(ys[k]), abs(ys[k - 1]), abs(ys[-1] - ys[0]))
        if not abs(c[k - 1] - system.c[k - 1]) <= _REL_TOL * yscale:
            raise errors.ShearMismatch(
                f"c = {c[k - 1]!r} but the polygon gives {system.c[k - 1]!r}",
                branch=k)
    return system


def sup_bound(system: SelfAffineSystem) -> float:
    """A priori bound: sup |phi| <= max_k(|c_k| + |e_k|) / (1 - max_k |d_k|)."""
    top = max(abs(ck) + abs(ek) for ck, ek in zip(system.c, system.e))
    return top / (1.0 - max(map(abs, system.d)))


class Regime(str, Enum):
    """Which form of the spectrum applies."""
    CASE_A = "CaseA"   # some |d_k| >= a_k, or the overlap set is empty
    CASE_B = "CaseB"   # all |d_k| < a_k and the overlap set is nonempty


@dataclass(frozen=True)
class SpectrumConstants:
    """Everything derived from (a_k, d_k, c_k) that the spectrum and exponent
    layers consume.  `a` and `d` are carried so the object is self-contained
    (the CLI round-trips it through JSON).
    """
    a: tuple[float, ...]
    d: tuple[float, ...]
    index_plus: frozenset[int]
    index_zero: frozenset[int]
    rho: dict[int, float]          # log|d_k| / log a_k on index_plus
    alpha_min: float
    alpha_max: float
    s_min: float                   # sum over argmin-rho branches of a^s = 1
    s_max: float                   # same over argmax-rho branches
    s_hat: float                   # sum over index_plus of a^s = 1
    alpha_hat: float               # location of the spectrum maximum
    k1: float                      # terminal-run correction constants
    k2: float
    lambda_set: frozenset[int]     # indices k with overlapping expansions
    lambda_borderline: frozenset[int]  # |expression| <= tol but nonzero
    regime: Regime
    sigma: float | None            # CaseB only: sum (|d_k|/a_k)^sigma = 1
    p_star: tuple[float, ...] | None   # CaseB maximiser, zeros on index_zero
    alpha0: float | None           # CaseB kink between linear and concave parts

    @cached_property
    def _logs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(log a_k, log|d_k|) by branch, -inf where d_k = 0, from
        _branch_logs and built once.  The pressure columns, the run
        constants, the periodic ratio and both finite-horizon traces read
        this table, so every exponent of a point comes from the same bits."""
        return _branch_logs(self.a, self.d)

    @cached_property
    def _run_flags(self) -> dict:
        """Terminal-run corrections by side, built once: side -> ((K1, K2),
        flags), where flags[b] tells for each boundary digit b = 0..r
        whether K1 and K2 correct the run of the extreme digit after b.  A
        run of r (right side) takes K1 when b + 1 has d != 0 and K2 when b
        is in the overlap set; a run of 1 (left side) when b - 1 does, resp.
        is.  b = 0 stands for no boundary digit yet and never corrects."""
        r = len(self.a)
        plus, lam = self.index_plus, self.lambda_set
        right = [(b > 0 and b + 1 in plus, b > 0 and b in lam)
                 for b in range(r + 1)]
        left = [(b > 0 and b - 1 in plus, b > 0 and b - 1 in lam)
                for b in range(r + 1)]
        loga, logd = self._logs
        return {"right": ((self.k1, self.k2), right),
                "left": (_terminal_run_constants(loga[::-1], logd[::-1]), left)}

    @cached_property
    def _plus_columns(self):
        """0-based indices of the d_k != 0 branches in increasing order, and
        log|d_k|, log a_k on them as read-only (m, 1) columns of _logs, built
        once: the spectrum layer's pressure sums run down these."""
        import numpy as np
        cols = sorted(k - 1 for k in self.index_plus)
        loga, logd = (np.array([[logs[k]] for k in cols]) for logs in self._logs)
        logd.flags.writeable = loga.flags.writeable = False
        return cols, logd, loga

    def to_dict(self) -> dict:
        return {f.name: _json_field(f, getattr(self, f.name), 0)
                for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "SpectrumConstants":
        return SpectrumConstants(**{f.name: _json_field(f, data[f.name], 1)
                                    for f in fields(SpectrumConstants)})


# JSON form of a constants field by the head of its type annotation (a
# string under the __future__ import): (to JSON, back)
_JSON_FORMS = {
    "tuple": (list, tuple),
    "frozenset": (sorted, frozenset),
    "dict": (lambda m: {str(k): v for k, v in sorted(m.items())},
             lambda m: {int(k): v for k, v in m.items()}),
    "Regime": (lambda g: g.value, Regime),
}


def _json_field(f, value, way: int):
    """value of field f converted to JSON (way 0) or back (way 1); None and
    plain floats pass through."""
    forms = _JSON_FORMS.get(f.type.split("[")[0])
    return value if value is None or forms is None else forms[way](value)


def lambda_set(system: SelfAffineSystem, tol: float = LAMBDA_TOL):
    """Overlap index set: k in 1..r-1 where the two one-sided expansions of
    phi at the interior vertex x_k genuinely differ.

    Convention: 0/0 terms count as zero; k is declared a member outright when
    a_1 = d_1 with c_1 d_{k+1} != 0, or a_r = d_r with c_r d_k != 0 (the union
    of the two degenerate rules).  Expressions with 0 < |value| <= tol are
    classified out and reported in the borderline set.

    Returns (members, borderline) as frozensets.  A negative or nan tol
    raises ValueError: it would classify some index arbitrarily.
    """
    if not tol >= 0.0:
        raise ValueError(f"lambda tol must be >= 0, got {tol}")
    a, c, d = system.a, system.c, system.d
    r = system.r
    members, borderline = set(), set()
    for k in range(1, r):
        dk, dk1 = d[k - 1], d[k]
        if max(abs(dk), abs(dk1)) == 0.0:
            continue
        if a[0] == d[0] and c[0] * dk1 != 0.0:
            members.add(k)
            continue
        if a[-1] == d[-1] and c[-1] * dk != 0.0:
            members.add(k)
            continue
        expr = c[k] * a[k - 1] - c[k - 1] * a[k]
        num_left = c[0] * dk1 * a[k - 1]
        if num_left != 0.0:
            expr += num_left / (a[0] - d[0])
        num_right = c[-1] * dk * a[k]
        if num_right != 0.0:
            expr -= num_right / (a[-1] - d[-1])
        if abs(expr) > tol:
            members.add(k)
        elif expr != 0.0:
            borderline.add(k)
    return frozenset(members), frozenset(borderline)


def two_branch_lambda_empty(system: SelfAffineSystem, tol: float = 1e-9) -> bool:
    """For r = 2 with |d_k| < a_k: the overlap set is empty iff the shears are
    proportional, c_1/(a_1-d_1) = c_2/(a_2-d_2), or d_1/a_1 + d_2/a_2 = 1.
    Independent of lambda_set(); used for cross-checking.
    """
    if system.r != 2:
        raise ValueError("criterion applies to two-branch systems only")
    (a1, a2), (c1, c2), (d1, d2) = system.a, system.c, system.d
    if not (abs(d1) < a1 and abs(d2) < a2):
        raise errors.ContractionOutOfRange("criterion needs |d_k| < a_k")
    g1, g2 = c1 / (a1 - d1), c2 / (a2 - d2)
    if abs(g1 - g2) <= tol * max(1.0, abs(g1), abs(g2)):
        return True
    return abs(d1 / a1 + d2 / a2 - 1.0) <= tol


def _branch_logs(a, d) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(log a_k, log|d_k|) by branch, -inf where d_k = 0: the one place a
    branch log is taken, so that every layer reads the same bits."""
    return (tuple(map(math.log, a)),
            tuple(math.log(abs(dk)) if dk else -math.inf for dk in d))


def _terminal_run_constants(loga, logd) -> tuple[float, float]:
    """(K1, K2) of the terminal-run correction at the right end, from the
    branch logs:

        K1 = (log a_r / log a_1) log|d_1| - log|d_r|,
        K2 = log a_r - log|d_r|,

    each 0 when a log|d| it reads is -inf.  Reversed tables give the left
    end, with the roles of branches 1 and r swapped."""
    k1 = 0.0 if -math.inf in (logd[0], logd[-1]) else \
        (loga[-1] / loga[0]) * logd[0] - logd[-1]
    k2 = 0.0 if logd[-1] == -math.inf else loga[-1] - logd[-1]
    return k1, k2


def _log_ratio(x: float, y: float) -> float:
    """log(x / y) for 0 < x < y, within a few ulps relative.  Near x = y the
    log is small and the rounding of x / y would dominate it; there
    (x >= y / 2) x - y is exact (Sterbenz's lemma), so log1p((x - y) / y)
    loses only the division's rounding."""
    return math.log1p((x - y) / y) if x + x >= y else math.log(x / y)


def _end_ties(rho: dict[int, float], end: float) -> list[int]:
    """The branches k, in increasing order, whose ratio rho_k equals the
    support end `end` to within 1e-12: the branches that carry the mass of
    the spectrum's endpoint rows, and whose widths fix s_min and s_max."""
    return [k for k in sorted(rho) if abs(rho[k] - end) <= _TIE_TOL]


def compute_constants(system: SelfAffineSystem, *,
                      lambda_tol: float = LAMBDA_TOL) -> SpectrumConstants:
    """Derive every spectrum constant of a system.

    s_hat, s_min, s_max and, in Case B, sigma are the roots of unit sums,
    solved by roots.unit_sum_root: sum a_k^s = 1 over the d_k != 0
    branches, over those tied at alpha_min and over those tied at alpha_max
    (_end_ties; a lone branch gives s = 0), and sum (|d_k| / a_k)^sigma = 1
    over the d_k != 0 branches, whose terms are p_star.
    """
    a, d = system.a, system.d
    iplus = sorted(system.index_plus)
    izero = system.index_zero

    loga, logd = _branch_logs(a, d)
    rho = {k: logd[k - 1] / loga[k - 1] for k in iplus}
    alpha_min = min(rho.values())
    alpha_max = max(rho.values())
    s_min, s_max, s_hat = (
        unit_sum_root([loga[k - 1] for k in ks])
        for ks in (_end_ties(rho, alpha_min), _end_ties(rho, alpha_max), iplus))

    wts = [a[k - 1] ** s_hat for k in iplus]
    alpha_hat = (math.fsum(w * logd[k - 1] for w, k in zip(wts, iplus))
                 / math.fsum(w * loga[k - 1] for w, k in zip(wts, iplus)))

    k1, k2 = _terminal_run_constants(loga, logd)

    lam, borderline = lambda_set(system, tol=lambda_tol)

    contractive = all(abs(d[k - 1]) < a[k - 1] for k in range(1, system.r + 1))
    if contractive and lam:
        regime = Regime.CASE_B
        logs = {k: _log_ratio(abs(d[k - 1]), a[k - 1]) for k in iplus}
        sigma = unit_sum_root(list(logs.values()))
        p_star = tuple(math.exp(sigma * logs[k]) if k in logs else 0.0
                       for k in range(1, system.r + 1))
        alpha0 = (math.fsum(p_star[k - 1] * logd[k - 1] for k in iplus)
                  / math.fsum(p_star[k - 1] * loga[k - 1] for k in iplus))
    else:
        regime = Regime.CASE_A
        sigma = None
        p_star = None
        alpha0 = None

    return SpectrumConstants(
        a=a, d=d, index_plus=frozenset(iplus), index_zero=izero, rho=rho,
        alpha_min=alpha_min, alpha_max=alpha_max,
        s_min=s_min, s_max=s_max, s_hat=s_hat, alpha_hat=alpha_hat,
        k1=k1, k2=k2, lambda_set=lam, lambda_borderline=borderline,
        regime=regime, sigma=sigma, p_star=p_star, alpha0=alpha0)


def antiderivative_system(system: SelfAffineSystem) -> SelfAffineSystem:
    """System whose attractor is the graph of x -> integral_0^x phi.

    Requires all shears zero (c == 0); then psi = int phi is itself
    self-affine with widths a_k, shears a_k e_k and contractions a_k d_k.
    The total integral follows from self-affinity:
    I = sum a_k (e_k + d_k I), so I = (sum a_k e_k) / (1 - sum a_k d_k),
    and psi rises by a_k (e_k + d_k I) over piece k.  The resulting system
    always has an empty overlap set.
    """
    if any(ck != 0.0 for ck in system.c):
        raise errors.ShearedSystem("antiderivative needs all shears c_k = 0")
    a, d, e = system.a, system.d, system.e
    r = system.r
    total = math.fsum(a[k] * e[k] for k in range(r)) \
        / (1.0 - math.fsum(a[k] * d[k] for k in range(r)))
    ys = [0.0]
    for k in range(r):
        ys.append(ys[-1] + a[k] * (e[k] + d[k] * total))
    return build_from_polygon(zip(system.xs, ys),
                              [a[k] * d[k] for k in range(r)])
