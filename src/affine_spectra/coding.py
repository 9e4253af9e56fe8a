"""Digit addresses of points under the branch partition.

A coding (k_1, k_2, ...) over {1..r} addresses the point
xi = lim S_{k_1} o ... o S_{k_n}(0) where S_k(x) = a_k x + b_k.  Points of
the countable set T (images of 0 and 1 under finite compositions) carry two
codings; everywhere we canonicalise to the *right* coding, whose tail is all
ones after an incremented digit.

Digits come from one exact orbit, t -> (t - x_{k-1}) / (x_k - x_{k-1}),
over the stored abscissae.  These are doubles, hence integers over one
power of two, and every input (a float or a Fraction) is a ratio of
integers, so the orbit runs on Python ints with no rounding: the digits of
coding_of_point and in_T are exact for every input.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import errors
from .ifs import SelfAffineSystem

# Uniforms per draw of generate_run_structured
_DRAW_BLOCK = 8192
# Largest shift of gamma2 at the last block end that the earlier runs of the
# default schedule may cause
_EARLIER_RUNS_BIAS = 0.002
# Digits _compose composes one by one before it splits a string in halves
_COMPOSE_RUN = 64


def _check_positive(digits) -> None:
    """InvalidCoding at the first digit that is not an integer >= 1."""
    for k in digits:
        if not (isinstance(k, int) and k >= 1):
            raise errors.InvalidCoding(f"digit {k!r} must be an integer >= 1")


@dataclass(frozen=True)
class Coding:
    """Digit string: finite prefix, optionally followed by a repeating period.

    A coding with period None leaves the tail unspecified; operations that
    need the exact point treat it as the left endpoint of its basic interval.
    """
    prefix: tuple[int, ...] = ()
    period: tuple[int, ...] | None = None
    # largest prefix digit, when _of_digits recorded it (not a field)
    _prefix_max = None

    def __post_init__(self):
        _check_positive(self.prefix)
        if self.period is not None:
            if len(self.period) == 0:
                raise errors.InvalidCoding("period must be nonempty when given")
            _check_positive(self.period)

    @classmethod
    def _of_digits(cls, prefix: tuple[int, ...],
                   period: tuple[int, ...] | None = None,
                   prefix_max: int | None = None) -> "Coding":
        """A Coding of digits the package produced, which are integers in
        1..r already: no check runs.  prefix_max, when given, is recorded
        as the largest prefix digit for max_digit.  The result equals,
        hashes and reprs like Coding(prefix, period)."""
        coding = object.__new__(cls)
        coding.__dict__.update(prefix=prefix, period=period)
        if prefix_max is not None:
            coding.__dict__["_prefix_max"] = prefix_max
        return coding

    @property
    def eventually_periodic(self) -> bool:
        return self.period is not None

    def digit(self, i: int) -> int:
        """1-based digit k_i; periods repeat forever."""
        if i < 1:
            raise errors.InvalidCoding("digit positions are 1-based")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.period is None:
            raise errors.InvalidCoding(
                f"coding has only {len(self.prefix)} digits, asked for {i}")
        return self.period[(i - len(self.prefix) - 1) % len(self.period)]

    def digits(self, n: int) -> tuple[int, ...]:
        """First n digits."""
        if n <= len(self.prefix):
            return self.prefix[:n]
        if self.period is None:
            raise errors.InvalidCoding(
                f"coding has only {len(self.prefix)} digits, asked for {n}")
        reps = (n - len(self.prefix) + len(self.period) - 1) // len(self.period)
        return (self.prefix + self.period * reps)[:n]

    def available(self) -> int | None:
        """Number of digits on hand, None when infinite."""
        return None if self.period is not None else len(self.prefix)

    def constant_tail(self) -> int | None:
        """The digit the coding ends in forever, if any."""
        if self.period is not None and len(set(self.period)) == 1:
            return self.period[0]
        return None

    def max_digit(self) -> int:
        """Largest digit; a prefix whose maximum _of_digits recorded is not
        scanned again."""
        top = self._prefix_max
        if top is None:
            top = max(self.prefix, default=1)
        return max(top, max(self.period)) if self.period is not None else top


_PERIOD_RE = re.compile(r"\(([^()]*)\)\s*$")


def parse_coding(text: str) -> Coding:
    """Parse "1,2,(1,2)" or "(2,1)" or "1,1,2"; whitespace is ignored."""
    text = text.strip()
    if not text:
        raise errors.InvalidCoding("empty coding string")
    period = None
    m = _PERIOD_RE.search(text)
    if m:
        body = m.group(1).strip()
        if not body:
            raise errors.InvalidCoding("empty period ()")
        text = text[:m.start()].rstrip().rstrip(",")
    try:
        period = tuple(int(p) for p in m.group(1).split(",")) if m else None
        prefix = tuple(int(p) for p in text.split(",")) if text else ()
    except ValueError:
        raise errors.InvalidCoding(f"malformed coding string {text!r}") from None
    return Coding(prefix=prefix, period=period)


def format_coding(coding: Coding) -> str:
    parts = [str(k) for k in coding.prefix]
    if coding.period is not None:
        parts.append("(" + ",".join(str(k) for k in coding.period) + ")")
    return ",".join(parts) if coding.prefix else (parts[-1] if parts else "")


def _check_digits(coding: Coding, r: int) -> None:
    top = coding.max_digit()
    if top > r:
        raise errors.InvalidCoding(f"digit {top} exceeds branch count r = {r}")


@dataclass(frozen=True)
class BasicInterval:
    """Image of [0,1] under the composition along `digits`; length is the
    product of the widths."""
    digits: tuple[int, ...]
    left: float
    right: float
    length: float


@dataclass(frozen=True)
class PointCoding:
    """Result of addressing a point: the digit coding plus `interval`, the
    basic interval of all the emitted digits (the deepest one containing
    the point, equal to basic_interval(system, coding.prefix)).  cut_point
    marks membership of T (tail of 1s emitted).  The digits are exact, so
    ambiguous is always False; it stays for readers of earlier output."""
    coding: Coding
    interval: BasicInterval
    cut_point: bool
    ambiguous: bool = False


def _below(num: int, den: int) -> float:
    """num / den rounded down to a double (int division rounds to nearest)."""
    f = num / den
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, -math.inf) if fn * den > num * fd else f


def _above(num: int, den: int) -> float:
    """num / den rounded up to a double."""
    f = num / den
    fn, fd = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if fn * den < num * fd else f


def _exact_interval(digits: tuple[int, ...], left: int, width: int,
                    den: int) -> BasicInterval:
    """The interval [left, left + width] / den, its ends rounded outward so
    that it contains every point of the exact one; length is rounded to
    nearest."""
    return BasicInterval(digits, _below(left, den),
                         _above(left + width, den), width / den)


@lru_cache(maxsize=128)
def _partition(system: SelfAffineSystem):
    """The stored abscissae over one power of two, x_k = X[k] / 2**p, and
    the widths W[k - 1] = X[k] - X[k - 1], built once per system: returns
    (X, W, p)."""
    ratios = [x.as_integer_ratio() for x in system.xs]
    p = max(den for _, den in ratios).bit_length() - 1
    X = tuple(num * ((1 << p) // den) for num, den in ratios)
    return X, tuple(hi - lo for lo, hi in zip(X, X[1:])), p


def _orbit(X: tuple[int, ...], W: tuple[int, ...], p: int, u: int, v: int,
           n: int) -> tuple[list[int], int, int]:
    """Up to n digits of t = u / v in [0, 1) under the partition X / 2**p
    with widths W.

    Each step picks the branch k with x_{k-1} <= t < x_k and maps t to
    (t - x_{k-1}) / (x_k - x_{k-1}), all in integers: t >= x_k reads
    u 2^p >= X_k v, and the new t is
    (u 2^p - X_{k-1} v) / (W_{k-1} v).  Stops early when t reaches 0,
    where the digits so far end the right coding of a vertex image.
    Returns (digits, u, v).
    """
    r = len(W)
    digits = []
    for _ in range(n):
        if not u:
            break
        w = u << p
        k, low = 1, 0
        while k < r:
            high = X[k] * v
            if w < high:
                break
            k, low = k + 1, high    # low = X_{k-1} v, reused by the update
        digits.append(k)
        u = w - low
        v *= W[k - 1]
    return digits, u, v


def coding_of_point(system: SelfAffineSystem, x, depth: int) -> PointCoding:
    """Digit address of x in (0, 1) to the requested depth.

    x is a float (numpy scalars go through float(x)) or a Fraction, and
    either is an exact rational, so the digits are exact for every input:
    the expansion over the stored abscissae, with no tolerance, and
    ambiguous is always False.  Points of T return the right coding
    (incremented digit, then all 1s) and cut_point.  NaN, infinities and
    numbers outside (0, 1) raise OutOfDomain.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    xv = x if isinstance(x, (Fraction, int)) else float(x)
    if not (0 < xv < 1):
        raise errors.OutOfDomain(f"x = {xv} not in (0, 1)")
    X, W, p = _partition(system)
    num, den = xv.as_integer_ratio()
    digits, u, v = _orbit(X, W, p, num, den, depth)
    cut = u == 0
    pad = depth - len(digits)
    prefix = tuple(digits) + (1,) * pad
    # After the orbit's m digits x = L + W u / v, with L = (num 2^(pm) - u)
    # / (den 2^(pm)) and W = v / (den 2^(pm)).  A cut leaves u = 0, and
    # each padded digit 1 keeps L and scales W by x_1 = X_1 / 2^p.  Over
    # D = den 2^(p depth): L D = num 2^(p depth) - u and W D = v X_1^pad.
    shift = p * depth
    interval = _exact_interval(prefix, (num << shift) - u, v * X[1] ** pad,
                               den << shift)
    coding = Coding._of_digits(prefix, (1,) if cut else None)
    return PointCoding(coding=coding, interval=interval, cut_point=cut)


def _compose(X: tuple[int, ...], W: tuple[int, ...], p: int,
             digits) -> tuple[int, int]:
    """The composition along digits of t -> (X[k-1] + W[k-1] t) / 2**p,
    in integers: returns (left, width) with the map t -> (left + width t)
    / 2**(p n) after n digits.

    Up to _COMPOSE_RUN digits are composed one by one.  Longer strings are
    split in halves, each composed alone: the maps (l1 + w1 t) / 2**(p h)
    and (l2 + w2 t) / 2**(p (n - h)) compose to ((l1 << p (n - h)) + w1 l2
    + w1 w2 t) / 2**(p n), so the integers meet at balanced sizes and the
    multiplications stay subquadratic, where one by one each digit
    multiplies an integer of the full width so far."""
    n = len(digits)
    if n > _COMPOSE_RUN:
        h = n // 2
        l1, w1 = _compose(X, W, p, digits[:h])
        l2, w2 = _compose(X, W, p, digits[h:])
        return (l1 << (p * (n - h))) + w1 * l2, w1 * w2
    left, width = 0, 1
    for k in digits:
        left = (left << p) + width * X[k - 1]
        width *= W[k - 1]
    return left, width


def basic_interval(system: SelfAffineSystem, digits) -> BasicInterval:
    """Image of [0, 1] under the composition along `digits`, composed
    exactly over the stored abscissae (a_k = x_k - x_{k-1}) and rounded
    outward."""
    digits = tuple(digits)
    _check_digits(Coding(prefix=digits), system.r)
    X, W, p = _partition(system)
    left, width = _compose(X, W, p, digits)
    return _exact_interval(digits, left, width, 1 << (p * len(digits)))


def project(system: SelfAffineSystem, coding: Coding, *, exact: bool = False):
    """Point addressed by the coding, over the stored abscissae: b_k =
    x_{k-1} and a_k = x_k - x_{k-1}, the partition that in_T and
    coding_of_point resolve against.

    Prefix and period are composed in integers over powers of two, and an
    eventually periodic coding resolves through the affine fixed point of
    the period composition; a bare prefix projects to the left endpoint of
    its basic interval (an implicit all-1 tail).  The point is one ratio of
    integers: exact=True returns it as a Fraction, otherwise it is rounded
    once to the nearest double (int true division rounds correctly), so
    project(s, c) == float(project(s, c, exact=True)).
    """
    _check_digits(coding, system.r)
    X, W, p = _partition(system)
    left, width = _compose(X, W, p, coding.prefix)
    den = 1 << (p * len(coding.prefix))
    if coding.period is not None:
        # the period's fixed point: t = (u + v t) / 2**(p q) = u / fix
        u, v = _compose(X, W, p, coding.period)
        fix = (1 << (p * len(coding.period))) - v
        left, den = left * fix + width * u, den * fix
    return Fraction(left, den) if exact else left / den


@dataclass(frozen=True)
class CutPointQuery:
    """in_T answer.  For members, `left` is the coding with the all-r tail
    and `right` the all-1-tail twin (either may be None at 0 and 1).
    decided=False marks a rational orbit that neither terminated nor cycled
    within the depth cap."""
    member: bool
    left: Coding | None = None
    right: Coding | None = None
    decided: bool = True
    n0: int | None = None          # length of the stem before the tail
    boundary_digit: int | None = None  # k_{n0} of the all-r-tail coding


def _cut_codings_from_stem(stem: tuple[int, ...], r: int) -> CutPointQuery:
    """stem = digits of the all-r-tail coding with trailing r's stripped,
    each in 1..r already."""
    if not stem:
        # the point 1; only the all-r coding exists
        return CutPointQuery(member=True, left=Coding._of_digits((), (r,)),
                             right=None, n0=0, boundary_digit=None)
    left = Coding._of_digits(stem, (r,))
    right = Coding._of_digits(stem[:-1] + (stem[-1] + 1,), (1,))
    return CutPointQuery(member=True, left=left, right=right,
                         n0=len(stem), boundary_digit=stem[-1])


def _cut_query(coding: Coding, r: int) -> CutPointQuery:
    """in_T's answer for a coding whose digits are checked: members are
    exactly the codings that end in all 1s or all rs."""
    tail = coding.constant_tail()
    if tail not in (1, r):
        # a non-constant period is definitely not in T; an unspecified tail
        # is undecided
        return CutPointQuery(member=False, decided=coding.period is not None)
    digits = list(coding.prefix)
    while digits and digits[-1] == tail:
        digits.pop()
    if tail == r:
        return _cut_codings_from_stem(tuple(digits), r)
    if not digits:
        # the point 0; only the all-1 coding exists
        return CutPointQuery(member=True, left=None,
                             right=Coding._of_digits((), (1,)),
                             n0=0, boundary_digit=None)
    # the last digit before the 1s is at least 2
    return _cut_codings_from_stem(tuple(digits[:-1]) + (digits[-1] - 1,), r)


def in_T(system: SelfAffineSystem, target, *, max_depth: int = 4096) -> CutPointQuery:
    """Decide membership of the two-coding set T.

    `target` is a number in [0, 1] or a Coding; NaN, infinities and other
    numbers outside [0, 1] raise OutOfDomain.  Numbers follow the exact
    digit orbit of coding_of_point (floats are exact rationals), reduced to
    lowest terms at each step for cycle detection.  The stored abscissae
    are doubles, hence dyadic, so every point of T and every orbit point of
    a member is a dyadic rational: an orbit point whose reduced denominator
    is not a power of two decides non-membership at once.  If the orbit
    neither hits 0, leaves the dyadics nor revisits a state within
    max_depth steps the answer is (member=False, decided=False).  Codings
    decide by inspecting the tail: members are exactly the codings that end
    in all 1s or all rs.
    """
    r = system.r
    if isinstance(target, Coding):
        _check_digits(target, r)
        return _cut_query(target, r)

    if isinstance(target, float) and not math.isfinite(target):
        raise errors.OutOfDomain(f"x = {target} not in [0, 1]")
    x = Fraction(target)
    if x == 0:
        return CutPointQuery(member=True, left=None, right=Coding(period=(1,)),
                             n0=0, boundary_digit=None)
    if x == 1:
        return CutPointQuery(member=True, left=Coding(period=(r,)), right=None,
                             n0=0, boundary_digit=None)
    if not (0 < x < 1):
        raise errors.OutOfDomain(f"x = {x} not in [0, 1]")
    X, W, p = _partition(system)
    u, v = x.numerator, x.denominator
    digits: list[int] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(max_depth):
        g = math.gcd(u, v)
        u, v = u // g, v // g
        if v & (v - 1) or (u, v) in seen:
            return CutPointQuery(member=False)
        seen.add((u, v))
        step, u, v = _orbit(X, W, p, u, v, 1)
        digits += step
        if u == 0:
            # digits is the right coding's stem with an incremented last digit
            stem = tuple(digits[:-1]) + (digits[-1] - 1,)
            return _cut_codings_from_stem(stem, r)
    return CutPointQuery(member=False, decided=False)


@dataclass(frozen=True)
class RunStructure:
    """Blueprint for codings with prescribed terminal-run density.

    Blocks end at positions block_ends[j]; the last run_lengths[j] positions
    of block j hold digit r, guarded by the pivot digit k_star at positions
    block_ends[j] - run_lengths[j] and block_ends[j] + 1; all other positions
    draw iid from p.  lam is the run-density target, tau = lam/(1-lam) the
    run-to-free ratio along block ends.
    """
    lam: float
    k_star: int
    block_ends: tuple[int, ...]
    run_lengths: tuple[int, ...]
    p: tuple[float, ...]

    @property
    def tau(self) -> float:
        return self.lam / (1.0 - self.lam)

    def validate(self) -> None:
        if not 0.0 < self.lam < 1.0:
            raise errors.InvalidSchedule("lam must be in (0, 1)")
        if len(self.block_ends) != len(self.run_lengths) or not self.block_ends:
            raise errors.InvalidSchedule("schedule arrays must match and be nonempty")
        r = len(self.p)
        if not (1 <= self.k_star < r):
            raise errors.InvalidSchedule("k_star must be a digit below r")
        # written so that a NaN weight fails
        if not (abs(sum(self.p) - 1.0) <= 1e-9 and min(self.p) >= 0):
            raise errors.InvalidSchedule("p must be a probability vector")
        prev = -1   # virtual block end before the first block
        for j, (nj, lj) in enumerate(zip(self.block_ends, self.run_lengths), start=1):
            if lj < 1:
                raise errors.InvalidSchedule(f"run length l_{j} must be >= 1")
            if not prev + 1 < nj - lj:
                raise errors.InvalidSchedule(
                    f"block {j}: need n_(j-1) + 1 < n_j - l_j "
                    f"({prev}+1 !< {nj}-{lj})")
            if not abs(lj / nj - self.lam) < 1.0 / j:
                raise errors.InvalidSchedule(
                    f"block {j}: |l_j/n_j - lam| = {abs(lj / nj - self.lam)} "
                    f">= 1/{j}")
            if j >= 2 and not prev / nj <= 1.0 / j:
                raise errors.InvalidSchedule(
                    f"block {j}: n_(j-1)/n_j = {prev / nj} > 1/{j}")
            prev = nj


def default_schedule(lam: float, length: int, max_ratio: float = 1.0):
    """Block ends and run lengths whose last block ends at `length`.

    Going down from n_J = length, each earlier end is the integer square
    root of the next, at most max_ratio times it, and lowered if need be to
    leave the next block a free segment, for as long as it is at least
    max(16, ceil(3 / (1 - lam))).  So n_j >= n_(j-1)^2 >= 16^(2^(j-1)), and
    n_(j-1) / n_j <= n_j^(-1/2) stays below the 1/j that
    `RunStructure.validate` allows.  `run_structure_for_target` sets
    max_ratio so that the earlier runs move gamma2 at the last block end
    by at most _EARLIER_RUNS_BIAS; 0 leaves the last block alone (d_r = 0,
    where an earlier run's shift is infinite).
    """
    if not 0.0 < lam < 1.0:
        raise errors.InvalidSchedule("lam must be in (0, 1)")
    if not 0.0 <= max_ratio <= 1.0:
        raise errors.InvalidSchedule("max_ratio must be in [0, 1]")
    n1 = max(16, math.ceil(3.0 / (1.0 - lam)))
    if n1 > length:
        raise errors.InvalidSchedule(
            f"length {length} cannot hold a run block (need >= {n1})")
    ends = [length]
    while True:
        nj = ends[-1]
        prev = min(math.isqrt(nj), math.floor(max_ratio * nj),
                   nj - max(1, round(lam * nj)) - 2)
        if prev < n1:
            break
        ends.append(prev)
    ends.reverse()
    return tuple(ends), tuple(max(1, round(lam * nj)) for nj in ends)


def run_structure_for_target(system: SelfAffineSystem, constants, alpha: float,
                             *, length: int = 100_000, p=None,
                             block_ends=None, run_lengths=None) -> RunStructure:
    """Run structure whose generated codings have corrected-ratio limit alpha.

    Only meaningful in CaseB with alpha in (1, alpha0).  The density solves
    sum p_k (log|d_k| - alpha log a_k) = tau (alpha - 1) log a_r with p
    defaulting to the CaseB maximiser p_star.  An explicit schedule overrides
    the default one, whose last block ends at `length`.
    """
    from .ifs import Regime
    if constants.regime is not Regime.CASE_B:
        raise errors.OutOfRange("run-structured codings need a CaseB system")
    if not 1.0 < alpha < constants.alpha0:
        raise errors.OutOfRange(
            f"alpha must lie in (1, alpha0) = (1, {constants.alpha0})")
    r = system.r
    if p is None:
        p = constants.p_star
    p = tuple(float(v) for v in p)
    if len(p) != r:
        raise errors.InvalidSchedule(
            f"p needs {r} entries, one per branch, not {len(p)}")
    if any(p[k - 1] > 0.0 for k in constants.index_zero):
        raise errors.InvalidSchedule("p puts mass on a branch with d = 0")
    loga, logd = constants._logs
    num = math.fsum(p[k - 1] * (logd[k - 1] - alpha * loga[k - 1])
                    for k in range(1, r + 1) if p[k - 1] > 0.0)
    tau = num / ((alpha - 1.0) * loga[-1])
    if tau <= 0.0:
        raise errors.OutOfRange("constraint gives nonpositive run density")
    lam = tau / (1.0 + tau)
    pivots = sorted(constants.lambda_set & constants.index_plus)
    if not pivots:
        raise errors.OutOfRange("no overlap digit with nonzero contraction")
    k_star = pivots[0]
    if block_ends is None:
        # Each digit of an earlier run of r stands where a free digit would,
        # and no terminal-run correction reaches it at a later block end n:
        # per digit it moves num - alpha den there by the difference of
        # their two expectations, so gamma2 at n by about
        # (n_(j-1) / n) * spread.
        mean_loga = math.fsum(pk * la for pk, la in zip(p, loga))
        spread = lam * abs(logd[-1] - alpha * loga[-1] - num) / abs(
            lam * loga[-1] + (1.0 - lam) * mean_loga)
        max_ratio = min(1.0, _EARLIER_RUNS_BIAS / spread) if spread else 1.0
        block_ends, run_lengths = default_schedule(lam, length, max_ratio)
    else:
        block_ends = tuple(block_ends)
        if run_lengths is None:
            run_lengths = tuple(max(1, round(lam * nj)) for nj in block_ends)
        else:
            run_lengths = tuple(run_lengths)
    rs = RunStructure(lam=lam, k_star=k_star, block_ends=block_ends,
                      run_lengths=run_lengths, p=p)
    rs.validate()
    return rs


def generate_run_structured(rs: RunStructure, length: int, seed: int) -> Coding:
    """Sample a digit prefix of the given length from the run structure.

    Positions in runs carry digit r, guard positions carry k_star, and the
    rest draw iid from p with the seeded generator.  Past the last scheduled
    block all positions are free draws.  The uniforms are drawn in blocks of
    _DRAW_BLOCK (the generator gives the same stream whatever the block
    size) and each block is edited and appended to the prefix in turn, so
    the working memory beside the prefix itself stays bounded and the cost
    is linear in the length.
    """
    rs.validate()
    r = len(rs.p)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(rs.p)
    cum[-1] = 1.0
    # guard, run, trailing guard of each block, as 0-based [lo, hi) spans
    # written in this order
    spans = []
    for nj, lj in zip(rs.block_ends, rs.run_lengths):
        if nj - lj > length:
            break
        spans += [(nj - lj - 1, nj - lj, rs.k_star), (nj - lj, nj, r),
                  (nj, nj + 1, rs.k_star)]

    tops = []           # largest digit of each block

    def blocks():
        for start in range(0, length, _DRAW_BLOCK):
            stop = min(start + _DRAW_BLOCK, length)
            block = np.searchsorted(cum, rng.random(stop - start),
                                    side="right") + 1
            for lo, hi, k in spans:
                if lo < stop and hi > start:
                    block[max(lo, start) - start:min(hi, stop) - start] = k
            tops.append(int(block.max()))
            yield block.tolist()

    # the digits are ints in 1..r by construction: nothing to check
    prefix = tuple(itertools.chain.from_iterable(blocks()))
    return Coding._of_digits(prefix, prefix_max=max(tops, default=None))
