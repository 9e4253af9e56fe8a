import enum
import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affine_spectra import (
    BasicInterval,
    Coding,
    CutPointQuery,
    Regime,
    RunStructure,
    basic_interval,
    build_from_polygon,
    coding_of_point,
    compute_constants,
    cut_point_exponents,
    default_schedule,
    errors,
    exponent_trace,
    format_coding,
    generate_run_structured,
    in_T,
    parse_coding,
    project,
    run_structure_for_target,
)
from affine_spectra import coding as coding_module
from conftest import random_polygon_system, random_two_branch_contractive
from test_exponent import run_stats

SKEW = "skew-takagi:0.3,0.5,0.25"


# -------------------------------------------------------------------- notation

def test_parse_format_examples():
    assert format_coding(Coding(prefix=(1, 2), period=(2, 1))) == "1,2,(2,1)"
    assert format_coding(Coding(prefix=(1, 2))) == "1,2"
    assert format_coding(Coding(period=(1,))) == "(1)"
    assert parse_coding("1,2,(2,1)") == Coding(prefix=(1, 2), period=(2, 1))
    assert parse_coding("(1)") == Coding(period=(1,))
    assert parse_coding("1,2") == Coding(prefix=(1, 2))


@pytest.mark.parametrize("text", ["", "0,1", "1,()", "a,b", "(1,2),3", "1,,2"])
def test_parse_rejects(text):
    with pytest.raises(errors.InvalidCoding):
        parse_coding(text)


@given(st.lists(st.integers(1, 4), max_size=8),
       st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=1,
                                     max_size=4)))
def test_parse_format_round_trip(prefix, period):
    assume(prefix or period)  # the empty coding has no text form
    c = Coding(prefix=tuple(prefix), period=tuple(period) if period else None)
    assert parse_coding(format_coding(c)) == c


def test_coding_indexing():
    c = Coding(prefix=(1, 2), period=(3, 1))
    assert [c.digit(i) for i in range(1, 7)] == [1, 2, 3, 1, 3, 1]
    assert c.digits(6) == (1, 2, 3, 1, 3, 1)
    assert c.available() is None
    assert c.eventually_periodic
    assert c.max_digit() == 3
    assert c.constant_tail() is None
    assert Coding(prefix=(2, 1), period=(1,)).constant_tail() == 1
    bare = Coding(prefix=(1, 2, 1))
    assert bare.available() == 3
    assert not bare.eventually_periodic
    with pytest.raises(errors.InvalidCoding):
        bare.digit(4)


def _checked_by_loop(prefix, period):
    """Largest digit, or the InvalidCoding message, from a check of one
    digit at a time (the oracle for Coding's own check)."""
    try:
        for part in (prefix, period or ()):
            for k in part:
                if not (isinstance(k, int) and k >= 1):
                    raise errors.InvalidCoding(f"digit {k!r} must be an integer >= 1")
            if part is prefix and period is not None and len(period) == 0:
                raise errors.InvalidCoding("period must be nonempty when given")
    except errors.InvalidCoding as exc:
        return str(exc)
    return max(max(prefix, default=1), max(period or (1,)))


class _Digit(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("prefix, period", [
    ((1, 2, True), None), ((True,), (True, 1)), ((), None), ((), (3,)),
    ((_Digit.TWO,), None), ((1, _Digit.TWO), (1,)),
    ((1, False), None), ((1, np.int64(1)), None), ((np.int64(2),), None),
    ((1, 1.0), None), ((0,), None), ((-3,), None), ((2, 0, 5), None),
    (("1",), None), ((1, 2), (1, -1)), ((0,), ()), ((1,), ()),
    ((1,) * 100_000, None), ((1,) * 99_999 + (np.int64(3),), None),
    ((1,) * 50_000 + (0,) + (2,) * 49_999, (1,)),
])
def test_coding_checks_digits_like_a_loop(prefix, period):
    want = _checked_by_loop(prefix, period)
    if isinstance(want, str):
        with pytest.raises(errors.InvalidCoding) as exc:
            Coding(prefix=prefix, period=period)
        assert str(exc.value) == want
    else:
        c = Coding(prefix=prefix, period=period)
        assert c.max_digit() == want
        assert c == Coding(prefix=tuple(prefix), period=period)
        assert repr(c) == f"Coding(prefix={prefix!r}, period={period!r})"


# ------------------------------------------------------------ point <-> coding

def test_coding_of_point_riesz_nagy(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    pc = coding_of_point(rn, 0.3, 8)
    assert pc.coding.prefix == (1, 2, 1, 1, 2, 2, 1, 1)
    assert not pc.cut_point and not pc.ambiguous
    last = pc.interval
    assert last.left <= 0.3 <= last.right
    assert last.length == pytest.approx(0.5 ** 8)


def test_coding_of_point_vertex(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    pc = coding_of_point(rn, 0.5, 6)
    assert pc.cut_point
    assert pc.coding.prefix[0] == 2
    assert pc.coding.period == (1,)
    assert set(pc.coding.prefix[1:]) == {1}
    # the digits padded after the cut narrow the interval too
    for name in ("riesz-nagy:0.3", "okamoto:0.6"):
        system, _ = make_system(name)
        x = system.xs[1]
        pc = coding_of_point(system, x, 6)
        assert pc.cut_point and pc.coding.prefix == (2, 1, 1, 1, 1, 1)
        assert pc.interval == basic_interval(system, pc.coding.prefix)
        assert pc.interval.left == x < pc.interval.right


def test_coding_of_point_near_vertex_is_exact(make_system):
    # 5e-15 right of the vertex 1/2 is not the vertex: no snapping
    rn, _ = make_system("riesz-nagy:0.3")
    pc = coding_of_point(rn, 0.5 + 5e-15, 6)
    assert pc.coding.prefix == (2, 1, 1, 1, 1, 1)
    assert not pc.cut_point and not pc.ambiguous


def test_coding_of_point_rejects_non_finite(make_system):
    ok, _ = make_system("okamoto:0.6")
    for x in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(errors.OutOfDomain):
            coding_of_point(ok, x, 8)


def test_coding_of_point_numpy_scalars(make_system):
    ok, _ = make_system("okamoto:0.6")
    for x in (np.float32(0.4), np.float64(0.4), np.float32(0.7)):
        assert (coding_of_point(ok, x, 64)
                == coding_of_point(ok, float(x), 64))


# every preset family, plus seeds for random systems
PRESET_NAMES = ["takagi:0.5", "takagi:2", "riesz-nagy:0.3", "okamoto:0.6",
                "okamoto:5/6", "okamoto:1/2", SKEW]


def _any_system(make_system, rng, pick):
    if pick < len(PRESET_NAMES):
        return make_system(PRESET_NAMES[pick])[0]
    return random_polygon_system(rng, allow_zero=True)


def _coding_of_point_reference(system, x, depth):
    """The exact Fraction orbit coding_of_point used to run for Fraction
    inputs: (digits, cut_point)."""
    r = system.r
    cuts = [Fraction(v) for v in system.xs]
    widths = [cuts[k + 1] - cuts[k] for k in range(r)]
    digits: list[int] = []
    t = Fraction(x)
    cut = False
    while len(digits) < depth:
        k = 1
        while k < r and t >= cuts[k]:
            k += 1
        digits.append(k)
        t = (t - cuts[k - 1]) / widths[k - 1]
        if t == 0:
            cut = True
            digits.extend([1] * (depth - len(digits)))
    return tuple(digits), cut


def _in_T_reference(system, x, max_depth):
    """The Fraction orbit in_T used to run on numbers in (0, 1)."""
    r = system.r
    cuts = [Fraction(v) for v in system.xs]
    widths = [cuts[k + 1] - cuts[k] for k in range(r)]
    t = Fraction(x)
    digits: list[int] = []
    seen: set[Fraction] = set()
    for _ in range(max_depth):
        den = t.denominator
        if den & (den - 1) or t in seen:
            return CutPointQuery(member=False)
        seen.add(t)
        k = 1
        while k < r and t >= cuts[k]:
            k += 1
        digits.append(k)
        t = (t - cuts[k - 1]) / widths[k - 1]
        if t == 0:
            stem = tuple(digits[:-1]) + (digits[-1] - 1,)
            return CutPointQuery(
                member=True, left=Coding(prefix=stem, period=(r,)),
                right=Coding(prefix=stem[:-1] + (stem[-1] + 1,), period=(1,)),
                n0=len(stem), boundary_digit=stem[-1])
    return CutPointQuery(member=False, decided=False)


def _vertex_image(system, rng):
    r = system.r
    size = int(rng.integers(0, 4))
    stem = tuple(int(v) for v in rng.integers(1, r + 1, size))
    stem += (int(rng.integers(1, r)),)
    return project(system, Coding(prefix=stem, period=(r,)), exact=True)


@given(seed=st.integers(0, 10 ** 9), pick=st.integers(0, len(PRESET_NAMES)))
def test_coding_of_point_digits_are_exact(make_system, seed, pick):
    rng = np.random.default_rng(seed)
    system = _any_system(make_system, rng, pick)
    x = float(rng.uniform(0.0, 1.0))
    q = int(rng.integers(2, 10 ** 6))
    for target in (x, Fraction(x), Fraction(int(rng.integers(1, q)), q),
                   _vertex_image(system, rng)):
        if not 0 < target < 1:
            continue
        pc = coding_of_point(system, target, 64)
        assert (pc.coding.prefix, pc.cut_point) \
            == _coding_of_point_reference(system, target, 64)
        assert not pc.ambiguous


@given(seed=st.integers(0, 10 ** 9), pick=st.integers(0, len(PRESET_NAMES)))
def test_in_T_matches_fraction_orbit(make_system, seed, pick):
    rng = np.random.default_rng(seed)
    system = _any_system(make_system, rng, pick)
    image = _vertex_image(system, rng)
    q = 3 ** int(rng.integers(1, 12)) * int(rng.integers(1, 100))
    for target in (image, float(image), float(rng.uniform(0.0, 1.0)),
                   Fraction(int(rng.integers(1, q)), q)):
        if not 0 < target < 1:
            continue
        for max_depth in (4096, 1, 2):
            assert (in_T(system, target, max_depth=max_depth)
                    == _in_T_reference(system, target, max_depth))


def test_project_inverts(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    for x in (0.1, 0.3, 0.77, 0.999):
        pc = coding_of_point(rn, x, 40)
        assert project(rn, pc.coding) == pytest.approx(x, abs=2 ** -40)


def test_project_exact(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    assert project(rn, Coding(period=(1, 2)), exact=True) == Fraction(1, 3)
    assert project(rn, Coding(prefix=(1, 2)), exact=True) == Fraction(1, 4)
    assert project(rn, Coding(prefix=(2,), period=(1,)),
                   exact=True) == Fraction(1, 2)


def _project_reference(system, coding):
    """project(..., exact=True) in Fraction arithmetic: the period's
    composition t -> A + Q t and its fixed point, then the prefix maps
    b_k + a_k t applied from the last digit back, with b_k = x_{k-1} and
    a_k = x_k - x_{k-1} from the stored abscissae."""
    xs = [Fraction(v) for v in system.xs]
    b = xs[:-1]
    a = [hi - lo for lo, hi in zip(xs, xs[1:])]
    t = Fraction(0)
    if coding.period is not None:
        A, Q = Fraction(0), Fraction(1)
        for k in coding.period:
            A, Q = A + Q * b[k - 1], Q * a[k - 1]
        t = A / (1 - Q)
    for k in reversed(coding.prefix):
        t = a[k - 1] * t + b[k - 1]
    return t


@given(seed=st.integers(0, 10 ** 9))
def test_project_exact_is_the_fraction_composition(seed):
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    r = system.r
    prefix = tuple(int(v) for v in rng.integers(1, r + 1, rng.integers(0, 40)))
    period = tuple(int(v) for v in rng.integers(1, r + 1, rng.integers(1, 12)))
    for coding in (Coding(prefix=prefix, period=period),
                   Coding(prefix=prefix + (1,))):
        got = project(system, coding, exact=True)
        assert type(got) is Fraction
        assert got == _project_reference(system, coding)


@settings(max_examples=30)
@given(seed=st.integers(0, 10 ** 9))
def test_long_codings_compose_by_halves(seed):
    """Prefixes and periods longer than coding._COMPOSE_RUN are composed
    by halves; the result is still the Fraction composition, and _compose
    gives the one-by-one integers at every length."""
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    r, run = system.r, coding_module._COMPOSE_RUN
    prefix = tuple(int(v) for v in rng.integers(1, r + 1, rng.integers(0, 5 * run)))
    period = tuple(int(v) for v in rng.integers(1, r + 1, rng.integers(run, 3 * run)))
    coding = Coding(prefix=prefix, period=period)
    assert project(system, coding, exact=True) == _project_reference(system, coding)
    X, W, p = coding_module._partition(system)
    left, width = 0, 1
    for k in prefix:
        left, width = (left << p) + width * X[k - 1], width * W[k - 1]
    assert coding_module._compose(X, W, p, prefix) == (left, width)


@given(seed=st.integers(0, 10 ** 9), pick=st.integers(0, len(PRESET_NAMES)))
def test_project_rounds_the_exact_point_once(make_system, seed, pick):
    """The float projection is the exact point over the stored abscissae
    rounded once, bit for bit, for prefixes on both sides of _COMPOSE_RUN,
    with and without a period."""
    rng = np.random.default_rng(seed)
    system = _any_system(make_system, rng, pick)
    r = system.r
    prefix = tuple(int(v) for v in rng.integers(1, r + 1, rng.integers(0, 131)))
    period = tuple(int(v) for v in rng.integers(1, r + 1, rng.integers(1, 12)))
    for coding in (Coding(prefix=prefix), Coding(prefix=prefix, period=period)):
        got = project(system, coding)
        assert type(got) is float
        assert got == float(project(system, coding, exact=True))


@pytest.mark.parametrize("name", PRESET_NAMES + [0, 1, 2, 3])
def test_vertex_codings_project_onto_the_abscissae(make_system, name):
    """Both codings of an interior vertex, k,(r) and k+1,(1), address the
    stored x_k exactly, in both return types (presets, and random systems
    by seed)."""
    if isinstance(name, str):
        system = make_system(name)[0]
    else:
        system = random_polygon_system(np.random.default_rng(name))
    r = system.r
    for k in range(1, r):
        for coding in (Coding(prefix=(k,), period=(r,)),
                       Coding(prefix=(k + 1,), period=(1,))):
            assert project(system, coding) == system.xs[k]
            assert project(system, coding, exact=True) == Fraction(system.xs[k])


def test_basic_interval(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    bi = basic_interval(rn, (1, 2))
    assert (bi.left, bi.right) == (0.25, 0.5)
    deeper = basic_interval(rn, (1, 2, 1, 1))
    assert bi.left <= deeper.left and deeper.right <= bi.right
    assert deeper.length == pytest.approx(0.5 ** 4)
    assert basic_interval(rn, ()) == BasicInterval((), 0.0, 1.0, 1.0)


@given(seed=st.integers(0, 10 ** 9))
def test_point_interval_is_basic_interval(seed):
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    x = float(rng.uniform(0.0, 1.0))
    pc = coding_of_point(system, x, int(rng.integers(1, 65)))
    bi = pc.interval
    assert bi == basic_interval(system, pc.coding.prefix)
    # the ends are the exact composition over the abscissae, rounded
    # outward to the nearest doubles
    cuts = [Fraction(v) for v in system.xs]
    left, width = Fraction(0), Fraction(1)
    for k in pc.coding.prefix:
        left += width * cuts[k - 1]
        width *= cuts[k] - cuts[k - 1]
    assert bi.left <= left < Fraction(math.nextafter(bi.left, math.inf))
    assert (Fraction(math.nextafter(bi.right, -math.inf))
            < left + width <= bi.right)
    assert bi.length == float(width)


@given(seed=st.integers(0, 10 ** 9))
def test_point_coding_consistency(make_system, seed):
    rng = np.random.default_rng(seed)
    name = ["riesz-nagy:0.3", "okamoto:0.6", SKEW][seed % 3]
    system, _ = make_system(name)
    x = float(rng.uniform(0.0, 1.0))
    pc = coding_of_point(system, x, 64)
    last = pc.interval
    assert last.left <= x <= last.right
    assert abs(project(system, pc.coding) - last.left) < 1e-12


# ---------------------------------------------------------- two-coding targets

def test_in_T_vertex(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    q = in_T(rn, 0.5)
    assert q.member and q.decided
    assert q.n0 == 1 and q.boundary_digit == 1
    assert q.left == Coding(prefix=(1,), period=(2,))
    assert q.right == Coding(prefix=(2,), period=(1,))


def test_in_T_deeper_vertex(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    q = in_T(rn, 0.25)  # image of 1/2 under the first branch
    assert q.member
    assert q.n0 == 2
    assert q.left == Coding(prefix=(1, 1), period=(2,))
    assert q.right == Coding(prefix=(1, 2), period=(1,))


def test_in_T_rejects_periodic_orbit(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    for target in (Fraction(1, 3), Fraction(1, 7), Coding(period=(1, 2))):
        q = in_T(rn, target)
        assert not q.member and q.decided


def test_in_T_float_non_member_decides_at_once(make_system):
    # widths 0.4, 0.2, 0.4 are not powers of two: the exact orbit of 0.7
    # leaves the dyadic rationals, which contain T, at once
    ok, constants = make_system("okamoto:0.6")
    start = time.perf_counter()
    q = in_T(ok, 0.7)
    assert time.perf_counter() - start <= 0.05
    assert not q.member and q.decided
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a two-coding point$"):
        cut_point_exponents(ok, constants, 0.7)
    assert time.perf_counter() - start <= 0.05


def test_in_T_non_finite_raises(make_system):
    ok, constants = make_system("okamoto:0.6")
    for x in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(errors.OutOfDomain):
            in_T(ok, x)
        with pytest.raises(errors.OutOfDomain):
            cut_point_exponents(ok, constants, x)


@given(seed=st.integers(0, 10 ** 9))
def test_in_T_members_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng)
    r = system.r
    stem = tuple(int(v) for v in rng.integers(1, r + 1, int(rng.integers(0, 5))))
    stem += (int(rng.integers(1, r)),)
    x = project(system, Coding(prefix=stem, period=(r,)), exact=True)
    q = in_T(system, x)
    assert q.member and q.decided
    assert q.left == Coding(prefix=stem, period=(r,))
    assert q.right == Coding(prefix=stem[:-1] + (stem[-1] + 1,), period=(1,))
    assert q.n0 == len(stem) and q.boundary_digit == stem[-1]
    assert project(system, q.right, exact=True) == x
    # a float that is not an exact vertex image is decided too
    assert in_T(system, float(rng.uniform(0.0, 1.0))).decided


def test_in_T_exact_projection_over_abscissae(make_system):
    # the stored a_2 = 0.7 differs from x_2 - x_1 = 1 - 0.3 in the last bit
    skew, constants = make_system(SKEW)
    coding = Coding(prefix=(1, 2, 1), period=(2,))
    q = in_T(skew, project(skew, coding, exact=True))
    assert q.member and q.decided and q.left == coding
    cut = cut_point_exponents(skew, constants, project(skew, coding, exact=True))
    assert (cut.n0, cut.boundary_digit) == (3, 1)


def test_in_T_coding_form(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    q = in_T(rn, Coding(prefix=(2,), period=(1,)))
    assert q.member and q.n0 == 1 and q.boundary_digit == 1
    bare = in_T(rn, Coding(prefix=(1, 2, 1)))
    assert not bare.member and not bare.decided


def test_in_T_endpoints(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    assert in_T(rn, 0.0).member and in_T(rn, 0.0).n0 == 0
    assert in_T(rn, 1.0).member and in_T(rn, 1.0).n0 == 0


# ------------------------------------------------------------------- run stats

def test_run_stats_right(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    st_ = run_stats(rn, c, Coding(prefix=(1, 2, 2, 1, 2, 2, 2)), 7,
                    side="right")
    assert st_.s == {1: 2, 2: 5}
    assert st_.L_plus == 3 and st_.L_minus == 0
    assert st_.chi == 1   # digit before the terminal run is 1, and 2 in I+
    assert st_.zeta == 0  # overlap set is empty


def test_run_stats_left(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    st_ = run_stats(rn, c, Coding(prefix=(1, 1, 2, 1, 1)), 5, side="left")
    assert st_.L_minus == 2 and st_.L_plus == 0
    assert st_.chi == 1
    assert st_.zeta == 0


def test_run_stats_full_run_is_unflagged(make_system):
    rn, c = make_system("riesz-nagy:0.3")
    st_ = run_stats(rn, c, Coding(period=(2,)), 5, side="right")
    assert st_.L_plus == 5
    assert st_.chi == 0 and st_.zeta == 0


def test_run_stats_zeta_fires_on_overlap(make_system):
    skew, c = make_system(SKEW)
    st_ = run_stats(skew, c, Coding(prefix=(2, 1, 2, 2)), 4, side="right")
    assert st_.L_plus == 2
    assert st_.zeta == 1  # pre-run digit 1 lies in the overlap set


# -------------------------------------------------------------- run structures

def test_run_structure_frozen_lambda(make_system):
    skew, c = make_system(SKEW)
    rs = run_structure_for_target(skew, c, 1.2, block_ends=(100, 100000))
    assert rs.lam == pytest.approx(0.710216003160676, abs=1e-9)
    assert rs.k_star == 1
    assert rs.run_lengths == (71, 71022)
    assert math.fsum(rs.p) == pytest.approx(1.0, abs=1e-12)
    rs.validate()


def test_run_structure_default_schedule(make_system):
    skew, c = make_system(SKEW)
    rs = run_structure_for_target(skew, c, 1.25, length=50000)
    rs.validate()
    ends = rs.block_ends
    assert all(e2 > e1 for e1, e2 in zip(ends, ends[1:]))
    assert ends[-1] <= 50000
    for end, run in zip(ends, rs.run_lengths):
        assert run == max(1, round(rs.lam * end))


def test_default_schedule_shapes():
    ends, runs = default_schedule(0.7, 100000)
    assert len(ends) == len(runs)
    assert all(r <= e for e, r in zip(ends, runs))


@given(lam=st.floats(0.001, 0.999), length=st.integers(1, 10 ** 9))
def test_default_schedule_ends_at_length(lam, length):
    n1 = max(16, math.ceil(3.0 / (1.0 - lam)))
    if length < n1:
        with pytest.raises(errors.InvalidSchedule):
            default_schedule(lam, length)
        return
    ends, runs = default_schedule(lam, length)
    assert ends[-1] == length and ends[0] >= n1
    RunStructure(lam=lam, k_star=1, block_ends=ends, run_lengths=runs,
                 p=(0.5, 0.5)).validate()


@pytest.mark.parametrize("p", [(math.nan, 1.0), (1.0, math.nan),
                               (math.inf, -math.inf)])
def test_run_structure_rejects_non_finite_weights(p):
    """A NaN weight fails the probability-vector check, as a negative one
    does; it would otherwise draw digits from an unsorted cumsum."""
    rs = RunStructure(lam=0.5, k_star=1, block_ends=(100,), run_lengths=(50,),
                      p=p)
    with pytest.raises(errors.InvalidSchedule, match="probability vector"):
        rs.validate()


def _case_b_two_branch(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        system = random_two_branch_contractive(rng)
        constants = compute_constants(system)
        if constants.regime is Regime.CASE_B:
            return system, constants
    return None


@given(pick=st.sampled_from([SKEW, "skew-takagi:0.4,1,0.3", "random"]),
       u=st.floats(0.02, 0.98), seed=st.integers(0, 10 ** 9))
def test_default_schedule_lands_on_target(make_system, pick, u, seed):
    # gen-coding's diagnostic: gamma2 at the last block end, on the default
    # schedule and length, for targets across (1, alpha0)
    found = make_system(pick) if pick != "random" else _case_b_two_branch(seed)
    assume(found is not None)
    system, constants = found
    alpha = 1.0 + u * (constants.alpha0 - 1.0)
    assume(1.0 < alpha < constants.alpha0)
    length = 100_000
    rs = run_structure_for_target(system, constants, alpha, length=length)
    assert rs.block_ends[-1] == length
    coding = generate_run_structured(rs, length, seed)
    g2 = exponent_trace(system, constants, coding, length).g2[length - 1]
    assert abs(g2 - alpha) <= 0.02


@pytest.mark.parametrize("seed, u", [(100000, 0.5), (52354929, 0.125)])
def test_default_schedule_known_misses(seed, u):
    # inputs on which test_default_schedule_lands_on_target once failed,
    # 0.0214 and 0.0235 off: the uncorrected run of an earlier block at 316
    # moved gamma2 at 1e5 digits, and the default schedule now caps that
    system, constants = _case_b_two_branch(seed)
    alpha = 1.0 + u * (constants.alpha0 - 1.0)
    rs = run_structure_for_target(system, constants, alpha, length=100_000)
    assert len(rs.block_ends) == 1 or rs.block_ends[-2] < 316
    coding = generate_run_structured(rs, 100_000, seed)
    g2 = exponent_trace(system, constants, coding, 100_000).g2[-1]
    assert abs(g2 - alpha) <= 0.02


def test_default_schedule_max_ratio():
    assert default_schedule(0.5, 100_000) == ((17, 316, 100_000),
                                              (8, 158, 50_000))
    assert default_schedule(0.5, 100_000, 0.001) == ((100, 100_000),
                                                     (50, 50_000))
    assert default_schedule(0.5, 100_000, 1e-4) == ((100_000,), (50_000,))
    assert default_schedule(0.5, 100_000, 0.0) == ((100_000,), (50_000,))
    for bad in (-0.1, 1.5):
        with pytest.raises(errors.InvalidSchedule):
            default_schedule(0.5, 100_000, bad)


def test_run_structure_rejections(make_system):
    rn, crn = make_system("riesz-nagy:0.3")
    skew, c = make_system(SKEW)
    with pytest.raises(errors.OutOfRange):
        run_structure_for_target(rn, crn, 1.0)
    with pytest.raises(errors.OutOfRange):
        run_structure_for_target(skew, c, 1.39)  # above alpha0
    with pytest.raises(errors.OutOfRange):
        run_structure_for_target(skew, c, 0.9)
    with pytest.raises(errors.InvalidSchedule):
        run_structure_for_target(skew, c, 1.2, block_ends=(100, 50))
    # mass on a d = 0 branch: no run density solves the constraint
    flat = build_from_polygon([(0, 0), (0.3, 0.5), (0.6, 0.4), (1, 1)],
                              [0.2, 0.0, 0.3])
    cf = compute_constants(flat)
    with pytest.raises(errors.InvalidSchedule, match="d = 0"):
        run_structure_for_target(flat, cf, 1.1, p=(0.3, 0.3, 0.4))
    with pytest.raises(errors.InvalidSchedule):
        run_structure_for_target(skew, c, 1.2, block_ends=(100,),
                                 run_lengths=(200,))
    # one frequency per branch: a third would become a digit 3
    for p in ((0.5, 0.3, 0.2), (1.0,)):
        with pytest.raises(errors.InvalidSchedule, match="one per branch"):
            run_structure_for_target(skew, c, 1.2, p=p)


def test_generate_run_structured(make_system):
    skew, c = make_system(SKEW)
    rs = run_structure_for_target(skew, c, 1.2, block_ends=(100, 2000))
    cod = generate_run_structured(rs, 2000, seed=3)
    assert len(cod.prefix) == 2000
    r = len(skew.branches)
    for end, run in zip(rs.block_ends, rs.run_lengths):
        block = cod.prefix[end - run:end]
        assert set(block) == {r}
        assert cod.prefix[end - run - 1] == rs.k_star  # guard digit
    assert generate_run_structured(rs, 2000, seed=3).prefix == cod.prefix
    assert generate_run_structured(rs, 2000, seed=4).prefix != cod.prefix


def _generate_run_structured_reference(rs, length, seed):
    """The run-structured prefix from one full-length draw: the generator
    as it was before it drew in blocks, kept as the reference."""
    rs.validate()
    r = len(rs.p)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(rs.p)
    cum[-1] = 1.0
    draws = np.searchsorted(cum, rng.random(length), side="right") + 1
    digits = draws.astype(np.int64)
    for nj, lj in zip(rs.block_ends, rs.run_lengths):
        if nj - lj > length:
            break
        digits[nj - lj - 1] = rs.k_star
        hi = min(nj, length)
        digits[nj - lj: hi] = r
        if nj + 1 <= length:
            digits[nj] = rs.k_star
    return Coding(prefix=tuple(digits.tolist()))


@given(seed=st.integers(0, 10 ** 9),
       block=st.sampled_from([1, 3, 64, coding_module._DRAW_BLOCK]))
def test_blocked_draws_match_one_shot_reference(seed, block):
    # lengths around multiples of the block size, with schedules whose
    # blocks, runs and guards cross block edges and run past the length
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 5))
    p = tuple(rng.dirichlet(np.ones(r)).tolist())
    lam = float(rng.uniform(0.1, 0.9))
    length = max(1, block * int(rng.integers(1, 4)) + int(rng.integers(-2, 3)))
    if block == coding_module._DRAW_BLOCK:
        length = min(length, 2 * block + 2)
    ends = [int(rng.integers(16, 40))]
    while ends[-1] <= length + block:
        j = len(ends) + 1
        nj = j * ends[-1] + j + int(rng.integers(0, 3 * j))
        while nj - round(lam * nj) <= ends[-1] + 1:
            nj += j
        ends.append(nj)
    rs = RunStructure(lam=lam, k_star=int(rng.integers(1, r)),
                      block_ends=tuple(ends),
                      run_lengths=tuple(max(1, round(lam * n)) for n in ends),
                      p=p)
    with mock.patch.object(coding_module, "_DRAW_BLOCK", block):
        got = generate_run_structured(rs, length, seed)
    assert got == _generate_run_structured_reference(rs, length, seed)


def _assert_like_validated(coding):
    """A Coding the package built without checks equals, hashes, reprs and
    reports its largest digit like one that Coding(...) checked."""
    checked = Coding(prefix=coding.prefix, period=coding.period)
    assert coding == checked and checked == coding
    assert hash(coding) == hash(checked)
    assert repr(coding) == repr(checked)
    assert coding.max_digit() == checked.max_digit()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_run_structured_coding_is_a_validated_coding(r):
    ends, runs = default_schedule(0.3, 20_000)
    rs = RunStructure(lam=0.3, k_star=1, block_ends=ends, run_lengths=runs,
                      p=(1.0 / r,) * r)
    coding = generate_run_structured(rs, 20_000, seed=r)
    _assert_like_validated(coding)
    # the largest digit was recorded while drawing: max_digit scans nothing
    assert coding.__dict__["_prefix_max"] == r


@given(seed=st.integers(0, 10 ** 9))
def test_internal_codings_are_validated_codings(seed):
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng)
    r = system.r
    x = float(rng.uniform(0.001, 0.999))
    _assert_like_validated(
        coding_of_point(system, x, int(rng.integers(1, 130))).coding)
    # a vertex image over the stored abscissae: its cut coding, and in_T's
    # two codings from the number and from a coding
    stem = tuple(rng.integers(1, r + 1, int(rng.integers(0, 4))).tolist())
    vertex = int(rng.integers(1, r))
    xs = [Fraction(v) for v in system.xs]
    xc = xs[vertex]
    for k in reversed(stem):
        xc = xs[k - 1] + (xs[k] - xs[k - 1]) * xc
    pc = coding_of_point(system, xc, 8)
    assert pc.cut_point
    _assert_like_validated(pc.coding)
    for query in (in_T(system, xc), in_T(system, pc.coding)):
        assert query.member
        _assert_like_validated(query.left)
        _assert_like_validated(query.right)


def test_generate_run_structured_memory_is_bounded(make_system):
    # the 1e5-digit prefix alone is a 0.8 MB tuple; the draws stay in blocks
    skew, c = make_system(SKEW)
    rs = run_structure_for_target(skew, c, 1.2, block_ends=(100, 100_000))
    generate_run_structured(rs, 100_000, seed=4)
    tracemalloc.start()
    try:
        generate_run_structured(rs, 100_000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
