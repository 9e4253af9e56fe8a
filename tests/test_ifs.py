import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affine_spectra import (
    Coding,
    Regime,
    SelfAffineSystem,
    SpectrumConstants,
    antiderivative_system,
    build_from_polygon,
    compute_constants,
    errors,
    evaluate,
    from_branches,
    gammas,
    lambda_set,
    parse_preset,
    roots,
    system_from_dict,
    system_to_dict,
    two_branch_lambda_empty,
)
import reference
from conftest import random_polygon_system, random_two_branch_contractive

DATA = Path(__file__).resolve().parent / "data"
LN2 = math.log(2.0)
LN3 = math.log(3.0)


# ---------------------------------------------------------------- construction

def _rows(system):
    """The system's maps as raw (a, b, c, d, e) rows."""
    return [list(row) for row in zip(system.a, system.xs[:-1], system.c,
                                     system.d, system.e)]


def _with(rows, k, field, value):
    """rows with entry `field` ("abcde") of the 0-based row k replaced."""
    rows = [list(row) for row in rows]
    rows[k]["abcde".index(field)] = value
    return rows


def test_takagi_branches():
    s = parse_preset("takagi:0.5")
    assert s.a == (0.5, 0.5)
    assert s.xs[:-1] == (0.0, 0.5)
    assert s.c == (0.5, -0.5)
    d = 2.0 ** -0.5
    assert s.d == (d, d)
    assert s.e == (0.0, 0.5)
    assert s.vertices == ((0.0, 0.0), (0.5, 0.5), (1.0, 0.0))


def test_polygon_pins_are_respected():
    s = build_from_polygon([(0.0, 0.0), (0.25, 0.7), (1.0, 1.0)], (0.4, -0.3))
    (x0, y0), (x1, y1), (x2, y2) = s.vertices
    for k, (a, b, c, d, e) in enumerate(_rows(s), start=1):
        assert a == pytest.approx(s.vertices[k][0] - s.vertices[k - 1][0])
        assert b == pytest.approx(s.vertices[k - 1][0])
        assert d * (y2 - y0) + c == pytest.approx(
            s.vertices[k][1] - s.vertices[k - 1][1])
        assert d * y0 + e == pytest.approx(s.vertices[k - 1][1])


def _pinned(system):
    """(a, c, e) by the pin relations, each in the float expression that
    defines it: a_k = x_k - x_{k-1}, c_k = (y_k - y_{k-1}) - d_k (y_r - y_0)
    and e_k = y_{k-1} - d_k y_0."""
    xs, ys, d = system.xs, system.ys, system.d
    r = system.r
    return (tuple(xs[k] - xs[k - 1] for k in range(1, r + 1)),
            tuple((ys[k] - ys[k - 1]) - d[k - 1] * (ys[r] - ys[0])
                  for k in range(1, r + 1)),
            tuple(ys[k - 1] - d[k - 1] * ys[0] for k in range(1, r + 1)))


@given(st.integers(0, 10 ** 9))
def test_coefficients_are_the_pinned_formulas(seed):
    system = random_polygon_system(np.random.default_rng(seed), allow_zero=True)
    def bits(rows):
        return [[v.hex() for v in row] for row in rows]

    assert bits((system.a, system.c, system.e)) == bits(_pinned(system))


def test_from_branches_round_trip():
    s = parse_preset("okamoto:0.6")
    rebuilt = from_branches(_rows(s))
    for (x, y), (u, v) in zip(s.vertices, rebuilt.vertices):
        assert x == pytest.approx(u, abs=1e-12)
        assert y == pytest.approx(v, abs=1e-12)


def test_validation_errors():
    rn = _rows(parse_preset("riesz-nagy:0.3"))
    skew = _rows(parse_preset("skew-takagi:0.3,0.5,0.25"))

    with pytest.raises(errors.OffsetMismatch):
        from_branches(_with(rn, 0, "b", 0.1))

    with pytest.raises(errors.ShearMismatch):
        from_branches(_with(rn, 0, "c", 0.2))

    with pytest.raises(errors.ContractionOutOfRange):
        from_branches(_with(rn, 0, "d", 1.2))

    with pytest.raises(errors.DegenerateSystem):
        from_branches(rn[:1])

    with pytest.raises(errors.SumNotOne):
        from_branches([[row[0] * 0.99, *row[1:]] for row in rn])

    # swapped widths move x_1 off b_2
    swapped = _with(_with(skew, 0, "a", skew[1][0]), 1, "a", skew[0][0])
    with pytest.raises(errors.OffsetMismatch, match="branch 2"):
        from_branches(swapped)

    # a lift fixes an ordinate, so a tampered lift moves the shears (an
    # unsheared system such as rn takes any lifts)
    with pytest.raises(errors.ShearMismatch, match="branch 1"):
        from_branches(_with(skew, 1, "e", 0.9))


# The invalid (vertices, d) inputs beside the non-finite ones below, and the
# error each raises.
INVALID_POLYGONS = {
    "non-monotone": ([(0.0, 0.0), (0.6, 0.5), (0.4, 0.7), (1.0, 0.0)],
                     (0.3, 0.3, 0.3), errors.NonMonotonePartition),
    "one-contraction": ([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], (0.4, 0.0),
                        errors.DegenerateSystem),
    "nan-interior-ordinate": ([(0.0, 0.0), (0.5, 0.5), (0.7, math.nan),
                               (1.0, 1.0)], (0.3, 0.3, 0.3), ValueError),
    "unit-contraction": ([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)], (0.5, 1.0),
                         errors.ContractionOutOfRange),
    "one-piece": ([(0.0, 0.0), (1.0, 0.5)], (0.5,), ValueError),
    "overflowing-shear": ([(0.0, 0.0), (0.3, 1e308), (1.0, -1e308)],
                          (0.5, 0.25), ValueError),
}


@pytest.mark.parametrize("vertices, d, error", INVALID_POLYGONS.values(),
                         ids=INVALID_POLYGONS.keys())
def test_systems_check_themselves(vertices, d, error):
    """Building a SelfAffineSystem directly raises what build_from_polygon
    raises: the checks run when the system is built, whatever builds it."""
    with pytest.raises(error):
        build_from_polygon(vertices, d)
    with pytest.raises(error):
        SelfAffineSystem(tuple(map(tuple, vertices)), tuple(d))


@pytest.mark.parametrize("vertices, d", [
    ([(0.0, 0.0), (0.5, math.nan), (1.0, 0.0)], (0.5, 0.5)),
    ([(0.0, 0.0), (0.5, math.inf), (1.0, 0.0)], (0.5, 0.5)),
    ([(0.0, 0.0), (math.nan, 0.5), (1.0, 0.0)], (0.5, 0.5)),
    ([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)], (0.5, -math.inf))],
    ids=["nan-ordinate", "inf-ordinate", "nan-abscissa", "inf-contraction"])
def test_non_finite_polygons_are_rejected(vertices, d):
    with pytest.raises(ValueError, match="finite"):
        build_from_polygon(vertices, d)
    with pytest.raises(ValueError, match="finite"):
        SelfAffineSystem(tuple(map(tuple, vertices)), tuple(d))


@pytest.mark.parametrize("field, error", [
    ("b", errors.OffsetMismatch), ("c", errors.ShearMismatch),
    ("e", ValueError)])
def test_nan_coefficients_fail_validation(field, error):
    """A NaN row fails from_branches: each comparison fails on NaN, which
    compares false either way, and a NaN lift makes an ordinate NaN."""
    rows = _with(_rows(parse_preset("riesz-nagy:0.3")), 0, field, math.nan)
    with pytest.raises(error):
        from_branches(rows)


@pytest.mark.parametrize("rows, match", [
    ([(0.5, 0, 0, 0.3, math.nan), (0.5, 0.5, 0, 0.7, 0.3)],
     r"^branch 1: the row gives y_0 = d y_0 \+ e = nan"),
    ([(0.5, 0, 1e308, 0.3, 1e308), (0.5, 0.5, 1e308, 0.7, 1e308)],
     r"^branch 2: the row gives y_1 = d y_0 \+ e = inf"),
    ([(0.5, 0, 0, 0.3, 0.1), (0.5, 0.5, math.inf, 0.7, 0.3)],
     r"^branch 2: the row gives y_2 = \(c \+ e\) / \(1 - d\) = inf"),
    ([(math.nan, 0, 0, 0.3, 0.1), (0.5, 0.5, 0, 0.7, 0.3)],
     r"^branch 1: the row gives x_1 = x_0 \+ a = nan")],
    ids=["nan-lift", "overflowing-ordinate", "inf-shear", "nan-width"])
def test_from_branches_names_the_row_of_a_non_finite_coordinate(rows, match):
    """A row whose rebuilt vertex is not finite is named with the quantity
    it gives, not reported as a vertex the caller never gave."""
    with pytest.raises(ValueError, match=match):
        from_branches(rows)


def test_overflowing_sup_bound_is_rejected():
    """Finite coefficients whose a-priori bound overflows are rejected: no
    evaluation could certify an error bound."""
    with pytest.raises(ValueError, match="sup_bound"):
        parse_preset("skew-takagi:0.3,1e308,0.5")


def _branches_of_widths(widths, d=0.5):
    """Branch rows of a zigzag through ordinates 0, 0.5, 0, ... over the
    given widths, with b_k the running float sums."""
    ys = [0.5 * (k % 2) for k in range(len(widths) + 1)]
    x, rows = 0.0, []
    for k, a in enumerate(widths, start=1):
        rows.append((a, x, ys[k] - ys[k - 1] - d * (ys[-1] - ys[0]), d,
                     ys[k - 1]))
        x += a
    return rows


@pytest.mark.parametrize("widths", [(0.7, 0.2, 0.1), (0.1,) * 10])
def test_from_branches_pins_the_last_abscissa(widths):
    """Widths whose running float sum ends just below 1 but whose fsum is 1
    build a system; x_r is 1, and widths that do not sum to 1 raise
    SumNotOne."""
    rows = _branches_of_widths(widths)
    assert sum(widths) != 1.0 and math.fsum(widths) == 1.0
    system = from_branches(rows)
    assert system.xs[-1] == 1.0
    assert system.xs[:-1] == tuple(row[1] for row in rows)
    with pytest.raises(errors.SumNotOne):
        from_branches(_branches_of_widths(widths[:-1] + (widths[-1] - 0.1,)))


# ------------------------------------------------------------------- constants

def test_index_sets_okamoto_cantor(make_system):
    _, c = make_system("okamoto:0.5")
    assert sorted(c.index_plus) == [1, 3]
    assert sorted(c.index_zero) == [2]
    assert c.s_hat == pytest.approx(LN2 / LN3, abs=1e-11)
    # all rho on I_plus coincide, so the spectrum collapses to a point
    assert c.alpha_min == pytest.approx(c.alpha_max, abs=1e-11)
    assert c.s_min == pytest.approx(c.s_hat, abs=1e-11)


def test_constants_riesz_nagy(make_system):
    _, c = make_system("riesz-nagy:0.3")
    assert c.regime is Regime.CASE_A
    assert c.alpha_min == pytest.approx(0.514573172829758, abs=1e-11)
    assert c.alpha_max == pytest.approx(1.736965594166206, abs=1e-11)
    assert c.alpha_hat == pytest.approx(1.125769383497982, abs=1e-11)
    assert c.s_hat == pytest.approx(1.0, abs=1e-11)
    assert c.s_min == 0.0 and c.s_max == 0.0  # singleton tie sets
    assert c.k1 == pytest.approx(math.log(3.0 / 7.0), abs=1e-14)
    assert c.k2 == pytest.approx(math.log(5.0 / 7.0), abs=1e-14)
    assert c.lambda_set == frozenset()


def test_constants_skew(make_system):
    _, c = make_system("skew-takagi:0.3,0.5,0.25")
    assert c.regime is Regime.CASE_B
    assert c.lambda_set == frozenset({1})
    assert c.sigma == pytest.approx(1.429684720071287, abs=1e-11)
    assert c.alpha0 == pytest.approx(1.373176774171910, abs=1e-11)
    assert c.alpha_hat == pytest.approx(2.269398222250865, abs=1e-11)
    assert c.rho[1] == pytest.approx(1.151433284986890, abs=1e-12)
    assert c.rho[2] == pytest.approx(3.886716419749463, abs=1e-12)
    assert c.p_star[0] == pytest.approx(0.770541053591043, abs=1e-11)
    assert c.p_star[1] == pytest.approx(0.229458946408957, abs=1e-11)


def test_constants_okamoto_case_a(make_system):
    _, c = make_system("okamoto:0.6")
    assert c.regime is Regime.CASE_A
    assert c.sigma is None and c.alpha0 is None
    assert c.rho[1] == pytest.approx(0.464973520717927, abs=1e-12)
    assert c.rho[2] == pytest.approx(1.464973520717927, abs=1e-12)
    assert c.rho[3] == pytest.approx(c.rho[1], abs=1e-14)
    assert c.s_min == pytest.approx(LN2 / LN3, abs=1e-11)  # tie set {1, 3}
    assert c.s_max == 0.0
    assert c.alpha_hat == pytest.approx(0.798306854051260, abs=1e-11)


def test_takagi_k_constants(make_system):
    _, c = make_system("takagi:1.5")
    assert c.k1 == 0.0
    assert c.k2 == pytest.approx(0.5 * LN2, abs=1e-14)
    assert c.regime is Regime.CASE_B
    assert c.sigma == pytest.approx(2.0, abs=1e-11)
    assert c.alpha0 == pytest.approx(1.5, abs=1e-11)


def test_every_layer_reads_one_table_of_branch_logs():
    # width 0.806 is an input on which np.log and math.log round apart
    system = build_from_polygon([(0, 0), (0.194, 0.6), (1, 1)], [0.5, -0.3])
    c = compute_constants(system)
    loga, logd = c._logs
    assert loga == tuple(math.log(ak) for ak in system.a)
    assert logd == tuple(math.log(abs(dk)) for dk in system.d)
    cols, col_d, col_a = c._plus_columns
    assert col_d[:, 0].tolist() == [logd[k] for k in cols]
    assert col_a[:, 0].tolist() == [loga[k] for k in cols]
    assert c.rho == {k: logd[k - 1] / loga[k - 1] for k in (1, 2)}
    g = gammas(system, c, Coding(period=(2,)))
    assert g.method == "exact-periodic" and g.gamma == logd[1] / loga[1]


# ----------------------------------------------------------------- overlap set

def test_lambda_set_presets(make_system):
    for name, want in [("takagi:0.5", {1}), ("takagi:1", {1}),
                       ("takagi:1.5", {1}), ("takagi:2", set()),
                       ("riesz-nagy:0.3", set()), ("okamoto:0.6", set()),
                       ("skew-takagi:0.3,0.5,0.25", {1})]:
        system, _ = make_system(name)
        members, _ = lambda_set(system)
        assert members == frozenset(want), name


def test_lambda_borderline_flags_near_zero():
    # perturb off the proportional-shear surface by 1e-12: the membership
    # expression is ~6.6e-12, inside the 1e-10 band
    base = build_from_polygon([(0.0, 0.0), (0.3, 0.5), (1.0, 0.0)],
                              (0.21, 0.21))
    members, borderline = lambda_set(base)
    assert members == frozenset()
    near = build_from_polygon([(0.0, 0.0), (0.3, 0.5), (1.0, 0.0)],
                              (0.21 + 1e-12, 0.21))
    members, borderline = lambda_set(near)
    assert members == frozenset()
    assert 1 in borderline


def test_two_branch_criterion_requires_contractive():
    rn = parse_preset("riesz-nagy:0.3")  # |d_2| = 0.7 > a_2
    with pytest.raises(errors.ContractionOutOfRange):
        two_branch_lambda_empty(rn)


def test_two_branch_criterion_matches_lambda_set():
    rng = np.random.default_rng(7)
    for _ in range(300):
        s = random_two_branch_contractive(rng)
        members, borderline = lambda_set(s)
        if borderline:
            continue
        assert two_branch_lambda_empty(s) == (not members)


# -------------------------------------------------------------- antiderivative

def test_antiderivative_requires_unsheared():
    with pytest.raises(errors.ShearedSystem):
        antiderivative_system(parse_preset("takagi:0.5"))


def test_antiderivative_values(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    anti = antiderivative_system(rn)
    assert anti.vertices[-1][1] == pytest.approx(0.3, abs=1e-12)
    assert evaluate(anti, 0.5, 1e-14).value == pytest.approx(0.045, abs=1e-12)
    # integrand is nonnegative, so the antiderivative is nondecreasing
    xs = np.linspace(0.0, 1.0, 257)
    from affine_spectra import evaluate_many
    vals, _, _ = evaluate_many(anti, xs, 1e-12)
    assert np.all(np.diff(vals) >= -1e-11)


def test_antiderivative_matches_riemann_sum(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    anti = antiderivative_system(rn)
    from affine_spectra import evaluate_many
    n = 1 << 14
    xs = np.linspace(0.0, 1.0, n + 1)
    vals, _, _ = evaluate_many(rn, xs, 1e-10)
    trapz = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / (2 * n))])
    probe = np.linspace(0.0, 1.0, 33)
    anti_vals, _, _ = evaluate_many(anti, probe, 1e-12)
    idx = (probe * n).round().astype(int)
    assert np.max(np.abs(anti_vals - trapz[idx])) < 5e-3


# --------------------------------------------------------------- serialization

def test_constants_json_round_trip(make_system):
    for name in ("riesz-nagy:0.3", "skew-takagi:0.3,0.5,0.25", "okamoto:0.5"):
        _, c = make_system(name)
        blob = json.dumps(c.to_dict())
        again = SpectrumConstants.from_dict(json.loads(blob))
        assert again == c


def _assert_dict_round_trip(system):
    """system_to_dict writes the vertices and d alone, and
    system_from_dict(system_to_dict(s)), through JSON text, is s bit for
    bit: its fields, its hash and every derived coefficient."""
    blob = system_to_dict(system)
    assert set(blob) == {"vertices", "d"}
    again = system_from_dict(json.loads(json.dumps(blob)))
    assert again == system and hash(again) == hash(system)
    assert repr(_rows(again)) == repr(_rows(system))


def test_dict_round_trip_of_branch_built_systems():
    """A system built from rows or by the antiderivative is stored as its
    polygon, which its JSON form rebuilds: the ten widths of 0.1 hold
    b_4 = x_3 = 0.30000000000000004, and the antiderivative holds the
    shears its polygon derives."""
    with open(DATA / "ten-widths.json", encoding="utf-8") as fh:
        ten = system_from_dict(json.load(fh))
    assert ten.xs[3] == 0.30000000000000004
    _assert_dict_round_trip(ten)
    _assert_dict_round_trip(antiderivative_system(parse_preset("riesz-nagy:0.3")))


@given(st.integers(0, 10 ** 9))
def test_dict_round_trip_of_random_systems(seed):
    _assert_dict_round_trip(random_polygon_system(np.random.default_rng(seed),
                                                  allow_zero=True))


# ------------------------------------------------------------------ properties

@given(st.integers(0, 10 ** 9))
def test_random_systems_rebuild(seed):
    rng = np.random.default_rng(seed)
    s = random_polygon_system(rng)
    rebuilt = from_branches(_rows(s))
    for (x, y), (u, v) in zip(s.vertices, rebuilt.vertices):
        assert abs(x - u) < 1e-9 and abs(y - v) < 1e-9


@given(st.integers(0, 10 ** 9))
def test_constants_internal_order(seed):
    rng = np.random.default_rng(seed)
    s = random_polygon_system(rng, allow_zero=True)
    c = compute_constants(s)
    assert c.alpha_min <= c.alpha_hat + 1e-12
    assert c.alpha_hat <= c.alpha_max + 1e-12
    assert 0.0 < c.s_hat <= 1.0 + 1e-12
    assert c.s_min <= c.s_hat + 1e-9
    assert c.s_max <= c.s_hat + 1e-9
    if c.regime is Regime.CASE_B:
        assert c.sigma > 0.0
        assert 1.0 <= c.alpha0 + 1e-12
        assert c.alpha0 <= c.alpha_hat + 1e-9
        assert math.fsum(c.p_star) == pytest.approx(1.0, abs=1e-9)
    else:
        assert c.sigma is None


# ------------------------------------------------ unit sums against mpmath

CONSTANT_PRESETS = ("takagi:0.5", "takagi:1.5", "riesz-nagy:0.3",
                    "okamoto:0.6", "okamoto:5/6", "okamoto:0.5",
                    "skew-takagi:0.3,0.5,0.25", "skew-takagi:0.4,1,0.3")


def _check_unit_sums(system):
    """s_hat, s_min, s_max and sigma within 1e-15 relative of mpmath's
    roots, and p_star summing to 1 within two ulps."""
    c = compute_constants(system)
    plus = sorted(c.index_plus)
    rho = {k: reference.rho(system, k) for k in plus}

    def exponent(end=None):
        return reference.partition_exponent_mp(
            [system.a[k - 1] for k in plus
             if end is None or abs(rho[k] - end) <= 1e-12])

    want = {"s_hat": exponent(), "s_min": exponent(min(rho.values())),
            "s_max": exponent(max(rho.values()))}
    if c.regime is Regime.CASE_B:
        want["sigma"] = reference.sigma_mp(system.a, system.d)
        assert abs(math.fsum(c.p_star) - 1.0) <= 4.4e-16
    for name, value in want.items():
        assert abs(getattr(c, name) - value) <= 1e-15 * abs(value), name


@pytest.mark.parametrize("name", CONSTANT_PRESETS)
def test_unit_sums_match_mpmath_on_presets(name):
    _check_unit_sums(parse_preset(name))


# the first two examples have ratios |d_2| / a_2 of 0.992 and 0.9944, where
# the log of the rounded quotient put sigma 1.1e-15 and 2.4e-15 off; the
# third has 0.99937, where the log of the rounded unit sum put it 1.09e-15 off
@given(st.integers(0, 10 ** 9))
@example(525020128)
@example(146228303)
@example(17627)
def test_unit_sums_match_mpmath_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    _check_unit_sums(random_polygon_system(rng, allow_zero=True))
    _check_unit_sums(random_two_branch_contractive(rng))


def test_unit_sum_root_cap_raises(monkeypatch):
    monkeypatch.setattr(roots, "_CAP", 1)
    with pytest.raises(errors.NonConvergence):
        roots.unit_sum_root([math.log(0.5), math.log(0.25)])
    assert roots.unit_sum_root([math.log(0.5)]) == 0.0


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
def test_lambda_tol_must_be_non_negative(make_system, tol):
    """A negative or nan tolerance would classify an index arbitrarily:
    okamoto:0.6 read lambda_set [1, 2] at -1 and takagi:0.5 lost index 1
    to the borderline set at nan."""
    for name in ("okamoto:0.6", "takagi:0.5"):
        system, _ = make_system(name)
        with pytest.raises(ValueError, match="lambda tol"):
            lambda_set(system, tol)
        with pytest.raises(ValueError, match="lambda tol"):
            compute_constants(system, lambda_tol=tol)
    system, _ = make_system("okamoto:0.6")
    assert lambda_set(system, 0.0) == lambda_set(system)
