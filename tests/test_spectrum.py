import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_spectra import (
    Regime,
    alpha_of_q,
    beta,
    beta_star,
    build_from_polygon,
    compute_constants,
    contraction_ratio,
    duality_maximizer,
    entropy_ratio,
    errors,
    from_branches,
    parse_preset,
    q_star,
    roots,
    spectrum,
    spectrum_D,
    spectrum_table,
)
from conftest import random_polygon_system, random_two_branch_contractive

SKEW = "skew-takagi:0.3,0.5,0.25"
LN2, LN3 = math.log(2.0), math.log(3.0)


# ---------------------------------------------------------------- beta and q*

def test_beta_takagi_closed_form(make_system):
    for w in (0.5, 1.5):
        _, c = make_system(f"takagi:{w}")
        for q in (-2.0, -0.3, 0.0, 1.0, 2.5):
            assert beta(c, q) == pytest.approx(1.0 - w * q, abs=1e-9)


def test_beta_anchors(make_system):
    _, crn = make_system("riesz-nagy:0.3")
    assert beta(crn, 1.0) == pytest.approx(0.0, abs=1e-9)  # |d| sums to one
    _, cok = make_system("okamoto:0.6")
    assert beta(cok, 1.0) == pytest.approx(math.log(1.4) / LN3, abs=1e-9)
    for c in (crn, cok):
        assert beta(c, 0.0) == pytest.approx(c.s_hat, abs=1e-11)


def test_beta_at_sigma(make_system):
    _, c = make_system(SKEW)
    assert beta(c, c.sigma) == pytest.approx(-c.sigma, abs=1e-9)


@given(seed=st.integers(0, 10 ** 9))
def test_beta_decreasing_convex(seed):
    rng = np.random.default_rng(seed)
    c = compute_constants(random_polygon_system(rng, allow_zero=True))
    qs = np.linspace(-2.0, 3.0, 21)
    vals = np.array([beta(c, q) for q in qs])
    diffs = np.diff(vals)
    assert np.all(diffs < 1e-10)            # strictly decreasing
    assert np.all(np.diff(diffs) > -1e-8)   # convex


def test_alpha_of_q_inverts(make_system):
    _, c = make_system("riesz-nagy:0.3")
    for q in (-1.5, 0.0, 0.7, 2.0):
        alpha = alpha_of_q(c, q)
        assert c.alpha_min < alpha < c.alpha_max
        assert q_star(c, alpha) == pytest.approx(q, abs=1e-7)
    for alpha in (0.8, 1.0, 1.3):
        assert alpha_of_q(c, q_star(c, alpha)) == pytest.approx(alpha,
                                                                abs=1e-9)


def test_q_star_out_of_range(make_system):
    _, c = make_system("riesz-nagy:0.3")
    for alpha in (c.alpha_min, c.alpha_max, 0.1, 5.0):
        with pytest.raises(errors.OutOfRange):
            q_star(c, alpha)


def test_nan_alpha_raises(make_system):
    """A NaN alpha is rejected, on the closed form, the Newton path and a
    degenerate system, never read as an empty row."""
    for name in ("riesz-nagy:0.3", "okamoto:0.6", "okamoto:0.5"):
        _, c = make_system(name)
        for f in (beta_star, spectrum_D, duality_maximizer, q_star):
            with pytest.raises(errors.OutOfRange):
                f(c, math.nan)


def test_non_finite_q_raises(make_system):
    """beta and alpha_of_q reject a q that is NaN or infinite by name, not
    by a Newton solve that cannot start."""
    _, c = make_system("okamoto:0.6")
    for f in (beta, alpha_of_q):
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(errors.OutOfRange, match="not finite"):
                f(c, q)


# -------------------------------------------------------------------- beta*

def test_beta_star_frozen(make_system):
    _, c = make_system("riesz-nagy:0.3")
    assert beta_star(c, 0.8) == pytest.approx(0.784060340309653, abs=1e-9)
    assert beta_star(c, 1.0) == pytest.approx(0.969236197058513, abs=1e-9)
    assert beta_star(c, 1.3) == pytest.approx(0.940560945378535, abs=1e-9)


def test_beta_star_endpoints(make_system):
    _, crn = make_system("riesz-nagy:0.3")
    assert beta_star(crn, crn.alpha_min) == pytest.approx(0.0, abs=1e-12)
    assert beta_star(crn, crn.alpha_max) == pytest.approx(0.0, abs=1e-12)
    assert beta_star(crn, crn.alpha_hat) == pytest.approx(1.0, abs=1e-9)
    _, cok = make_system("okamoto:0.6")
    assert beta_star(cok, cok.alpha_min) == pytest.approx(LN2 / LN3,
                                                          abs=1e-9)
    assert beta_star(cok, cok.alpha_max) == pytest.approx(0.0, abs=1e-12)
    assert beta_star(cok, cok.alpha_min - 1e-6) == -math.inf
    assert beta_star(cok, cok.alpha_max + 1e-6) == -math.inf


def test_beta_star_degenerate(make_system):
    _, c = make_system("okamoto:0.5")
    assert beta_star(c, c.alpha_hat) == pytest.approx(c.s_hat, abs=1e-11)
    assert beta_star(c, c.alpha_hat + 1e-3) == -math.inf
    assert beta_star(c, c.alpha_hat - 1e-3) == -math.inf


# -------------------------------------------------------------------- duality

def test_duality_legendre(make_system):
    _, c = make_system("riesz-nagy:0.3")
    for alpha in (0.8, 1.0, 1.3):
        res = duality_maximizer(c, alpha)
        assert res.branch == "legendre"
        assert math.fsum(res.p) == pytest.approx(1.0, abs=1e-9)
        assert res.entropy == pytest.approx(beta_star(c, alpha), abs=1e-8)
        # Gibbs form |d_k|^q a_k^beta(q)
        b = beta(c, res.q)
        for pk, dk, ak in zip(res.p, (0.3, 0.7), (0.5, 0.5)):
            assert pk == pytest.approx(dk ** res.q * ak ** b, abs=1e-8)


def test_duality_endpoint_concentrates(make_system):
    _, c = make_system("riesz-nagy:0.3")
    res = duality_maximizer(c, c.alpha_min)
    assert res.branch == "endpoint"
    assert res.p == pytest.approx((0.0, 1.0), abs=1e-12)
    _, cok = make_system("okamoto:0.6")
    res = duality_maximizer(cok, cok.alpha_min)
    assert res.branch == "endpoint"
    assert res.p[1] == 0.0
    assert res.p[0] == pytest.approx(0.5, abs=1e-9)  # tie weight (1/3)^s
    assert res.entropy == pytest.approx(LN2 / LN3, abs=1e-9)


def test_endpoint_weights_use_the_ties_of_s_min():
    """rho_3 lies 1e-10 above rho_1 = alpha_min: branch 3 is not tied for
    s_min, so the endpoint row puts no mass on it either, and the weights
    sum to 1."""
    rho1 = math.log(0.6) / math.log(1.0 / 3.0)
    d3 = math.exp((rho1 + 1e-10) * math.log(1.0 / 3.0))
    c = compute_constants(build_from_polygon(
        [(0.0, 0.0), (1.0 / 3.0, 0.6), (2.0 / 3.0, 0.4), (1.0, 1.0)],
        [0.6, -0.2, d3]))
    assert c.s_min == 0.0
    assert duality_maximizer(c, c.alpha_min).p == (1.0, 0.0, 0.0)
    ends = [row for row in spectrum_table(c, points=11)
            if row.branch == "endpoint"]
    assert [row.p_opt for row in ends] == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]


def test_duality_linear_branch(make_system):
    _, c = make_system(SKEW)
    res = duality_maximizer(c, 1.2)
    assert res.branch == "linear"
    assert res.p == pytest.approx(c.p_star, abs=1e-11)
    assert res.contraction == pytest.approx(c.sigma, abs=1e-9)
    with pytest.raises(errors.OutOfRange):
        duality_maximizer(c, 0.99)


def test_duality_degenerate_branch(make_system):
    _, c = make_system("okamoto:0.5")
    res = duality_maximizer(c, c.alpha_hat)
    assert res.branch == "degenerate"
    assert res.p[1] == 0.0
    assert res.p[0] == pytest.approx(0.5, abs=1e-9)


def test_ratio_guards(make_system):
    _, c = make_system(SKEW)
    with pytest.raises(ValueError):
        entropy_ratio((0.5, 0.3, 0.2), (0.3, 0.7))
    with pytest.raises(ValueError):
        contraction_ratio((0.5, 0.5, 0.0), c)
    _, cok = make_system("okamoto:0.5")
    with pytest.raises(ValueError):
        contraction_ratio((0.3, 0.4, 0.3), cok)  # mass on the flat branch


def test_contraction_ratio_maximised_at_p_star(make_system):
    _, c = make_system(SKEW)
    top = contraction_ratio(c.p_star, c)
    assert top == pytest.approx(c.sigma, abs=1e-10)
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = rng.dirichlet((1.0, 1.0))
        assert contraction_ratio(tuple(p), c) <= top + 1e-9


# ------------------------------------------------------------------ spectrum D

def test_spectrum_linear_part(make_system):
    _, c = make_system(SKEW)
    at1 = spectrum_D(c, 1.0)
    assert at1.dim == 0.0 and at1.branch == "linear"
    assert "dimension 0" in at1.note
    assert spectrum_D(c, 1.2).dim == pytest.approx(0.2 * c.sigma, abs=1e-10)
    # continuous and tangent at alpha0
    h = 1e-6
    at0 = spectrum_D(c, c.alpha0).dim
    left = spectrum_D(c, c.alpha0 - h).dim
    right = spectrum_D(c, c.alpha0 + h).dim
    assert at0 == pytest.approx(c.sigma * (c.alpha0 - 1.0), abs=1e-9)
    assert (at0 - left) / h == pytest.approx(c.sigma, abs=1e-4)
    assert (right - at0) / h == pytest.approx(c.sigma, abs=1e-4)


def test_spectrum_case_a(make_system):
    _, c = make_system("riesz-nagy:0.3")
    assert spectrum_D(c, 0.9).branch == "legendre"
    assert spectrum_D(c, c.alpha_hat).dim == pytest.approx(1.0, abs=1e-9)
    assert spectrum_D(c, c.alpha_min).dim == 0.0
    assert spectrum_D(c, 0.4).branch == "empty"
    assert spectrum_D(c, 0.4).dim is None


def test_spectrum_infinite_level_set(make_system):
    _, cok = make_system("okamoto:0.5")
    inf_pt = spectrum_D(cok, math.inf)
    assert inf_pt.branch == "infinite" and inf_pt.dim == 1.0
    _, cs = make_system(SKEW)
    assert spectrum_D(cs, math.inf).branch == "empty"


def test_spectrum_table(make_system):
    _, c = make_system(SKEW)
    tab = spectrum_table(c, points=31)
    alphas = [p.alpha for p in tab]
    assert alphas == sorted(alphas)
    assert alphas[0] == 1.0 and alphas[-1] == pytest.approx(c.alpha_max)
    assert any(abs(p.alpha - c.alpha0) < 1e-12 for p in tab)
    assert any(abs(p.alpha - c.alpha_hat) < 1e-12 for p in tab)
    dims = [p.dim for p in tab]
    peak = max(dims)
    assert peak == pytest.approx(c.s_hat, abs=1e-9)


def test_spectrum_table_degenerate(make_system):
    _, c = make_system("okamoto:0.5")
    tab = spectrum_table(c, points=11)
    assert len(tab) == 2
    assert tab[0].branch == "degenerate"
    assert tab[1].alpha == math.inf and tab[1].dim == 1.0


def test_spectrum_table_matches_pointwise(make_system):
    """The table and the one-alpha entry point take the same code path."""
    presets = ["takagi:0.5", "takagi:1.5", "riesz-nagy:0.3", "okamoto:0.6",
               "okamoto:0.5", SKEW]
    cases = [make_system(name)[1] for name in presets]
    rng = np.random.default_rng(5)
    cases.append(compute_constants(random_polygon_system(rng, r=4,
                                                         allow_zero=True)))
    for c in cases:
        for row in spectrum_table(c, points=201):
            single = spectrum_D(c, row.alpha)
            assert (single.alpha, single.branch, single.p_opt, single.note) \
                == (row.alpha, row.branch, row.p_opt, row.note)
            if row.dim is None:
                assert single.dim is None
            else:
                assert abs(single.dim - row.dim) <= 1e-12


def _classify_one(c, alpha, overlap):
    """One alpha at a time, by the same comparisons (the oracle for the
    range classifier)."""
    amin, amax, tol = c.alpha_min, c.alpha_max, spectrum._END_TOL
    if amax - amin <= spectrum._DEG_TOL * max(1.0, abs(amax)):
        return "degenerate" if abs(alpha - c.alpha_hat) <= 1e-9 else "empty"
    if overlap and c.regime is Regime.CASE_B and alpha < c.alpha0:
        return "linear" if alpha >= 1.0 - tol else "empty"
    if alpha < amin - tol or alpha > amax + tol:
        return "empty"
    if alpha <= amin + tol or alpha >= amax - tol:
        return "endpoint"
    return "legendre"


def _edges(c):
    """The thresholds the classifier compares against, a few ulps either
    side of each, and a grid beyond the support."""
    tol = spectrum._END_TOL
    marks = [c.alpha_min + tol, c.alpha_min - tol, c.alpha_max + tol,
             c.alpha_max - tol, c.alpha_hat + 1e-9, c.alpha_hat - 1e-9,
             c.alpha_hat, 1.0 - tol, 1.0]
    if c.alpha0 is not None:
        marks.append(c.alpha0)
    out = []
    for x in marks:
        for _ in range(3):
            x = math.nextafter(x, -math.inf)
        for _ in range(7):
            out.append(x)
            x = math.nextafter(x, math.inf)
    return out + np.linspace(c.alpha_min - 1.0, c.alpha_max + 1.0, 41).tolist()


@given(seed=st.integers(0, 10 ** 9))
def test_classify_matches_one_alpha_at_a_time(seed):
    """The ranges of increasing alphas give every alpha the branch the
    comparisons of one alpha at a time give it."""
    rng = np.random.default_rng(seed)
    systems = [random_polygon_system(rng, allow_zero=True),
               random_two_branch_contractive(rng)]
    systems += [parse_preset(name) for name in
                ("okamoto:0.5", "okamoto:0.6", "takagi:1.5", SKEW)]
    for c in map(compute_constants, systems):
        alphas = np.sort(_edges(c))
        for overlap in (True, False):
            ranges = spectrum._ranges(c, alphas, overlap)
            stops = [stop for _, stop in ranges]
            assert stops == sorted(stops) and stops[-1] == alphas.size
            labels, lo = [], 0
            for branch, stop in ranges:
                labels += [branch] * (stop - lo)
                lo = stop
            assert labels == [_classify_one(c, alpha, overlap)
                              for alpha in alphas.tolist()]


def test_legendre_cap_raises(make_system, monkeypatch):
    _, c = make_system("okamoto:0.6")   # three d != 0 branches: Newton
    assert spectrum_D(c, 1.3).branch == "legendre"
    monkeypatch.setattr(spectrum, "_NEWTON_CAP", 1)
    with pytest.raises(errors.NonConvergence, match=r"alpha = \[1\.3\]"):
        spectrum_D(c, 1.3)
    with pytest.raises(errors.NonConvergence):
        spectrum_table(c, points=11)


def test_two_branch_needs_no_iteration(make_system, monkeypatch):
    _, c = make_system("riesz-nagy:0.3")
    want = [spectrum_D(c, alpha) for alpha in (0.6, 1.0, 1.3)]
    table = spectrum_table(c, points=31)
    q = q_star(c, 1.0)
    monkeypatch.setattr(spectrum, "_NEWTON_CAP", 1)
    assert [spectrum_D(c, pt.alpha) for pt in want] == want
    assert spectrum_table(c, points=31) == table
    assert q_star(c, 1.0) == q == duality_maximizer(c, 1.0).q


def test_two_branch_rounded_weights_fall_back_to_newton(monkeypatch):
    """alpha_max is about 1.2e5, whose ulp exceeds the end tolerance, so
    some alphas a few ulps inside it round to a nonpositive weight; those
    rows, and only those, go through Newton."""
    c = compute_constants(build_from_polygon(
        [(0.0, 0.0), (0.99999, 0.5), (1.0, 1.0)], (0.3, -0.5)))
    alphas = [c.alpha_max]
    for _ in range(40):
        alphas.append(math.nextafter(alphas[-1], 0.0))
    alphas = np.array(alphas[:0:-1])
    seen = []

    def newton(constants, rows):
        seen.extend(rows.tolist())
        return newton_path(constants, rows)

    newton_path = spectrum._legendre_newton
    monkeypatch.setattr(spectrum, "_legendre_newton", newton)
    q, b = spectrum._legendre(c, alphas)
    assert 0 < len(seen) < alphas.size
    assert np.all(np.isfinite(q)) and np.all(np.isfinite(b))
    dims = alphas * q + b
    assert np.all(np.abs(dims) <= 1e-9)     # beta*(alpha_max) = s_max = 0


def test_solve_rows_are_ordinary_points(make_system):
    """Rows built by one __dict__ update equal, hash and repr like points
    the dataclass builds, and dataclasses.replace and asdict work on them."""
    seen = set()
    for name in ("riesz-nagy:0.3", "okamoto:0.6", "okamoto:0.5", SKEW):
        _, c = make_system(name)
        alphas = sorted([c.alpha_min - 1.0, c.alpha_min, 1.0, 1.2, c.alpha_hat,
                         0.5 * (c.alpha_hat + c.alpha_max), c.alpha_max])
        for pt in spectrum._solve(c, alphas)[0]:
            seen.add(pt.branch)
            fields = {f.name: getattr(pt, f.name)
                      for f in dataclasses.fields(pt)}
            ref = spectrum.SpectrumPoint(**fields)
            assert pt == ref and hash(pt) == hash(ref)
            assert repr(pt) == repr(ref) and vars(pt) == vars(ref)
            assert dataclasses.asdict(pt) == fields
            assert dataclasses.replace(pt) == ref
            assert dataclasses.replace(pt, note="n") == dataclasses.replace(
                ref, note="n")
            with pytest.raises(dataclasses.FrozenInstanceError):
                pt.dim = 0.0
    assert seen == {"empty", "endpoint", "linear", "legendre", "degenerate"}


def test_empty_calls_return_at_once(make_system):
    """No legendre rows: _legendre returns empty arrays after one pass, on
    the closed form and on the Newton path."""
    for name in ("riesz-nagy:0.3", "okamoto:0.6"):
        _, c = make_system(name)
        for f in (spectrum._legendre, spectrum._legendre_newton):
            q, b = f(c, np.zeros(0))
            assert q.shape == b.shape == (0,)
        assert spectrum._legendre(c, [])[0].shape == (0,)
        rows = spectrum._solve(c, [c.alpha_min - 1.0, c.alpha_max])
        assert [(pt.branch, q) for pt, q in zip(*rows)] == [
            ("empty", None), ("endpoint", None)]


# ---------------------------------------------------- mpmath references

_DPS = 40


def _mp_terms(a, d):
    return [(mpmath.log(abs(mpmath.mpf(dk))), mpmath.log(mpmath.mpf(ak)))
            for ak, dk in zip(a, d) if dk != 0.0]


def _beta_mp(terms, q):
    """beta(q) by Newton's method, from the largest single-branch root,
    where every term is <= 1 and the sum is >= 1: the sum is convex and
    decreasing in b, so the iterates rise monotonically to the root."""
    q = mpmath.mpf(q)
    b = max(-q * ld / la for ld, la in terms)
    for _ in range(200):
        w = [mpmath.exp(q * ld + b * la) for ld, la in terms]
        step = (mpmath.fsum(w) - 1) / -mpmath.fsum(
            wk * la for wk, (_, la) in zip(w, terms))
        b += step
        if step < mpmath.mpf(10) ** (5 - _DPS) * max(1, abs(b)):
            return b
    raise AssertionError("reference beta did not converge")


def _alpha_mp(terms, q):
    b = _beta_mp(terms, q)
    w = [mpmath.exp(q * ld + b * la) for ld, la in terms]
    return (mpmath.fsum(wk * ld for wk, (ld, _) in zip(w, terms))
            / mpmath.fsum(wk * la for wk, (_, la) in zip(w, terms)))


def _beta_star_mp(a, d, alpha) -> float:
    """alpha q + beta(q) at the q where alpha(q) = alpha, bracketed by
    doubling and located by 90 bisections of the bracket."""
    with mpmath.workdps(_DPS):
        terms, target = _mp_terms(a, d), mpmath.mpf(alpha)
        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        while _alpha_mp(terms, lo) < target:
            lo *= 2
        while _alpha_mp(terms, hi) > target:
            hi *= 2
        for _ in range(90):
            mid = (lo + hi) / 2
            if _alpha_mp(terms, mid) > target:
                lo = mid
            else:
                hi = mid
        q = (lo + hi) / 2
        return float(target * q + _beta_mp(terms, q))


def _interior(c, fractions=(0.003, 0.2, 0.5, 0.8, 0.997)):
    return [c.alpha_min + f * (c.alpha_max - c.alpha_min) for f in fractions]


def _check_beta_and_beta_star(system):
    c = compute_constants(system)
    with mpmath.workdps(_DPS):
        terms = _mp_terms(system.a, system.d)
        for q in (-3.0, 0.0, 0.7, 4.0):
            assert abs(beta(c, q) - float(_beta_mp(terms, q))) <= 1e-10
    if c.alpha_max - c.alpha_min < 1e-6:
        return
    # 1e-6 and 1e-3 of the support inside each end, where q is largest
    width = c.alpha_max - c.alpha_min
    ends = [end + sign * f * width for f in (1e-6, 1e-3)
            for end, sign in ((c.alpha_min, 1.0), (c.alpha_max, -1.0))]
    for alpha in _interior(c) + ends:
        want = _beta_star_mp(system.a, system.d, alpha)
        assert abs(beta_star(c, alpha) - want) <= 1e-10


@settings(max_examples=15)
@given(seed=st.integers(0, 10 ** 9))
def test_beta_and_beta_star_match_mpmath(seed):
    rng = np.random.default_rng(seed)
    _check_beta_and_beta_star(random_polygon_system(rng, allow_zero=True))


@pytest.mark.parametrize("form", ["vertex", "branch"])
@pytest.mark.parametrize("d", [(0.9, 0.8, 0.1), (0.9, -0.6, 0.3, 0.05),
                               (0.9, 0.0, 0.5, -0.3, 0.1),
                               (0.9, 0.75, -0.6, 0.45, 0.3, -0.2, 0.1, 0.05)])
def test_equal_widths_match_mpmath(d, form):
    """Widths 1/r: log a_k are equal, or in vertex form at r = 3, 5 a few
    ulps apart, so beta's Newton step lands on the root at once while q near
    an end still needs steps well beyond the start's scale."""
    r = len(d)
    ys = [0.0] + [0.5 - 0.3 * (-1) ** k for k in range(1, r)] + [1.0]
    system = build_from_polygon([(k / r, y) for k, y in enumerate(ys)], d)
    if form == "branch":
        system = from_branches([dataclasses.replace(br, a=1.0 / r)
                                for br in system.branches])
        assert len(set(system.a)) == 1
    _check_beta_and_beta_star(system)


@settings(max_examples=15)
@given(seed=st.integers(0, 10 ** 9))
def test_case_b_spectrum_matches_mpmath(seed):
    """Linear part sigma (alpha - 1) below alpha0, beta* above it."""
    rng = np.random.default_rng(seed)
    system = random_two_branch_contractive(rng)
    c = compute_constants(system)
    if c.regime is not Regime.CASE_B:
        return
    with mpmath.workdps(_DPS):
        ratios = [mpmath.log(abs(mpmath.mpf(dk)) / mpmath.mpf(ak))
                  for ak, dk in zip(system.a, system.d)]
        # sum (|d_k|/a_k)^sigma = 1 is the pressure equation at q = 0
        # with log(|d_k|/a_k) in place of log a_k
        sigma = _beta_mp([(0, x) for x in ratios], 0)
        p = [mpmath.exp(sigma * x) for x in ratios]
        terms = _mp_terms(system.a, system.d)
        alpha0 = float(mpmath.fsum(pk * ld for pk, (ld, _) in zip(p, terms))
                       / mpmath.fsum(pk * la for pk, (_, la) in zip(p, terms)))
    for alpha in [1.0, 0.5 * (1.0 + alpha0)] + _interior(c):
        got = spectrum_D(c, alpha)
        want = (float(sigma) * (alpha - 1.0) if alpha <= alpha0
                else _beta_star_mp(system.a, system.d, alpha))
        assert got.branch == ("linear" if alpha < c.alpha0 else "legendre")
        assert abs(got.dim - want) <= 1e-10


def _two_branch_system(rng, kind):
    """A system with exactly two d_k != 0 branches: r = 2 polygons, Case B
    prone contractive pairs, or r = 3, 4 polygons with the other d_k = 0."""
    if kind == 0:
        return random_polygon_system(rng, r=2)
    if kind == 1:
        return random_two_branch_contractive(rng)
    system = random_polygon_system(rng, r=kind + 1)
    keep = set(rng.choice(system.r, 2, replace=False).tolist())
    d = [dk if k in keep else 0.0 for k, dk in enumerate(system.d)]
    return build_from_polygon(system.vertices, d)


@settings(max_examples=15)
@given(seed=st.integers(0, 10 ** 9), kind=st.integers(0, 3))
def test_two_branch_closed_form_matches_mpmath_and_newton(seed, kind):
    system = _two_branch_system(np.random.default_rng(seed), kind)
    c = compute_constants(system)
    assert len(c.index_plus) == 2
    if c.alpha_max - c.alpha_min < 1e-6:
        return
    alphas = np.array(_interior(c))
    q, b = spectrum._legendre(c, alphas)
    qn, bn = spectrum._legendre_newton(c, alphas)
    closed, newton = alphas * q + b, alphas * qn + bn
    assert np.all(np.abs(closed - newton) <= 1e-11)
    for alpha, got in zip(alphas.tolist(), closed.tolist()):
        assert abs(got - _beta_star_mp(system.a, system.d, alpha)) <= 1e-10


@settings(max_examples=15)
@given(seed=st.integers(0, 10 ** 9), r=st.integers(3, 9))
def test_rows_do_not_depend_on_their_companions(seed, r):
    """A row solved alone gives the bits it gets among others: the sums
    add the branches in one order whatever the number of rows.
    _legendre_newton solves a lone row on two equal columns, so its rows are
    compared alone at every size, and a table's rows also match each other's
    solve in reverse order."""
    rng = np.random.default_rng(seed)
    c = compute_constants(random_polygon_system(rng, r=r, allow_zero=True))
    if c.alpha_max - c.alpha_min < 1e-6:
        return
    alphas = np.array(_interior(c))
    q, b = spectrum._legendre(c, alphas)
    for i in range(alphas.size):
        qi, bi = spectrum._legendre(c, alphas[i:i + 1])
        assert (qi[0], bi[0]) == (q[i], b[i])
    qr, br = spectrum._legendre(c, alphas[::-1])
    assert qr[::-1].tobytes() == q.tobytes() and br[::-1].tobytes() == b.tobytes()


@settings(max_examples=40)
@given(seed=st.integers(0, 10 ** 9), r=st.integers(3, 5),
       q=st.floats(-50.0, 50.0))
def test_log_pressure_matches_mpmath_and_rises(seed, r, q):
    """The log-space Newton solve for beta(q), from max_k (-q rho_k): within
    1e-13 relative of an mpmath root, and its iterates never decrease."""
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, r=r, allow_zero=True)
    c = compute_constants(system)
    _, logd, loga = c._plus_columns
    with mpmath.workdps(_DPS):
        want = float(_beta_mp(_mp_terms(system.a, system.d), q))
    steps = [max(-q * ld / la for ld, la in zip(logd[:, 0], loga[:, 0]))]

    def spy(x):     # unit_sum_root's stop test takes abs of each iterate
        steps.append(x)
        return abs(x)

    roots.abs = spy
    try:
        got = beta(c, q)
    finally:
        del roots.abs
    assert len(steps) >= 2 and steps[-1] == got
    assert all(x <= y for x, y in zip(steps, steps[1:]))
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
