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
    compute_constants,
    contraction_ratio,
    duality_maximizer,
    entropy_ratio,
    errors,
    q_star,
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
    finite_only = spectrum_table(c, points=11, include_infinite=False)
    assert len(finite_only) == 1


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


def test_legendre_cap_raises(make_system, monkeypatch):
    _, c = make_system("riesz-nagy:0.3")
    assert spectrum_D(c, 1.3).branch == "legendre"
    monkeypatch.setattr(spectrum, "_NEWTON_CAP", 1)
    with pytest.raises(errors.NonConvergence, match=r"alpha = \[1\.3\]"):
        spectrum_D(c, 1.3)
    with pytest.raises(errors.NonConvergence):
        spectrum_table(c, points=11)


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


@settings(max_examples=15)
@given(seed=st.integers(0, 10 ** 9))
def test_beta_and_beta_star_match_mpmath(seed):
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    c = compute_constants(system)
    with mpmath.workdps(_DPS):
        terms = _mp_terms(system.a, system.d)
        for q in (-3.0, 0.0, 0.7, 4.0):
            assert abs(beta(c, q) - float(_beta_mp(terms, q))) <= 1e-10
    if c.alpha_max - c.alpha_min < 1e-6:
        return
    for alpha in _interior(c):
        want = _beta_star_mp(system.a, system.d, alpha)
        assert abs(beta_star(c, alpha) - want) <= 1e-10


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
