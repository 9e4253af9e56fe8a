import bisect
import functools
import importlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_spectra import (
    Branch,
    Coding,
    SelfAffineSystem,
    build_from_polygon,
    derivative_series,
    divided_difference,
    errors,
    evaluate,
    evaluate_many,
    oscillation_lower_bound,
    sample,
    sup_bound,
)
from affine_spectra.ifs import validate
import reference
from conftest import random_polygon_system

# the package exports the function evaluate under the module's name
evaluate_module = importlib.import_module("affine_spectra.evaluate")

PRESET_NAMES = ("takagi:0.5", "takagi:1.5", "riesz-nagy:0.3", "okamoto:0.6",
                "okamoto:5/6", "okamoto:0.5", "skew-takagi:0.3,0.5,0.25",
                "skew-takagi:0.4,1,0.3")


def test_parabola():
    s = build_from_polygon([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)], (0.25, 0.25))
    xs = np.linspace(0.0, 1.0, 1001)
    vals, errs, _ = evaluate_many(s, xs, 1e-10)
    assert np.max(np.abs(vals - 2.0 * xs * (1.0 - xs))) < 1e-9
    assert np.all(errs <= 1e-10)


def test_vertices_are_exact(make_system):
    for name in ("riesz-nagy:0.3", "okamoto:0.6", "skew-takagi:0.3,0.5,0.25"):
        system, _ = make_system(name)
        for x, y in system.vertices:
            res = evaluate(system, x, 1e-15)
            assert res.value == y
            assert res.error_bound == 0.0
            assert res.depth_used == 0


def test_error_bound_is_honest(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    xs = np.linspace(0.0, 1.0, 197)
    coarse, bound, _ = evaluate_many(rn, xs, 1e-4)
    tight, _, _ = evaluate_many(rn, xs, 1e-13)
    assert np.all(np.abs(coarse - tight) <= bound + 1e-13)
    assert np.all(bound <= 1e-4)


def test_tighter_tol_costs_depth(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    shallow = evaluate(rn, 0.3, 1e-4).depth_used
    deep = evaluate(rn, 0.3, 1e-12).depth_used
    assert shallow < deep


def test_sup_bound(make_system):
    for name in ("takagi:0.5", "riesz-nagy:0.3", "skew-takagi:0.3,0.5,0.25"):
        system, _ = make_system(name)
        _, vals, _ = sample(system, 513, 1e-10)
        assert np.max(np.abs(vals)) <= sup_bound(system) + 1e-9


def test_sample_hits_endpoints(make_system):
    skew, _ = make_system("skew-takagi:0.3,0.5,0.25")
    xs, vals, errs = sample(skew, 11, 1e-12)
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert vals[0] == skew.vertices[0][1]
    assert vals[-1] == skew.vertices[-1][1]


def test_okamoto_monotone(make_system):
    ok, _ = make_system("okamoto:0.5")
    _, vals, _ = sample(ok, 1025, 1e-12)
    assert np.all(np.diff(vals) >= -2e-12)


def test_domain_and_tol_errors(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    with pytest.raises(errors.OutOfDomain):
        evaluate(rn, -0.1, 1e-6)
    with pytest.raises(errors.OutOfDomain):
        evaluate_many(rn, np.array([0.5, 1.2]), 1e-6)
    with pytest.raises(ValueError):
        evaluate(rn, 0.5, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(errors.OutOfDomain):
            evaluate(rn, bad, 1e-6)
        with pytest.raises(errors.OutOfDomain):
            evaluate_many(rn, np.array([0.5, bad]), 1e-6)


def test_non_convergence_reports_progress(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    with pytest.raises(errors.NonConvergence) as exc:
        evaluate(rn, 0.3, 1e-30, max_depth=10)
    assert exc.value.depth == 10
    assert 0.0 < exc.value.achieved_bound < 1e-2


def _assert_paths_agree(system, x, tol, max_depth=None):
    """evaluate and evaluate_many([x]) give the same bits, or the same
    NonConvergence."""
    try:
        one = evaluate(system, x, tol, max_depth=max_depth)
    except errors.NonConvergence as exc:
        with pytest.raises(errors.NonConvergence) as many:
            evaluate_many(system, [x], tol, max_depth=max_depth)
        assert (str(many.value), many.value.achieved_bound, many.value.depth) \
            == (str(exc), exc.achieved_bound, exc.depth)
        return
    values, errs, depths = evaluate_many(system, [x], tol, max_depth=max_depth)
    assert one.value.hex() == float(values[0]).hex()
    assert one.error_bound.hex() == float(errs[0]).hex()
    assert one.depth_used == int(depths[0])


def _assert_paths_agree_on(system, rng, n_points):
    """Random points and the vertices, which include 0 and 1, at several
    tols, then a depth cap that the random points cannot meet."""
    points = [float(v) for v in rng.uniform(0.0, 1.0, n_points)]
    for tol in (1e-4, 1e-10, 1e-15):
        for x in points + list(system.xs):
            _assert_paths_agree(system, x, tol)
    for x in points:
        _assert_paths_agree(system, x, 1e-15, max_depth=3)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_scalar_path_matches_batch_on_presets(make_system, name):
    system, _ = make_system(name)
    _assert_paths_agree_on(system, np.random.default_rng(7), 32)


@given(seed=st.integers(0, 10 ** 9))
def test_scalar_path_matches_batch(seed):
    rng = np.random.default_rng(seed)
    _assert_paths_agree_on(random_polygon_system(rng, allow_zero=True), rng, 4)


def _word_length(system):
    """The longest m with r^m <= 256, or 1 when t = 1 is not a fixed
    point of the float step of branch r."""
    if (1.0 - system.xs[-2]) / system.a[-1] != 1.0:
        return 1
    m = 1
    while system.r ** (m + 1) <= 256:
        m += 1
    return m


@functools.lru_cache(maxsize=None)
def _words_exact(system):
    """(m, rows L_w, V_w, A_w, B_w, R_w over the words of m digits): the
    m steps of the stored coefficients composed in Fraction arithmetic,
    each entry rounded once."""
    m = _word_length(system)
    digits = [tuple(Fraction(v) for v in row) for row in
              zip(system.xs[:-1], system.a, system.e, system.c, system.d)]
    rows = []
    for word in itertools.product(range(system.r), repeat=m):
        L = A = B = Fraction(0)
        V = R = Fraction(1)
        for k in word:
            x, a, e, c, d = digits[k]
            A, B, R = A + B * x + R * e, B * a + R * c, R * d
            L, V = L + V * x, V * a
        rows.append(tuple(float(v) for v in (L, V, A, B, R)))
    return m, np.array(rows).T


def _evaluate_many_reference(system, xs, tol, max_depth=None):
    """evaluate_many's algorithm without blocks: every pass runs over the
    whole batch, with flatnonzero on an active mask, a searchsorted branch
    choice, gathers from and scatters to full-length arrays, and word maps
    from _words_exact.  Word passes first, while depth + m <= max_depth:
    a point leaves them before a word that would stop it, and after a word
    when the largest |R_w| would; then digit passes, each point from its
    own depth."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    pts = np.asarray(xs, dtype=float)
    flat = pts.ravel()
    if flat.size and not (np.isfinite(flat).all()
                          and flat.min() >= 0.0 and flat.max() <= 1.0):
        raise errors.OutOfDomain("points must lie in [0, 1]")
    if max_depth is None:
        max_depth = evaluate_module._DEFAULT_MAX_DEPTH

    part = np.asarray(system.xs)
    cuts = part[1:-1]
    lefts = part[:-1]
    a = np.asarray(system.a)
    c = np.asarray(system.c)
    d = np.asarray(system.d)
    e = np.asarray(system.e)
    y0, yr = system.ys[0], system.ys[-1]
    bound = sup_bound(system)
    m, words = _words_exact(system)
    rmax = float(np.abs(words[4]).max())

    t = flat.copy()
    A = np.zeros_like(t)
    B = np.zeros_like(t)
    R = np.ones_like(t)
    depth = np.zeros(t.shape, dtype=np.int64)

    vidx = np.searchsorted(part, t)
    vidx = np.clip(vidx, 0, len(part) - 1)
    exact_vertex = part[vidx] == t

    active = (~exact_vertex) & (np.abs(R) * bound > tol) & (t != 0.0) & (t != 1.0)
    passes = max_depth // m if m > 1 and rmax * bound > tol else 0
    wordy = active.copy()
    while passes and wordy.any():
        idx = np.flatnonzero(wordy)
        u = t[idx]
        w = np.zeros(idx.size, dtype=np.int64)
        for _ in range(m):
            k = np.searchsorted(cuts, u, side="right")
            u = (u - lefts[k]) / a[k]
            w = w * system.r + k
        L, V, Aw, Bw, Rw = words[:, w]
        Rn = R[idx] * Rw
        took = (np.abs(Rn) * bound > tol) & (u != 0.0) & (u != 1.0)
        i = idx[took]
        Ri = R[i]
        A[i] += B[i] * L[took] + Ri * Aw[took]
        B[i] = B[i] * V[took] + Ri * Bw[took]
        R[i] = Rn[took]
        t[i] = u[took]
        depth[i] += m
        passes -= 1
        wordy[idx] = took & (np.abs(Rn) * rmax * bound > tol) & (passes > 0)

    worst = 0.0
    while active.any():
        idx = np.flatnonzero(active)
        capped = depth[idx] >= max_depth
        if capped.any():
            worst = max(worst, float((np.abs(R[idx[capped]]) * bound).max()))
            active[idx[capped]] = False
            continue
        ti = t[idx]
        k = np.searchsorted(cuts, ti, side="right")
        ti = (ti - lefts[k]) / a[k]
        t[idx] = ti
        Ri = R[idx]
        A[idx] += B[idx] * lefts[k] + Ri * e[k]
        B[idx] = B[idx] * a[k] + Ri * c[k]
        R[idx] = Ri * d[k]
        depth[idx] += 1
        active[idx] = (np.abs(R[idx]) * bound > tol) & (t[idx] != 0.0) & (t[idx] != 1.0)
    if worst:
        raise errors.NonConvergence(
            f"depth cap {max_depth} hit; achieved bound {worst:g} > tol {tol:g}",
            achieved_bound=worst, depth=max_depth)

    closing = np.where(t == 0.0, y0, np.where(t == 1.0, yr, 0.0))
    values = A + B * t + R * closing
    errs = np.where((t == 0.0) | (t == 1.0), 0.0, np.abs(R) * bound)
    if exact_vertex.any():
        yarr = np.asarray(system.ys)
        values[exact_vertex] = yarr[vidx[exact_vertex]]
        errs[exact_vertex] = 0.0
        depth[exact_vertex] = 0
    return (values.reshape(pts.shape), errs.reshape(pts.shape),
            depth.reshape(pts.shape))


def _assert_matches_reference(system, xs, tol, max_depth=None):
    """evaluate_many and the reference give the same bits, shapes and dtypes,
    or the same NonConvergence."""
    try:
        want = _evaluate_many_reference(system, xs, tol, max_depth)
    except errors.NonConvergence as exc:
        with pytest.raises(errors.NonConvergence) as got:
            evaluate_many(system, xs, tol, max_depth=max_depth)
        assert (str(got.value), got.value.achieved_bound, got.value.depth) \
            == (str(exc), exc.achieved_bound, exc.depth)
        return
    got = evaluate_many(system, xs, tol, max_depth=max_depth)
    for g, w in zip(got, want):
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()


def _batch(system, rng, size):
    """size uniform points; when there is room they hold, at random places,
    every vertex (0 and 1 among them) and the images of the vertices under
    each branch, whose orbits meet a cut after one step."""
    xs = rng.uniform(0.0, 1.0, size)
    special = list(system.xs) + [b.a * x + b.b for b in system.branches
                                 for x in system.xs]
    if size >= len(special):
        xs[rng.choice(size, len(special), replace=False)] = special
    return xs


def _assert_kernel_matches_reference(system, rng):
    block = evaluate_module._BLOCK
    for size in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        xs = _batch(system, rng, size)
        for tol in (1e-4, 1e-10, 1e-15):
            _assert_matches_reference(system, xs, tol)
    grid = _batch(system, rng, 3 * 7).reshape(3, 7)
    _assert_matches_reference(system, grid, 1e-12)
    # a tol above sup|phi| needs no step at all
    _assert_matches_reference(system, grid, 2.0 * sup_bound(system))
    _assert_matches_reference(system, list(system.xs), 1e-15)
    # every block hits the cap, before any word pass and after two
    for cap in (3, 19):
        _assert_matches_reference(system, _batch(system, rng, 2 * block + 3),
                                  1e-15, max_depth=cap)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_kernel_matches_reference_on_presets(make_system, name):
    system, _ = make_system(name)
    _assert_kernel_matches_reference(system, np.random.default_rng(11))


@given(seed=st.integers(0, 10 ** 9), block=st.sampled_from((1, 2, 5, 64)))
def test_kernel_matches_reference(seed, block):
    # a small block puts several blocks into every batch size above
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    with mock.patch.object(evaluate_module, "_BLOCK", block):
        _assert_kernel_matches_reference(system, rng)


def test_cap_in_one_block_only(make_system):
    # the first block stops at the cap, the last converges by depth 2:
    # the error still names the cap and the worst bound of the first block
    system, _ = make_system("takagi:0.5")
    block = evaluate_module._BLOCK
    xs = np.concatenate([np.random.default_rng(3).uniform(0.0, 1.0, block),
                         np.full(block // 2, 0.25)])
    _assert_matches_reference(system, xs, 1e-15, max_depth=3)
    with pytest.raises(errors.NonConvergence) as exc:
        evaluate_many(system, xs, 1e-15, max_depth=3)
    assert exc.value.depth == 3
    values, errs, depths = evaluate_many(system, xs[block:], 1e-15,
                                         max_depth=3)
    assert np.all(depths == 2) and np.all(errs == 0.0)


@pytest.mark.parametrize("name", ("takagi:0.5", "okamoto:0.6",
                                  "skew-takagi:0.3,0.5,0.25"))
def test_blocks_without_running_points(make_system, name):
    # each block finds its own vertex hits, so a block may hold no point
    # that runs: all vertices, only 0s and 1s, or nothing left to step
    system, _ = make_system(name)
    block = evaluate_module._BLOCK
    rng = np.random.default_rng(17)
    part = np.asarray(system.xs)
    xs = np.concatenate([rng.choice(part, block),
                         rng.choice((0.0, 1.0), block),
                         rng.uniform(0.0, 1.0, block + 5)])
    # hits in the last, partial block
    xs[-3:] = part[[0, 1, -1]]
    for tol, cap in ((1e-12, None), (1e-15, 3)):
        _assert_matches_reference(system, xs, tol, cap)
    # a batch of block + 1: the last block is one point, hit or not
    for last in (part[1], 0.3):
        tail = np.append(rng.uniform(0.0, 1.0, block), last)
        _assert_matches_reference(system, tail, 1e-12)
    # with sup_bound <= tol every point stops at depth 0
    bound = sup_bound(system)
    for tol in (bound, 2.0 * bound):
        assert not evaluate_many(system, xs, tol)[2].any()
        _assert_matches_reference(system, xs, tol)


def test_block_working_memory(make_system):
    # beside the input and its three outputs, evaluate_many keeps one
    # block's working set, under 2 MiB (README, eval / sample)
    system, _ = make_system("okamoto:0.6")
    xs = np.random.default_rng(0).uniform(0.0, 1.0, 100_000)
    evaluate_many(system, xs[:10], 1e-12)     # builds the cached tables
    tracemalloc.start()
    try:
        evaluate_many(system, xs, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 3 * xs.nbytes < 2 * 2 ** 20


def _digit_orbit(system, x, tol, max_depth):
    """(final t, depth) of the plain per-digit float orbit of x: one
    digit per step, stopped by |R| sup_bound <= tol, t on 0 or 1, or the
    depth cap; a vertex stays where it is."""
    if x in system.xs:
        return x, 0
    cuts, bound = system.xs[1:-1], sup_bound(system)
    t, R, depth = x, 1.0, 0
    while (abs(R) * bound > tol and t != 0.0 and t != 1.0
           and depth < max_depth):
        k = bisect.bisect_right(cuts, t)
        t = (t - system.xs[k]) / system.a[k]
        R *= system.d[k]
        depth += 1
    return t, depth


@given(seed=st.integers(0, 10 ** 9),
       preset=st.sampled_from((None,) + PRESET_NAMES),
       tol=st.sampled_from((1e-4, 1e-10, 1e-15)),
       cap=st.integers(1, 60))
def test_word_passes_keep_the_digit_orbit(make_system, seed, preset, tol, cap):
    """The word passes step t digit by digit and stop each point where
    the per-digit orbit stops: final t and depth are those of a plain
    per-digit orbit, also at a depth cap that is not a multiple of m."""
    rng = np.random.default_rng(seed)
    system = (random_polygon_system(rng, allow_zero=True) if preset is None
              else make_system(preset)[0])
    m, _ = evaluate_module._words(system)
    max_depth = cap + 1 if cap % m == 0 else cap
    xs = _batch(system, rng, 64)
    # vertex hits keep t = x and depth 0
    t, depth = xs.copy(), np.zeros(xs.size, dtype=np.int64)
    for out, _, _, rows, pos, _ in evaluate_module._orbits(system, xs, tol,
                                                           max_depth):
        t[out][pos] = rows[0]
        depth[out][pos] = rows[4]
    got = list(zip(t.tolist(), depth.tolist()))
    want = [_digit_orbit(system, x, tol, max_depth) for x in xs.tolist()]
    assert got == want


@settings(max_examples=20)
@given(seed=st.integers(0, 10 ** 9))
def test_word_table_is_the_exact_composition_rounded_once(make_system, seed):
    rng = np.random.default_rng(seed)
    for system in (random_polygon_system(rng, allow_zero=True),
                   make_system(PRESET_NAMES[seed % len(PRESET_NAMES)])[0]):
        m, table = evaluate_module._words(system)
        m_exact, words = _words_exact(system)
        assert m == m_exact
        assert np.array(table).T.tobytes() == words.tobytes()


def test_word_length_one_when_one_is_not_fixed():
    """When (1 - x_{r-1}) / a_r does not round to 1, an orbit may pass
    through 1 inside a word: m = 1, and evaluation is the per-digit
    recursion with the stored coefficients, bit for bit."""
    base = build_from_polygon([(0.0, 0.0), (0.3, 0.7), (0.6, 0.2), (1.0, 1.0)],
                              (0.4, -0.5, 0.3))
    last = base.branches[-1]
    nudged = Branch(math.nextafter(last.a, 0.0), last.b, last.c, last.d,
                    last.e)
    system = SelfAffineSystem(base.branches[:-1] + (nudged,), base.vertices)
    validate(system)
    assert (1.0 - system.xs[-2]) / system.a[-1] != 1.0
    m, table = evaluate_module._words(system)
    assert (m, table) == (1, tuple(zip(system.xs[:-1], system.a, system.e,
                                       system.c, system.d)))
    assert evaluate_module._words(base)[0] == 5
    xs = _batch(system, np.random.default_rng(5), 256)
    for tol in (1e-6, 1e-12):
        values, errs, depths = evaluate_many(system, xs, tol)
        for x, value, err, depth in zip(xs.tolist(), values.tolist(),
                                        errs.tolist(), depths.tolist()):
            assert (value, err, depth) == _per_digit_evaluate(system, x, tol)


def _per_digit_evaluate(system, x, tol):
    """(value, error_bound, depth) of the per-digit recursion, one digit
    per step in plain floats."""
    if x in system.xs:
        return system.ys[system.xs.index(x)], 0.0, 0
    cuts, bound = system.xs[1:-1], sup_bound(system)
    t, A, B, R, depth = x, 0.0, 0.0, 1.0, 0
    while abs(R) * bound > tol and t != 0.0 and t != 1.0:
        k = bisect.bisect_right(cuts, t)
        left, a = system.xs[k], system.a[k]
        t = (t - left) / a
        A += B * left + R * system.e[k]
        B = B * a + R * system.c[k]
        R = R * system.d[k]
        depth += 1
    if t == 0.0 or t == 1.0:
        closing = system.ys[0] if t == 0.0 else system.ys[-1]
        return A + B * t + R * closing, 0.0, depth
    return A + B * t, abs(R) * bound, depth


@given(seed=st.integers(0, 10 ** 9))
def test_self_affinity_identity(make_system, seed):
    # phi(a_k t + b_k) = c_k t + d_k phi(t) + e_k on every branch
    rng = np.random.default_rng(seed)
    skew, _ = make_system("skew-takagi:0.3,0.5,0.25")
    t = float(rng.uniform(0.0, 1.0))
    inner = evaluate(skew, t, 1e-13).value
    for b in skew.branches:
        outer = evaluate(skew, b.a * t + b.b, 1e-13).value
        assert outer == pytest.approx(b.c * t + b.d * inner + b.e, abs=1e-11)


# ----------------------------------------------------------- derivative series

def test_series_on_smooth_case():
    s = build_from_polygon([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)], (0.25, 0.25))
    # phi = 2x(1-x); phi'(0) = 2, phi'(1/3) = 2/3
    assert derivative_series(s, Coding(period=(1,))) == pytest.approx(
        2.0, abs=1e-9)
    assert derivative_series(s, Coding(period=(1, 2))) == pytest.approx(
        2.0 / 3.0, abs=1e-9)


def test_series_cut_values(make_system):
    skew, _ = make_system("skew-takagi:0.3,0.5,0.25")
    right = derivative_series(skew, Coding(prefix=(2,), period=(1,)))
    left = derivative_series(skew, Coding(prefix=(1,), period=(2,)))
    assert right == pytest.approx(20.0 / 7.0, abs=1e-9)
    assert left == pytest.approx(20.0 / 27.0, abs=1e-9)


def test_series_zero_shear_is_exact(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    assert derivative_series(rn, Coding(period=(1,))) == 0.0


def test_series_terminates_on_flat_branch():
    s = build_from_polygon([(0.0, 0.0), (0.3, 0.7), (0.6, 0.2), (1.0, 1.0)],
                           (0.4, 0.0, 0.3))
    got = derivative_series(s, Coding(prefix=(1, 3, 2), period=(1, 2)))
    b1, b2, b3 = s.branches
    want = (b1.c / b1.a
            + (b3.c / b3.a) * (b1.d / b1.a)
            + (b2.c / b2.a) * (b1.d / b1.a) * (b3.d / b3.a))
    assert got == pytest.approx(want, abs=1e-13)
    # independent check: the series equals the slope of the affine piece
    from affine_spectra import basic_interval, evaluate as ev
    bi = basic_interval(s, (1, 3, 2))
    lo = ev(s, bi.left, 1e-14).value
    hi = ev(s, bi.right, 1e-14).value
    assert got == pytest.approx((hi - lo) / bi.length, abs=1e-9)


def test_series_guards(make_system):
    rn, _ = make_system("riesz-nagy:0.3")
    tak, _ = make_system("takagi:0.5")
    with pytest.raises(errors.NotDifferentiable):
        derivative_series(rn, Coding(period=(2,)), gamma=0.9)
    with pytest.raises(errors.NotDifferentiable):
        derivative_series(tak, Coding(period=(1,)))  # |d/a| = sqrt(2) > 1
    with pytest.raises(errors.TailBoundUnavailable):
        derivative_series(rn, Coding(prefix=(1, 2, 1)))


def _series_exact(system, coding) -> Fraction:
    """The derivative series of the stored coefficients in exact
    arithmetic: the prefix terms, then the period as one geometric sum (or
    up to a d = 0 digit, where the series ends)."""
    a = [Fraction(v) for v in system.a]
    c = [Fraction(v) for v in system.c]
    d = [Fraction(v) for v in system.d]
    total, P = Fraction(0), Fraction(1)
    for k in coding.prefix:
        total += c[k - 1] / a[k - 1] * P
        P *= d[k - 1] / a[k - 1]
        if P == 0:
            return total
    window, Q = Fraction(0), Fraction(1)
    for k in coding.period:
        window += c[k - 1] / a[k - 1] * Q
        Q *= d[k - 1] / a[k - 1]
    return total + P * window / (1 - Q)


def _series_outcome(system, coding, tol):
    """(value or None, best of three call times in s): the value must lie
    within tol * max(1, |value|) of the exact series, or the call must
    raise TailBoundUnavailable."""
    best, value = math.inf, None
    for _ in range(3):
        start = time.perf_counter()
        try:
            value = derivative_series(system, coding, tol)
        except errors.TailBoundUnavailable:
            value = None
        best = min(best, time.perf_counter() - start)
    if value is not None:
        assert (abs(Fraction(value) - _series_exact(system, coding))
                <= tol * max(1.0, abs(value)))
    return value, best


def _near_one_system(d1):
    # |Q| = |d1| / 0.5 for the coding 2,(1)
    return build_from_polygon([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)], [d1, 0.2])


@pytest.mark.parametrize("d1", [0.4999, 0.499999])
def test_series_near_unit_ratio_is_within_tol_or_named(d1):
    # the window loop returned 1.8e-11 off at tol 1e-12 for 0.4999 and spun
    # 1.55 s for 0.499999; the closed form answers at once, honestly
    _, seconds = _series_outcome(_near_one_system(d1),
                                 Coding(prefix=(2,), period=(1,)), 1e-12)
    assert seconds < 1e-3
    value, _ = _series_outcome(_near_one_system(d1),
                               Coding(prefix=(2,), period=(1,)), 1e-3)
    assert value is not None


@settings(max_examples=80)
@given(seed=st.integers(0, 10 ** 9),
       tol=st.sampled_from([1e-14, 1e-12, 1e-10, 1e-6]),
       near=st.booleans())
def test_series_closed_form_within_tol_or_named(seed, tol, near):
    rng = np.random.default_rng(seed)
    if near:
        # |Q| within 1e-6 of 1, either side of the sign
        d1 = 0.5 * (1.0 - float(rng.uniform(1e-12, 1e-6)))
        system = _near_one_system(d1 * float(rng.choice([-1.0, 1.0])))
    else:
        system = random_polygon_system(rng, allow_zero=True)
    r = system.r
    prefix = tuple(rng.integers(1, r + 1, int(rng.integers(0, 257))).tolist())
    period = tuple(rng.integers(1, r + 1, int(rng.integers(1, 4))).tolist())
    if near:
        period = (1,)
    coding = Coding(prefix=prefix, period=period)
    try:
        _, seconds = _series_outcome(system, coding, tol)
    except errors.NotDifferentiable:
        return
    assert seconds < 1e-3


def test_series_tol_is_relative_to_large_derivatives():
    # a derivative near -92 carries a rounding bound of 1.39e-12, above an
    # absolute 1e-12 but within 1e-12 of the value relatively
    system = random_polygon_system(np.random.default_rng(248))
    coding = Coding(prefix=(1, 3), period=(1, 1))
    value, _ = _series_outcome(system, coding, 1e-12)
    assert value == pytest.approx(-92.0147137902, abs=1e-9)
    # a bound beyond tol * |value| is still named
    with pytest.raises(errors.TailBoundUnavailable, match="rounding bound"):
        derivative_series(system, coding, 1e-15)


def test_series_stops_at_a_flat_digit_without_a_period():
    s = build_from_polygon([(0.0, 0.0), (0.3, 0.7), (0.6, 0.2), (1.0, 1.0)],
                           (0.4, 0.0, 0.3))
    coding = Coding(prefix=(1, 3, 2, 1, 3))
    value, _ = _series_outcome(s, coding, 1e-12)
    assert value is not None
    # a finite coding with no d = 0 digit raises before summing anything
    with pytest.raises(errors.TailBoundUnavailable, match="periodic"):
        derivative_series(s, Coding(prefix=(1, 3) * 1000))


# -------------------------------------------------- divided-difference helpers

def test_divided_difference_cubic():
    xs = [0.0, 0.13, 0.4, 0.77]
    vals = [5.0 * x ** 3 - x + 2.0 for x in xs]
    assert divided_difference(xs, vals) == pytest.approx(5.0, abs=1e-10)
    quad = [3.0 * x ** 2 for x in xs]
    assert divided_difference(xs, quad) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(errors.DuplicateAbscissa):
        divided_difference([0.1, 0.1, 0.3], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        divided_difference([0.1, 0.2], [1.0])


def test_oscillation_bound_is_a_lower_bound(make_system):
    tak, _ = make_system("takagi:0.5")
    xs = np.linspace(0.125, 0.375, 6)
    vals, _, _ = evaluate_many(tak, xs, 1e-13)
    bound = oscillation_lower_bound(xs, vals)
    assert bound > 0.0
    # compare against the best fitting polynomial of degree N-1
    coeff = np.polyfit(xs, vals, len(xs) - 2)
    resid = np.max(np.abs(vals - np.polyval(coeff, xs)))
    assert bound <= resid + 1e-12
    with pytest.raises(errors.NotIncreasing):
        oscillation_lower_bound([0.3, 0.2], [1.0, 2.0])


# ------------------------------------------- certified bound, exact reference

_ITEM_1 = ("ROADMAP item 1: evaluate_many's certified bound does not hold "
           "here ({})")


@pytest.mark.parametrize("name", [
    "takagi:1", "takagi:2", "riesz-nagy:0.3", "riesz-nagy:0.5", "okamoto:1/2",
    "skew-takagi:0.3,0.5,0.25", "skew-takagi:0.4,1,0.3",
    pytest.param("takagi:0.5", marks=pytest.mark.xfail(strict=True, reason=(
        _ITEM_1.format("the accumulation rounds on orbits that land on 0 "
                       "or 1, 100 of 100 points")))),
    pytest.param("okamoto:0.6", marks=pytest.mark.xfail(strict=True, reason=(
        _ITEM_1.format("the float orbit drifts, 3 of 100 points")))),
    pytest.param("okamoto:5/6", marks=pytest.mark.xfail(strict=True, reason=(
        _ITEM_1.format("the float orbit drifts, 100 of 100 points")))),
])
def test_evaluate_many_within_bound_of_exact_phi(make_system, name):
    """|value - phi(x)| <= error_bound at 100 seeded points, tol 1e-12,
    against the exact Fraction orbit of bench/reference.py (its own
    remainder, at most 1e-16, counted on the side of the bound)."""
    system, _ = make_system(name)
    rng = random.Random(1)
    xs = [rng.random() for _ in range(100)]
    values, bounds, _ = evaluate_many(system, np.array(xs), 1e-12)
    exact = reference.ExactSystem(system)
    off = []
    for x, value, bound in zip(xs, values.tolist(), bounds.tolist()):
        want, rem = reference.phi_exact(exact, x, 1e-16)
        if abs(Fraction(value) - want) > Fraction(bound) + rem:
            off.append(x)
    assert not off, f"{len(off)} of {len(xs)} points off, first x = {off[0]!r}"


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_derivative_series_rejects_bad_tol(make_system, tol):
    """nan used to surface as a misleading TailBoundUnavailable "above tol
    nan"; -1 likewise, though no bound can be negative."""
    skew, _ = make_system("skew-takagi:0.3,0.5,0.25")
    with pytest.raises(ValueError, match="series tol"):
        derivative_series(skew, Coding(prefix=(1,), period=(2,)), tol)
