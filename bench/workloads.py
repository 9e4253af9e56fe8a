"""The four workloads: their queries, inputs and output checks.

A workload is a fixed, ordered list of queries; a run repeats the whole list
(a round) until its time is up.  Each query carries

- `run()`, the timed call into the library;
- `reduce(result)`, untimed, which keeps the few numbers the check needs
  (so large outputs are not held and do not count towards peak memory);
- `check(reduced)`, untimed, which runs every sub-check against the
  independent references and returns the list of failures;
- `count(reduced)`, the units of work the query did.

Queries on systems where a known fault of the program shows on some inputs
(see README.md) take their inputs from FIXED_SEED instead of the run's seed,
so that they fail the same way in every run, whatever the seed.  Only the
sub-checks that the fault breaks are marked `kept` there; any other failure,
on any query, is unexpected.

`reference` (and with it mpmath) is imported inside the checks, so that the
set-up that setup_s times holds none of the benchmark's own references.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from systems import catalogue

TOL = 1e-12               # evaluation tolerance of every evaluate query
BATCH = 100_000           # points per evaluate query
CHECKED_POINTS = 64       # points per batch compared with the exact orbit
PHI_SLACK_ULPS = 4        # rounding allowance in units of ulp(sup|phi|)
CODING_DEPTH = 64         # digits per coding_of_point query (CLI default)
SPECTRUM_POINTS = 201     # spectrum_table grid (CLI default)
SPECTRUM_CHECKED_ROWS = 12
SPECTRUM_ATOL = 1e-9
FIXED_SEED = 0
DERIVATIVE_STEPS = tuple(2.0 ** -k for k in range(10, 27))   # CLI verify


@dataclass(frozen=True)
class Failure:
    reason: str
    kept: bool = False      # the known fault, on a query with fixed inputs


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    reduce: Callable[[Any], Any]
    check: Callable[[Any], list[Failure]]
    count: Callable[[Any], int]


def _failures(*found: tuple[str | None, bool]) -> list[Failure]:
    """Failures from (reason or None, kept) pairs of sub-checks."""
    return [Failure(reason, kept) for reason, kept in found if reason is not None]


def _unexpected(check: Callable[[Any], str | None]):
    """A check that stops at its first failed sub-check, on a workload
    without kept faults, as one returning a list of failures."""
    return lambda reduced: _failures((check(reduced), False))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _close(x: float, y: float, tol: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol * max(1.0, abs(y))


# ------------------------------------------------------------- spectrum

SPECTRUM_SYSTEMS = ("riesz-nagy:0.3", "okamoto:0.6", "skew-takagi:0.3,0.5,0.25",
                    "random-zero", "random-caseB")


def _spectrum_reference(system):
    """Landmarks from mpmath and closed forms, and D(alpha) built on them.
    The regime comes from the reference's own overlap set."""
    import reference as ref
    a, d = system.a, system.d
    plus = [k for k in range(1, system.r + 1) if d[k - 1] != 0.0]
    rhos = {k: ref.rho(system, k) for k in plus}
    amin, amax = min(rhos.values()), max(rhos.values())
    lm = {"alpha_min": amin, "alpha_max": amax,
          "s_hat": ref.partition_exponent_mp([a[k - 1] for k in plus]),
          "s_min": ref.partition_exponent_mp(
              [a[k - 1] for k in plus if abs(rhos[k] - amin) <= 1e-12]),
          "s_max": ref.partition_exponent_mp(
              [a[k - 1] for k in plus if abs(rhos[k] - amax) <= 1e-12])}
    case_b = ref.is_case_b(system)
    if case_b:
        sigma = ref.sigma_mp(a, d)
        p = [(abs(d[k - 1]) / a[k - 1]) ** sigma for k in plus]
        lm["sigma"] = sigma
        lm["alpha0"] = (math.fsum(pk * math.log(abs(d[k - 1])) for pk, k in zip(p, plus))
                        / math.fsum(pk * math.log(a[k - 1]) for pk, k in zip(p, plus)))

    def dim(alpha):
        if math.isinf(alpha):
            return 1.0
        if case_b and alpha <= 1.0 + 1e-12:
            return 0.0
        if case_b and alpha < lm["alpha0"]:
            return lm["sigma"] * (alpha - 1.0)
        if alpha <= amin + 1e-12:
            return lm["s_min"]
        if alpha >= amax - 1e-12:
            return lm["s_max"]
        return ref.beta_star_mp(a, d, alpha)

    return case_b, lm, dim


def _spectrum_queries(api, systems, seed):
    out = []
    for name in SPECTRUM_SYSTEMS:
        system = systems[name]
        pick = _rng(seed, 1, SPECTRUM_SYSTEMS.index(name))

        def run(system=system):
            constants = api.compute_constants(system)
            return constants, api.spectrum_table(constants, points=SPECTRUM_POINTS)

        def reduce(result):
            constants, rows = result
            return constants, tuple((pt.alpha, pt.dim, pt.branch) for pt in rows)

        def check(reduced, system=system, pick=pick):
            constants, rows = reduced
            case_b, lm, dim = _spectrum_reference(system)
            if (constants.regime.value == "CaseB") != case_b:
                return f"regime {constants.regime.value}, reference Case B {case_b}"
            for key in ("alpha_min", "alpha_max", "s_hat", "s_min", "s_max",
                        "sigma", "alpha0"):
                if key in lm and not _close(getattr(constants, key), lm[key], 1e-10):
                    return f"{key} = {getattr(constants, key)!r}, reference {lm[key]!r}"
            alphas = [al for al, _, _ in rows]
            if alphas != sorted(alphas):
                return "rows are not in increasing alpha"
            has_zero = any(dk == 0.0 for dk in system.d)
            if (rows[-1][2] == "infinite") != has_zero:
                return "alpha = inf row present iff some d_k = 0 fails"
            finite = [row for row in rows if not math.isinf(row[0])]
            if not SPECTRUM_POINTS <= len(finite) <= SPECTRUM_POINTS + 4:
                return f"{len(finite)} finite rows for a {SPECTRUM_POINTS}-point grid"
            special = {constants.alpha_min, constants.alpha_max, constants.alpha_hat}
            if constants.alpha0 is not None:
                special |= {1.0, constants.alpha0}
            chosen = set(pick.choice(len(finite), SPECTRUM_CHECKED_ROWS,
                                     replace=False).tolist())
            for i, (alpha, got, branch) in enumerate(rows):
                if not (i in chosen or alpha in special or math.isinf(alpha)):
                    continue
                want = dim(alpha)
                if got is None or abs(got - want) > SPECTRUM_ATOL:
                    return f"D({alpha!r}) = {got!r} ({branch}), reference {want!r}"
            return None

        out.append(Query(name, run, reduce, _unexpected(check),
                         count=lambda reduced: len(reduced[1])))
    return out


def _spectrum_warmup(api, systems):
    """A small table per system: the same code paths at a tenth of the cost
    of a round, which at 201 points takes about half a minute."""
    for name in SPECTRUM_SYSTEMS:
        api.spectrum_table(api.compute_constants(systems[name]), points=11)


# ------------------------------------------------------------- evaluate

# systems on which evaluate_many was seen to leave its bound (README.md)
EVALUATE_FAULTS = ("okamoto:0.6", "okamoto:5/6", "random-r2", "random-r3",
                   "random-r4")
EVALUATE_SYSTEMS = ("takagi:0.5", "takagi:2", "riesz-nagy:0.3", "okamoto:0.6",
                    "okamoto:5/6", "skew-takagi:0.3,0.5,0.25", "random-r2",
                    "random-r3", "random-r4")


def _phi_failure(exact, x, value, bound) -> str | None:
    import reference as ref
    want, rem = ref.phi_exact(exact, x, TOL * 1e-4)
    slack = Fraction(ref.ulp_slack(exact, PHI_SLACK_ULPS))
    if abs(Fraction(value) - want) > Fraction(bound) + rem + slack:
        return (f"phi({x!r}) = {value!r} +- {bound:g}, exact "
                f"{float(want)!r} +- {float(rem):g}")
    return None


def _evaluate_queries(api, systems, seed):
    out = []
    for j, name in enumerate(EVALUATE_SYSTEMS):
        system = systems[name]
        fixed = name in EVALUATE_FAULTS
        rng = _rng(FIXED_SEED if fixed else seed, 2, j)
        xs = rng.random(BATCH)
        sub = np.sort(rng.choice(BATCH, CHECKED_POINTS, replace=False))

        def run(system=system, xs=xs):
            return api.evaluate_many(system, xs, TOL)

        def reduce(result, xs=xs, sub=sub):
            values, bounds, depths = result
            return (tuple(xs[sub].tolist()), tuple(values[sub].tolist()),
                    tuple(bounds[sub].tolist()), float(bounds.max()),
                    _digest(values, bounds, depths))

        def check(reduced, system=system, name=name, fixed=fixed):
            import reference as ref
            xsub, vsub, bsub, worst, _ = reduced
            exact = ref.ExactSystem(system)
            points = list(zip(xsub, vsub, bsub))
            off = [bad for bad in (_phi_failure(exact, *p) for p in points) if bad]
            parabola = None
            if name == "takagi:2":
                slack = Fraction(ref.ulp_slack(exact, PHI_SLACK_ULPS))
                parabola = next((f"phi({x!r}) = {v!r} is not 2x(1-x)"
                                 for x, v, b in points
                                 if abs(Fraction(v) - 2 * Fraction(x) * (1 - Fraction(x)))
                                 > Fraction(b) + slack), None)
            return _failures(
                (f"error bound {worst:g} above tol" if worst > TOL else None, False),
                (f"{len(off)} of {len(points)} points off, first {off[0]}"
                 if off else None, fixed),
                (parabola, False))

        out.append(Query(name, run, reduce, check, count=lambda _: BATCH))
    return out


# ------------------------------------------------------------ pointwise

# systems whose float digits were seen to go wrong (README.md)
POINTWISE_FAULTS = ("okamoto:0.6", "okamoto:5/6", "skew-takagi:0.3,0.5,0.25")
POINTWISE_SYSTEMS = ("takagi:0.5", "riesz-nagy:0.3", "okamoto:0.6",
                     "okamoto:5/6", "skew-takagi:0.3,0.5,0.25")
POINTS_PER_SYSTEM = 8


def _widths_are_differences(system) -> bool:
    xs = system.xs
    return all(system.a[k] == xs[k + 1] - xs[k] for k in range(system.r))


def vertex_image(system, stem, vertex: int) -> Fraction:
    """Exact point S_{k_1} o ... o S_{k_n}(x_vertex) over the stored
    abscissae, with widths taken as their differences."""
    cuts = [Fraction(v) for v in system.xs]
    t = cuts[vertex]
    for k in reversed(stem):
        t = cuts[k - 1] + (cuts[k] - cuts[k - 1]) * t
    return t


def _periodic_coding(api, rng, r):
    prefix = tuple(int(v) for v in rng.integers(1, r + 1, int(rng.integers(0, 4))))
    while True:
        period = tuple(int(v) for v in rng.integers(1, r + 1, int(rng.integers(2, 4))))
        if len(set(period)) > 1:
            return api.Coding(prefix=prefix, period=period)


def _cut_stem(digits):
    """(n0, k) of the two-coding point whose right coding starts with these
    digits and then has only 1s: the stem length and the vertex."""
    stem = list(digits)
    while stem and stem[-1] == 1:
        stem.pop()
    stem[-1] -= 1
    return len(stem), stem[-1]


def _check_cut(system, cut, n0, k) -> str | None:
    """Closed-form exponents at a two-coding point (no d = 0 digit occurs on
    the pointwise systems): rho_1 on the right, rho_r on the left.  With both
    above 1, phi has one-sided derivatives there; they differ, a corner of
    exponent 1, iff the vertex is in the overlap set."""
    import reference as ref
    rho1, rhor = ref.rho(system, 1), ref.rho(system, system.r)
    if (cut.n0, cut.boundary_digit) != (n0, k):
        return f"cut stem ({cut.n0}, {cut.boundary_digit}), reference ({n0}, {k})"
    if not (_close(cut.alpha_right, rho1, 1e-12) and _close(cut.alpha_left, rhor, 1e-12)):
        return (f"cut exponents ({cut.alpha_right}, {cut.alpha_left}), "
                f"reference ({rho1}, {rhor})")
    low = min(rho1, rhor)
    want = 1.0 if low > 1.0 and k in ref.overlap_set(system) else low
    if not _close(cut.alpha, want, 1e-12):
        return f"cut exponent {cut.alpha}, reference {want}"
    return None


def _pointwise_check(reduced, system, x, periodic, stem, vertex, fixed):
    """Every sub-check of one pointwise query.  The value and the digits
    are the kept fault on fixed queries; the rest must hold everywhere."""
    import reference as ref
    (value, bound, digits, ambiguous, alpha, own_cut, sides, per_alpha,
     per_deriv, cut) = reduced

    wrong_digit = None
    want = ref.digits_exact(system, x, CODING_DEPTH)
    if digits != want and not ambiguous:
        first = next(i for i, (p, q) in enumerate(zip(digits, want)) if p != q)
        wrong_digit = f"digit {first + 1} of {x!r} is {digits[first]}, exact {want[first]}"

    # the exponent of the program's own digits, right or not
    if own_cut is not None:
        own = _check_cut(system, own_cut, *_cut_stem(digits))
    else:
        g0 = ref.tail_window_min_ratio(system, digits)
        own = (None if all(_close(s, g0, 1e-12) for s in sides) and alpha <= g0 + 1e-12
               else f"finite-horizon gamma0 {sides}, reference {g0}")

    g = ref.ratio(system, periodic.period)
    periodic_bad = (None if _close(per_alpha, g, 1e-12)
                    else f"periodic exponent {per_alpha}, one-period ratio {g}")
    derivative_bad = None
    if g > 1.0:
        d_ref = float(ref.derivative_exact(system, periodic.prefix, periodic.period))
        if per_deriv is None or not _close(per_deriv, d_ref, 1e-9):
            derivative_bad = f"derivative {per_deriv}, closed form {d_ref}"
    cut_bad = (_check_cut(system, cut, len(stem) + 1, vertex)
               if cut is not None else None)
    return _failures(
        (_phi_failure(ref.ExactSystem(system), x, value, bound), fixed),
        (wrong_digit, fixed), (own, False), (periodic_bad, False),
        (derivative_bad, False), (cut_bad, False))


def _pointwise_queries(api, systems, seed):
    out = []
    for j, name in enumerate(POINTWISE_SYSTEMS):
        system = systems[name]
        constants = api.compute_constants(system)
        fixed = name in POINTWISE_FAULTS
        rng = _rng(FIXED_SEED if fixed else seed, 3, j)
        with_cut = _widths_are_differences(system)
        for i in range(POINTS_PER_SYSTEM):
            x = float(rng.uniform(0.001, 0.999))
            periodic = _periodic_coding(api, rng, system.r)
            stem = tuple(int(v) for v in rng.integers(1, system.r + 1,
                                                      int(rng.integers(1, 4))))
            vertex = int(rng.integers(1, system.r))
            xc = vertex_image(system, stem, vertex) if with_cut else None

            def run(system=system, constants=constants, x=x, periodic=periodic,
                    xc=xc):
                value = api.evaluate(system, x, TOL)
                pc = api.coding_of_point(system, x, CODING_DEPTH)
                own = api.exponent_report(system, constants, pc.coding)
                per = api.exponent_report(system, constants, periodic)
                cut = (api.cut_point_exponents(system, constants, xc)
                       if xc is not None else None)
                return value, pc, own, per, cut

            def reduce(result):
                value, pc, own, per, cut = result
                sides = (None if own.cut is not None else
                         (own.right.bundle.gamma0, own.left.bundle.gamma0))
                return (value.value, value.error_bound, pc.coding.prefix,
                        pc.ambiguous, own.alpha, own.cut, sides, per.alpha,
                        per.right.derivative, cut)

            def check(reduced, system=system, x=x, periodic=periodic,
                      stem=stem, vertex=vertex, fixed=fixed):
                return _pointwise_check(reduced, system, x, periodic, stem,
                                        vertex, fixed)

            out.append(Query(f"{name}#{i}", run, reduce, check, count=lambda _: 1))
    return out


# --------------------------------------------------------------- verify

# system -> (period for the exponent estimate, period for the derivative).
# The estimate's periods give exponents of 1.1 to 1.8: the regression over
# scales 2^-10..2^-24 misses exponents near 2 by more than the CLI's 0.05.
VERIFY_SYSTEMS = {
    "riesz-nagy:0.3": ((1, 2), (1, 1, 1, 2)),
    "skew-takagi:0.3,0.5,0.25": ((1, 2), (1, 2)),
    "skew-takagi:0.4,1,0.3": ((1, 1, 2), (1, 2)),
}
AE_POINTS, AE_HORIZON = 1000, 10_000
RUN_LENGTH = 100_000
RUN_BLOCK_ENDS = (100, RUN_LENGTH)
SLOPE_TOL, R2_MIN, DERIVATIVE_TOL, AE_TOL = 0.05, 0.98, 0.01, 0.02   # CLI


def _verify_queries(api, systems, seed):
    out = []
    for j, (name, (p_est, p_der)) in enumerate(VERIFY_SYSTEMS.items()):
        system = systems[name]
        constants = api.compute_constants(system)
        rng = _rng(seed, 4, j)
        prefix = tuple(int(v) for v in rng.integers(1, system.r + 1, 3))
        est_coding = api.Coding(prefix=prefix, period=p_est)
        der_coding = api.Coding(prefix=prefix, period=p_der)
        ae_seed = int(rng.integers(2 ** 31))
        case_b = constants.regime.value == "CaseB"
        target = (1.0 + float(rng.uniform(0.2, 0.6)) * (constants.alpha0 - 1.0)
                  if case_b else None)
        run_seed = int(rng.integers(2 ** 31))

        def run(system=system, constants=constants, est_coding=est_coding,
                der_coding=der_coding, ae_seed=ae_seed, target=target,
                run_seed=run_seed):
            # verify --mode exponent
            bundle = api.gammas(system, constants, est_coding)
            deriv = (api.derivative_series(system, est_coding, 1e-12,
                                           gamma=bundle.gamma)
                     if bundle.gamma > 1.0 else None)
            est = api.estimate_exponent(system, api.project(system, est_coding),
                                        "right", derivative=deriv)
            # verify --mode derivative
            bundle2 = api.gammas(system, constants, der_coding)
            deriv2 = api.derivative_series(system, der_coding, 1e-12,
                                           gamma=bundle2.gamma)
            chk = api.check_derivative(system, api.project(system, der_coding),
                                       DERIVATIVE_STEPS, deriv2, "right")
            # verify --mode ae
            smp = api.ae_exponent_sample(system, AE_POINTS, AE_HORIZON, ae_seed)
            runs = None
            if target is not None:
                # gen-coding
                rs = api.run_structure_for_target(system, constants, target,
                                                  block_ends=RUN_BLOCK_ENDS)
                coding = api.generate_run_structured(rs, RUN_LENGTH, run_seed)
                runs = api.gammas(system, constants, coding, horizon=RUN_LENGTH)
            return bundle, deriv, est, deriv2, chk, smp, runs

        def reduce(result):
            bundle, deriv, est, deriv2, chk, smp, runs = result
            return (bundle.gamma, deriv, est.slope, est.r2, deriv2,
                    chk.final_discrepancy, smp.median, _digest(smp.values),
                    None if runs is None else (runs.gamma0, runs.gamma2))

        def check(reduced, system=system, est_coding=est_coding,
                  der_coding=der_coding, target=target):
            import reference as ref
            gamma, deriv, slope, r2, deriv2, disc, median, _, runs = reduced
            if (runs is not None) != ref.is_case_b(system):
                return "gen-coding ran iff the reference regime is Case B fails"
            g = ref.ratio(system, est_coding.period)
            if not _close(gamma, g, 1e-12):
                return f"exponent {gamma}, one-period ratio {g}"
            if g > 1.0 and not _close(deriv, float(ref.derivative_exact(
                    system, est_coding.prefix, est_coding.period)), 1e-9):
                return f"derivative {deriv} differs from the closed form"
            if abs(slope - g) > SLOPE_TOL or r2 < R2_MIN:
                return f"estimated slope {slope} (r2 {r2}), exponent {g}"
            d_ref = float(ref.derivative_exact(system, der_coding.prefix,
                                               der_coding.period))
            if not _close(deriv2, d_ref, 1e-9):
                return f"derivative {deriv2}, closed form {d_ref}"
            if disc > DERIVATIVE_TOL:
                return f"difference quotient off by {disc}"
            ae = ref.ae_exponent(system)
            if abs(median - ae) > AE_TOL:
                return f"a.e. median {median}, closed form {ae}"
            if runs is not None:
                gamma0, gamma2 = runs
                if abs(gamma2 - target) > 0.05 or gamma0 < target + 0.1:
                    return f"run-structured gammas {runs} for target {target}"
            return None

        out.append(Query(name, run, reduce, _unexpected(check),
                         count=lambda reduced: 3 if reduced[-1] is None else 4))
    return out


# ------------------------------------------------------------ registry


@dataclass(frozen=True)
class Workload:
    build: Callable
    warmup: Callable | None = None   # None: one untimed full round


WORKLOADS = {
    "spectrum": Workload(_spectrum_queries, _spectrum_warmup),
    "evaluate": Workload(_evaluate_queries),
    "pointwise": Workload(_pointwise_queries),
    "verify": Workload(_verify_queries),
}


def build(api, workload: str, seed: int):
    """Systems, constants and inputs of one workload: the set-up that
    setup_s times."""
    systems = catalogue(api)
    wl = WORKLOADS[workload]
    return systems, wl.build(api, systems, seed)
