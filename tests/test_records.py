"""The frozen records of the one-point paths come from one shared
constructor (`_records.record`), which skips the dataclass __init__; each
must still behave like the twin that constructor builds."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from affine_spectra import (
    BasicInterval,
    Coding,
    CutPointQuery,
    CutPointResult,
    EvalResult,
    ExponentReport,
    GammaBundle,
    PointCoding,
    SideExponent,
    basic_interval,
    coding_of_point,
    compute_constants,
    cut_point_exponents,
    evaluate,
    exponent_report,
    gammas,
    holder_left,
    holder_right,
    in_T,
    project,
)
from conftest import assert_ordinary_records, random_polygon_system

ONE_POINT_RECORDS = {BasicInterval, Coding, CutPointQuery, CutPointResult,
                     EvalResult, ExponentReport, GammaBundle, PointCoding,
                     SideExponent}


def _one_point_results(system, constants, rng):
    """A result from every constructor call of the one-point paths that the
    system reaches."""
    r = system.r
    x = float(rng.uniform(0.001, 0.999))
    stem = tuple(int(v) for v in rng.integers(1, r + 1, 2)) + (1,)
    vertex = project(system, Coding(prefix=stem, period=(r,)), exact=True)
    plain = Coding(prefix=(1, 2), period=(2, 1))
    long = Coding(prefix=tuple(int(v) for v in rng.integers(1, r + 1, 300)))
    out = [evaluate(system, v, 1e-12) for v in (x, system.xs[1], 0.0)]
    out += [coding_of_point(system, v, 40) for v in (x, vertex)]
    out += [basic_interval(system, (1, r)), in_T(system, vertex),
            in_T(system, 0.0), in_T(system, 1.0),
            in_T(system, Coding(prefix=stem, period=(r,)))]
    out += [cut_point_exponents(system, constants, vertex)]
    for coding in (plain, Coding(prefix=long.prefix[:40]), long,
                   Coding(period=(1,)), Coding(period=(r,)),
                   Coding(prefix=stem, period=(r,))):
        out.append(exponent_report(system, constants, coding))
    if not constants.index_zero:
        out += [gammas(system, constants, long, side="left"),
                holder_right(system, constants, plain),
                holder_left(system, constants, long)]
    return out


def test_one_point_records_are_ordinary_records(make_system):
    seen = set()
    rng = np.random.default_rng(0)
    for name in ("riesz-nagy:0.3", "okamoto:0.6", "okamoto:0.5",
                 "skew-takagi:0.3,0.5,0.25", "takagi:0.5"):
        system, constants = make_system(name)
        for result in _one_point_results(system, constants, rng):
            seen |= assert_ordinary_records(result)
    assert seen == ONE_POINT_RECORDS


@given(seed=st.integers(0, 10 ** 9))
def test_records_of_random_systems_are_ordinary(seed):
    rng = np.random.default_rng(seed)
    system = random_polygon_system(rng, allow_zero=True)
    for result in _one_point_results(system, compute_constants(system), rng):
        assert assert_ordinary_records(result) <= ONE_POINT_RECORDS
