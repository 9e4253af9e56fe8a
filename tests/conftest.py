import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from affine_spectra import build_from_polygon, compute_constants, parse_preset

# The independent Fraction and mpmath references of bench/reference.py are
# shared with the tests, which import them as `reference`.
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

# For a failing property Hypothesis writes an explicit-example patch through
# libcst, whose use of mypy_extensions.TypedDict warns.  Under
# -W error::DeprecationWarning that warning becomes an INTERNALERROR that
# hides the failure, so the patch writer is imported here, once, with the
# warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:         # no libcst: Hypothesis writes no patches
        pass

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def make_system():
    """Cached (system, constants) pairs keyed by preset string."""
    cache = {}

    def get(name):
        if name not in cache:
            system = parse_preset(name)
            cache[name] = (system, compute_constants(system))
        return cache[name]

    return get


def random_polygon_system(rng, r=None, allow_zero=False):
    """Valid random system with widths >= 0.05 and |d| <= 0.9."""
    if r is None:
        r = int(rng.integers(2, 5))
    gaps = rng.dirichlet(np.ones(r))
    gaps = (gaps + 0.05) / (1.0 + 0.05 * r)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs[-1] = 1.0
    ys = np.concatenate([[0.0], rng.uniform(-1.0, 2.0, r - 1), [1.0]])
    d = rng.uniform(0.05, 0.9, r) * rng.choice([-1.0, 1.0], r)
    if allow_zero and r >= 3 and rng.random() < 0.5:
        d[rng.integers(0, r)] = 0.0
    vertices = [(float(x), float(y)) for x, y in zip(xs, ys)]
    return build_from_polygon(vertices, tuple(d))


def tied_ratio_system(rng, r=None):
    """Equal widths 1/r (as the polygon k/r stores them) and equal |d_k|
    with random signs and ordinates, so the ratios log|d_k| / log a_k tie.
    |d| is drawn below 1/r, where the system can be Case B, at 1/r, or
    above it."""
    if r is None:
        r = int(rng.integers(2, 5))
    ys = [0.0, *rng.uniform(-1.0, 2.0, r - 1), 1.0]
    size = (rng.uniform(0.05, 1.0 / r), 1.0 / r,
            rng.uniform(1.0 / r, 0.9))[int(rng.integers(0, 3))]
    d = size * rng.choice([-1.0, 1.0], r)
    return build_from_polygon([(k / r, float(y)) for k, y in enumerate(ys)],
                              tuple(d))


def random_two_branch_contractive(rng):
    """r = 2 with |d_k| < a_k on both branches."""
    a1 = float(rng.uniform(0.15, 0.85))
    a = (a1, 1.0 - a1)
    y1 = float(rng.uniform(-1.0, 2.0))
    d = tuple(float(rng.uniform(0.02, 0.95) * ak * rng.choice([-1.0, 1.0]))
              for ak in a)
    return build_from_polygon([(0.0, 0.0), (a1, y1), (1.0, 1.0)], d)


def assert_ordinary_records(obj):
    """obj, and every record among its fields, recursively, behaves like
    its twin from the dataclass constructor: equal, with the same hash,
    repr, vars, asdict and dataclasses.replace, and frozen.  Returns the
    record types seen."""
    if not dataclasses.is_dataclass(obj):
        return set()
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    twin = type(obj)(**fields)
    assert obj == twin and hash(obj) == hash(twin)
    assert repr(obj) == repr(twin)
    # every field is set on the instance itself, not read from the class
    assert {name: vars(obj)[name] for name in fields} == vars(twin)
    assert dataclasses.asdict(obj) == dataclasses.asdict(twin)
    assert dataclasses.replace(obj) == dataclasses.replace(obj, **fields) == twin
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, next(iter(fields)), None)
    seen = {type(obj)}
    for value in fields.values():
        seen |= assert_ordinary_records(value)
    return seen
