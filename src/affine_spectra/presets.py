"""Named system families and JSON (de)serialisation.

Preset strings follow "name:arg1,arg2,...".  Arguments parse as floats or
as exact fractions "p/q".
"""

from __future__ import annotations

from fractions import Fraction

from .ifs import SelfAffineSystem, build_from_polygon, from_branches


def _takagi(w: float) -> SelfAffineSystem:
    # two halves, shears +-1/2, contraction 2^-w; the w = 2 member is the
    # parabola 2x(1-x)
    if not w > 0.0:
        raise ValueError("takagi needs w > 0")
    dk = 2.0 ** (-w)
    return build_from_polygon([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)], [dk, dk])


def _riesz_nagy(a: float) -> SelfAffineSystem:
    # strictly increasing singular function (for a != 1/2)
    if not 0.0 < a < 1.0:
        raise ValueError("riesz-nagy needs a in (0, 1)")
    return build_from_polygon([(0.0, 0.0), (0.5, a), (1.0, 1.0)], [a, 1.0 - a])


def _okamoto(a: float) -> SelfAffineSystem:
    # thirds family; a = 1/2 is the Cantor function (middle branch flat),
    # a = 5/6 the continuous nowhere-differentiable member
    if not 0.0 < a < 1.0:
        raise ValueError("okamoto needs a in (0, 1)")
    return build_from_polygon(
        [(0.0, 0.0), (1.0 / 3.0, a), (2.0 / 3.0, 1.0 - a), (1.0, 1.0)],
        [a, 1.0 - 2.0 * a, a])


def _skew_takagi(a: float, h: float, d: float) -> SelfAffineSystem:
    # tent of height h with break at a, equal contractions d
    if not 0.0 < a < 1.0:
        raise ValueError("skew-takagi needs a in (0, 1)")
    if h == 0.0:
        raise ValueError("skew-takagi needs h != 0")
    return build_from_polygon([(0.0, 0.0), (a, h), (1.0, 0.0)], [d, d])


PRESETS = {
    "takagi": (_takagi, 1),
    "riesz-nagy": (_riesz_nagy, 1),
    "okamoto": (_okamoto, 1),
    "skew-takagi": (_skew_takagi, 3),
}


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def parse_preset(spec: str) -> SelfAffineSystem:
    """Build a system from a preset string like "skew-takagi:0.3,0.5,0.25"."""
    name, sep, argtext = spec.partition(":")
    name = name.strip()
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    builder, nargs = PRESETS[name]
    if not sep:
        raise ValueError(f"preset {name!r} needs {nargs} argument(s)")
    args = [_parse_number(part) for part in argtext.split(",")]
    if len(args) != nargs:
        raise ValueError(f"preset {name!r} needs {nargs} argument(s), got {len(args)}")
    return builder(*args)


def system_from_dict(data: dict) -> SelfAffineSystem:
    """Load a system from its JSON form.

    Accepts {"vertices": [[x, y], ...], "d": [...]}, the form
    system_to_dict writes, or {"branches": [{"a":..., "b":..., "c":...,
    "d":..., "e":...}, ...]}, which goes through from_branches.  A
    "branches" key beside "vertices", as older files carry, is ignored.
    """
    if "vertices" in data:
        if "d" not in data:
            raise ValueError('vertex form needs a "d" array')
        return build_from_polygon(data["vertices"], data["d"])
    if "branches" in data:
        rows = []
        for row in data["branches"]:
            rows.append((row["a"], row["b"], row["c"], row["d"], row["e"]))
        return from_branches(rows)
    raise ValueError('system JSON needs "vertices" or "branches"')


def system_to_dict(system: SelfAffineSystem) -> dict:
    """The JSON form of a system: its vertices and d."""
    return {"vertices": [[x, y] for x, y in system.vertices],
            "d": list(system.d)}

