"""Bracketed bisection for strictly monotone scalar equations.

The system constants s_hat, s_min, s_max and sigma (ifs.compute_constants)
each solve f(t) = 0 for a strictly monotone f, once per system.  Bisection
is slower than Newton but has no conditioning failure modes; brackets are
expanded geometrically until they straddle the root.  beta(q) and q*, which
a spectrum table needs at hundreds of points, are solved in the spectrum
module instead, by bracketed Newton iterations over whole arrays.
"""

from __future__ import annotations

from collections.abc import Callable


def solve_decreasing(f: Callable[[float], float], lo: float = 0.0,
                     hi: float = 1.0, *, rtol: float = 1e-12) -> float:
    """Root of a strictly decreasing f, expanding [lo, hi] as needed.

    Final bracket width is below rtol * max(1, |root|).
    """
    flo, fhi = f(lo), f(hi)
    step = max(1.0, hi - lo)
    while flo < 0.0:
        # root lies below lo
        hi, fhi = lo, flo
        lo -= step
        step *= 2.0
        flo = f(lo)
        if step > 1e18:
            raise ArithmeticError("bracket expansion failed (decreasing)")
    while fhi > 0.0:
        lo, flo = hi, fhi
        hi += step
        step *= 2.0
        fhi = f(hi)
        if step > 1e18:
            raise ArithmeticError("bracket expansion failed (decreasing)")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * max(1.0, abs(mid)):
            break
        fm = f(mid)
        if fm > 0.0:
            lo = mid
        elif fm < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)
