"""One Newton solver for the unit sums behind the system constants.

s_hat, s_min, s_max and the Case B slope sigma (ifs.compute_constants) each
solve sum_k exp(s l_k) = 1 with every l_k < 0, an equation of the form of
beta(q)'s pressure equation at q = 0.  unit_sum_root takes
spectrum._pressure's monotone log-space Newton step in plain floats: on one
equation numpy's per-call overhead would cost several times the solve, and
ifs stays free of numpy.
"""

from __future__ import annotations

import math

from . import errors

_TOL = 1e-14    # relative Newton step
_CAP = 100      # Newton steps


def unit_sum_root(logs) -> float:
    """s with sum_k exp(s l_k) = 1, for a sequence of logs l_k < 0.

    Newton's method on F(s) = log sum_k exp(s l_k) from s = 0, where
    F = log(len(logs)) >= 0.  F is convex and decreasing, so each tangent
    root stays left of the root and the iterates rise monotonically to it;
    a sum that rounds below 1 counts as 1, so no step is negative.  Far
    left of the root the sum grows like an exponential while its log grows
    nearly like a line, on which a Newton step lands close to the root.
    One log gives s = 0 at once.  Stops on a step of at most 1e-14
    max(1, s); raises NonConvergence after 100 steps."""
    s = 0.0
    for _ in range(_CAP):
        w = [math.exp(s * lk) for lk in logs]
        total = math.fsum(w)
        step = (max(math.log(total), 0.0) * total
                / -math.fsum(wk * lk for wk, lk in zip(w, logs)))
        s += step
        if step <= _TOL * max(1.0, s):
            return s
    raise errors.NonConvergence(f"unit sum unsolved for logs {list(logs)}")
