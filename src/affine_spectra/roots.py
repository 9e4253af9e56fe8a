"""One Newton solver for every unit sum: the system constants and beta(q).

s_hat, s_min, s_max and the Case B slope sigma (ifs.compute_constants) each
solve sum_k exp(s l_k) = 1 with every l_k < 0, and the pressure beta(q)
(spectrum.beta) solves sum_k exp(q log|d_k| + s log a_k) = 1: one equation
sum_k exp(o_k + s l_k) = 1 with offsets o_k.  unit_sum_root takes a
monotone log-space Newton step in plain floats: on one equation numpy's
per-call overhead would cost several times the solve, and ifs stays free of
numpy.
"""

from __future__ import annotations

import math
from operator import mul

from . import errors

_TOL = 1e-14    # relative Newton step
_CAP = 100      # Newton steps


def unit_sum_root(logs, offsets=None) -> float:
    """s with sum_k exp(o_k + s l_k) = 1, for a sequence of logs l_k < 0
    and offsets o_k (all 0 by default).

    Newton's method on F(s) = log sum_k exp(o_k + s l_k) from
    s = max_k (-o_k / l_k), where one term is 1 and so F >= 0.  F is convex
    and decreasing, so each tangent root stays left of the root and the
    iterates rise monotonically to it; an excess over 1 that rounds below 0
    counts as 0, so no step is negative.  Far left of the root the sum
    grows like an exponential while its log grows nearly like a line, on
    which a Newton step lands close to the root.  With zero offsets one
    log gives s = 0 at once.  Stops on a step of at most 1e-14 max(1, |s|);
    raises NonConvergence after 100 steps."""
    if offsets is None and len(logs) == 1:
        return 0.0
    s = 0.0 if offsets is None else max(
        -ok / lk for ok, lk in zip(offsets, logs))
    exp, expm1, fsum = math.exp, math.expm1, math.fsum
    for _ in range(_CAP):
        # the constants' offset-free solves skip a zip and an add per term:
        # zero offsets give the same bits, but cost a compute_constants
        # call 13% more
        x = ([s * lk for lk in logs] if offsets is None else
             [ok + s * lk for ok, lk in zip(offsets, logs)])
        w = [exp(xk) for xk in x]
        slope = fsum(map(mul, w, logs))
        # F = log1p of the sum's excess over 1, with the largest term's
        # share taken by expm1: near the root the sum is near 1, and log of
        # the rounded sum would lose the digits that fix s when that term
        # is itself near 1 (a log l_k near 0, as for sigma at |d_k| ~ a_k).
        # fsum rounds the exact sum, so the swap in place changes no bit
        j = x.index(max(x))
        w[j] = expm1(x[j])
        excess = fsum(w)
        step = max(math.log1p(excess), 0.0) * (1.0 + excess) / -slope
        s += step
        if step <= _TOL * max(1.0, abs(s)):
            return s
    raise errors.NonConvergence(
        f"unit sum unsolved for logs {list(logs)}, offsets {offsets}")
