"""The systems the workloads run on.

Random systems are drawn once from SYSTEM_SEED, not from a run's --seed:
their depths and root-solver paths set the cost of every query, so drawing
them per run would make the cost of a run depend on its seed.  A run's seed
draws the points, codings, targets and check subsets instead.
"""

from __future__ import annotations

import numpy as np

SYSTEM_SEED = 1907


def random_polygon(api, rng, r: int, *, zero_branch: bool = False):
    """Random pinned system: widths >= 0.05/(1 + 0.05 r), ordinates in
    [-1, 2], 0.05 <= |d_k| <= 0.9.  With zero_branch one interior branch
    gets d = 0 (needs r >= 3)."""
    gaps = rng.dirichlet(np.ones(r))
    gaps = (gaps + 0.05) / (1.0 + 0.05 * r)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs[-1] = 1.0
    ys = np.concatenate([[0.0], rng.uniform(-1.0, 2.0, r - 1), [1.0]])
    d = rng.uniform(0.05, 0.9, r) * rng.choice([-1.0, 1.0], r)
    if zero_branch:
        d[int(rng.integers(1, r - 1))] = 0.0
    return api.build_from_polygon(
        [(float(x), float(y)) for x, y in zip(xs, ys)], tuple(float(v) for v in d))


def random_two_branch_contractive(api, rng):
    """r = 2 with |d_k| < a_k on both branches (the overlap regime when the
    overlap set is nonempty)."""
    a1 = float(rng.uniform(0.15, 0.85))
    a = (a1, 1.0 - a1)
    y1 = float(rng.uniform(-1.0, 2.0))
    d = tuple(float(rng.uniform(0.02, 0.95) * ak * rng.choice([-1.0, 1.0]))
              for ak in a)
    return api.build_from_polygon([(0.0, 0.0), (a1, y1), (1.0, 1.0)], d)


def catalogue(api) -> dict:
    """Every system any workload uses, by name."""
    rng = np.random.default_rng(SYSTEM_SEED)
    out = {name: api.parse_preset(name) for name in (
        "takagi:0.5", "takagi:2", "riesz-nagy:0.3", "okamoto:0.6",
        "okamoto:5/6", "skew-takagi:0.3,0.5,0.25", "skew-takagi:0.4,1,0.3")}
    for r in (2, 3, 4):
        out[f"random-r{r}"] = random_polygon(api, rng, r)
    out["random-zero"] = random_polygon(api, rng, 4, zero_branch=True)
    out["random-caseB"] = random_two_branch_contractive(api, rng)
    return out
