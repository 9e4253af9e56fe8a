"""Spans around the library's layer entry points, recorded from outside.

`Tracer.install` replaces every public function of the layer modules with a
recording wrapper, in every module that holds a reference to it.  That
covers calls from the benchmark, calls from one layer into another (for
example the `solve_decreasing` that `affine_spectra.spectrum` looks up in
its own namespace) and calls within a layer (`q_star` calling
`alpha_of_q`).  The source of the library is not touched; `uninstall`
puts the original functions back.
"""

from __future__ import annotations

import csv
import importlib
import time
import types

LAYERS = ("ifs", "roots", "coding", "evaluate", "exponent", "spectrum", "oracle")
_HOLDERS = LAYERS + ("presets", "cli")

# span fields
ID, NAME, START, END, PARENT, QUERY, EXTRA = range(7)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        wrapped = getattr(obj, "__wrapped__", obj)   # lru_cache wrappers
        if (isinstance(wrapped, types.FunctionType)
                and wrapped.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Collects spans (id, name, start, end, parent id, query id, extra) in
    memory.

    A span is numbered when its call starts and stored as a tuple of atoms
    when it ends, so the garbage collector stops tracking it; a list per
    span would make every full collection walk all spans so far, which cost
    tens of percent on runs with many small calls.  `extra` carries a count
    measured where the work happens: evaluated points, digit steps and the
    deepest orbit for `evaluate_many`, function evaluations for
    `solve_decreasing`.
    """

    def __init__(self):
        self.package = importlib.import_module("affine_spectra")
        self.spans: list[tuple] = []
        self.query = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pkg = self.package.__name__
        holders = [self.package] + [importlib.import_module(f"{pkg}.{m}")
                                    for m in _HOLDERS]
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{pkg}.{layer}")
            for name, fn in _public_functions(module):
                originals[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patched.append((holder, name, obj))
                    setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, obj in reversed(self._patched):
            setattr(holder, name, obj)
        self._patched.clear()

    def ordered(self) -> list[tuple]:
        """Spans by id, so that a span's id is its index."""
        return sorted(self.spans)

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def enter():
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            return sid, parent

        if label == "roots.solve_decreasing":
            def wrapper(f, *args, **kwargs):
                calls = [0]

                def counted(t):
                    calls[0] += 1
                    return f(t)

                sid, parent = enter()
                start = clock()
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, label, start, end, parent, self.query,
                                  calls[0]))
        elif label == "evaluate.evaluate_many":
            def wrapper(*args, **kwargs):
                sid, parent = enter()
                start = clock()
                extra = None
                try:
                    out = fn(*args, **kwargs)
                    depths = out[2]
                    extra = (int(depths.size), int(depths.sum()),
                             int(depths.max()) if depths.size else 0)
                    return out
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, label, start, end, parent, self.query,
                                  extra))
        else:
            def wrapper(*args, **kwargs):
                sid, parent = enter()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, label, start, end, parent, self.query,
                                  None))
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent",
                          "query", "extra"])
            for s in self.ordered():
                extra = s[EXTRA]
                if isinstance(extra, tuple):
                    extra = "/".join(str(v) for v in extra)
                out.writerow([s[ID], s[NAME], s[START], s[END], s[PARENT],
                              s[QUERY], "" if extra is None else extra])


def _durations(spans):
    return [s[END] - s[START] for s in spans]


def _self_times(spans):
    """Span duration minus the part its direct children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _mean(values, scale=1.0):
    return sum(values) / len(values) / scale if values else 0.0


def layer_metrics(spans, *, rows: int, queries: int) -> dict[str, float]:
    """Per-layer metrics from spans ordered by id (`Tracer.ordered`).

    `rows` is the number of spectrum rows the traced queries produced and
    `queries` the number of traced queries.  A metric whose layer the
    workload does not reach reads 0.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
    selfs = _self_times(spans)

    def pick(name):
        return [spans[i] for i in by_name.get(name, [])]

    def mean_ms(name, scale=1e6):
        return _mean(_durations(pick(name)), scale)

    def under(i, prefix):
        """True when some ancestor of span i has a name starting with prefix."""
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME].startswith(prefix):
                return True
            p = spans[p][PARENT]
        return False

    out: dict[str, float] = {}
    out["ifs.compute_constants_ms"] = mean_ms("ifs.compute_constants")

    # roots and spectrum: only the solves made inside a spectrum table
    tables = by_name.get("spectrum.spectrum_table", [])
    solves = [i for i in by_name.get("roots.solve_decreasing", [])
              if under(i, "spectrum.spectrum_table")]
    out["roots.solves_per_row"] = len(solves) / rows if rows else 0.0
    out["roots.fevals_per_solve"] = _mean([spans[i][EXTRA] for i in solves])
    # self time: the bisection and the objective it evaluates, without the
    # spectrum functions an objective calls (q_star's objective solves beta)
    out["roots.busy_ms"] = (sum(selfs[i] for i in solves) / 1e6 / len(tables)
                            if tables else 0.0)
    out["spectrum.table_ms"] = mean_ms("spectrum.spectrum_table")
    spectrum_self = sum(selfs[i] for i, s in enumerate(spans)
                        if s[NAME].startswith("spectrum."))
    out["spectrum.self_ms"] = spectrum_self / 1e6 / len(tables) if tables else 0.0
    out["spectrum.q_star_per_row"] = (len(by_name.get("spectrum.q_star", []))
                                      / rows if rows else 0.0)

    # evaluate: every vectorised call the workload makes
    evals = pick("evaluate.evaluate_many")
    points = sum(s[EXTRA][0] for s in evals)
    steps = sum(s[EXTRA][1] for s in evals)
    busy = sum(_durations(evals))
    out["evaluate.ns_per_point"] = busy / points if points else 0.0
    out["evaluate.ns_per_point_step"] = busy / steps if steps else 0.0
    out["evaluate.depth_mean"] = steps / points if points else 0.0
    out["evaluate.passes_per_call"] = _mean([s[EXTRA][2] for s in evals])

    # pointwise entry points
    out["evaluate.scalar_us"] = mean_ms("evaluate.evaluate", 1e3)
    out["coding.coding_of_point_us"] = mean_ms("coding.coding_of_point", 1e3)
    out["coding.in_T_us"] = mean_ms("coding.in_T", 1e3)
    out["exponent.exponent_report_us"] = mean_ms("exponent.exponent_report", 1e3)
    out["exponent.cut_point_exponents_us"] = mean_ms(
        "exponent.cut_point_exponents", 1e3)

    # oracle
    estimates = by_name.get("oracle.estimate_exponent", [])
    out["oracle.estimate_exponent_ms"] = mean_ms("oracle.estimate_exponent")
    out["oracle.estimate_exponent_self_ms"] = _mean(
        [selfs[i] for i in estimates], 1e6)
    inner = [spans[i] for i in by_name.get("evaluate.evaluate_many", [])
             if under(i, "oracle.estimate_exponent")]
    inner_points = sum(s[EXTRA][0] for s in inner)
    out["oracle.eval_points_per_estimate"] = (inner_points / len(estimates)
                                              if estimates else 0.0)
    out["oracle.eval_depth_mean"] = (sum(s[EXTRA][1] for s in inner) / inner_points
                                     if inner_points else 0.0)
    out["oracle.check_derivative_ms"] = mean_ms("oracle.check_derivative")
    out["oracle.ae_sample_ms"] = mean_ms("oracle.ae_exponent_sample")
    out["coding.generate_run_structured_ms"] = mean_ms(
        "coding.generate_run_structured")
    out["exponent.gammas_ms"] = mean_ms("exponent.gammas")
    out["trace.spans_per_query"] = len(spans) / queries if queries else 0.0
    return out
