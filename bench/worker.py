"""One workload in one process: set up, warm up, time whole rounds, check.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]
    python3 bench/worker.py --workload NAME --seed N --seconds S --setup-only

Prints "ready" once set-up is done (run.py times set-up up to that line),
and with --setup-only exits there; the checks' references are imported only
after it.  Otherwise the last line is one JSON
object with the raw measurements, which run.py turns into metrics.  Start
it through run.py, which gives it a clean single-threaded environment.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 2      # untimed runs: every query has a second time to take the best of


def _import_library():
    """The package under src/ of this checkout, never an installed copy."""
    src = HERE.parent / "src"
    if not (src / "affine_spectra" / "__init__.py").is_file():
        raise SystemExit(f"no affine_spectra package under {src}")
    sys.path.insert(0, str(src))
    import affine_spectra
    if Path(affine_spectra.__file__).resolve().parent != src / "affine_spectra":
        raise SystemExit(f"imported {affine_spectra.__file__}, not the checkout's")
    import affine_spectra.cli  # noqa: F401  (part of what set-up costs)
    return affine_spectra


def _timed_rounds(queries, seconds: float, state: dict, tracer=None,
                  min_rounds: int = 1):
    """Whole rounds over the query list until `seconds` have passed and at
    least `min_rounds` are done.  Returns per-query lists of nanoseconds."""
    clock = time.perf_counter_ns
    times = [[] for _ in queries]
    begin = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - begin < seconds:
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.query = state["qid"]
            t0 = clock()
            result = q.run()
            t1 = clock()
            times[i].append(t1 - t0)
            reduced = q.reduce(result)
            del result
            state["units"] += q.count(reduced)
            state["attempted"] += 1
            state["qid"] += 1
            first = state["first"]
            if i not in first:
                first[i] = reduced
            elif reduced != first[i]:
                state["mismatch"][i] = state["mismatch"].get(i, 0) + 1
            state["per_query"][i] = state["per_query"].get(i, 0) + 1
        rounds += 1
    return times, rounds


def _best_ns(times) -> list[int]:
    """Each query's fastest time in the run.  The machine's speed swings by
    a quarter over tens of seconds; a query's fastest time is its cost in the
    least loaded moments, which a code change moves and the swings do not."""
    return [min(t) for t in times]


def _round_ns(times) -> float:
    """Time of one round: the sum of the queries' fastest times."""
    return float(sum(_best_ns(times)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    api = _import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    systems, queries = workloads.build(api, args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.uninstall()     # set-up spans stay, with query id -1

    wl = workloads.WORKLOADS[args.workload]
    if wl.warmup is not None:
        wl.warmup(api, systems)
    else:
        for q in queries:
            q.reduce(q.run())

    state = {"units": 0, "attempted": 0, "qid": 0, "first": {},
             "mismatch": {}, "per_query": {}}
    if tracer is None:
        times, rounds = _timed_rounds(queries, args.seconds, state,
                                      min_rounds=MIN_ROUNDS)
    else:
        # untraced and traced rounds alternate, so the machine's drift falls
        # on both; the ratio of their round times is the tracing overhead
        times = [[] for _ in queries]
        traced = [[] for _ in queries]
        rounds = traced_rounds = traced_units = 0
        begin = time.perf_counter()
        while rounds == 0 or time.perf_counter() - begin < args.seconds:
            plain, n = _timed_rounds(queries, 0, state)
            rounds += n
            before = state["units"]
            tracer.install()
            with_spans, n = _timed_rounds(queries, 0, state, tracer)
            tracer.uninstall()
            traced_rounds += n
            traced_units += state["units"] - before
            for i in range(len(queries)):
                times[i] += plain[i]
                traced[i] += with_spans[i]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, outside the timed region
    failed = 0
    reasons = {}
    unexpected = []     # queries with a failure outside the kept faults
    for i, q in enumerate(queries):
        found = q.check(state["first"][i])
        if found:
            failed += state["per_query"][i]
        elif i in state["mismatch"]:
            failed += state["mismatch"][i]
            found = [workloads.Failure("output changed between rounds")]
        if found:
            reasons[q.label] = "; ".join(f.reason for f in found)
            if not all(f.kept for f in found):
                unexpected.append(q.label)

    flat = sorted(t for per in times for t in per)
    out = {
        "rounds": rounds,
        "attempted": state["attempted"],
        "failed": failed,
        "units_per_round": state["units"] / state["attempted"] * len(queries),
        "round_ns": _round_ns(times),
        "query_best_ns": _best_ns(times),
        "query_ns": flat,
        "peak_rss_mb": peak_rss_mb,
        "failures": reasons,
        "unexpected_failures": unexpected,
    }
    if tracer is not None:
        rows = traced_units if args.workload == "spectrum" else 0
        layer = tracing.layer_metrics(tracer.ordered(), rows=rows,
                                      queries=traced_rounds * len(queries))
        layer["trace.overhead_pct"] = 100.0 * (_round_ns(traced) / out["round_ns"] - 1.0)
        out["layer"] = layer
        if args.trace_file:
            tracer.write(args.trace_file)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
