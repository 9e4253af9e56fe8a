"""Benchmark of affine_spectra: four workloads, checked against independent
references.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload once, seed 0
    python3 bench/run.py --compare            # two sets of ten runs, agreement

One run: the workload runs in a fresh, single-threaded interpreter
(worker.py), which sets up, warms up, times whole rounds of queries and
checks every distinct output; set-up alone is timed in SETUP_SAMPLES more
fresh interpreters, half before the worker and half after.  The last line
of stdout is the result as one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics of BENCHMARK.json, or with --trace 1
its per-layer metrics).  The traced run also writes its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 8
RUN_DEADLINE_S = 170.0      # a run must end within 180 s
# glibc otherwise raises its mmap threshold as large arrays are freed, and
# later 32-MB Monte Carlo arrays then come from a fragmenting heap: peak RSS
# crept by 15-MB steps with the number of rounds.  Fixed thresholds keep
# arrays over 1 MiB mapped and unmapped; those below stay on the heap, as
# they would after glibc's own adjustment.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(2 << 20)}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("spectrum", "evaluate", "pointwise", "verify")
P90_MIN_QUERIES = 100       # below this a 90th percentile is no tail
RUNS_PER_SET = 10           # --compare; the bounds were measured on this many


class RunError(RuntimeError):
    pass


def _config() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("AFFINE_SPECTRA_THREADS", None)
    env.pop("PYTHONPATH", None)     # worker.py puts this checkout's src/ first
    env.update({name: "1" for name in THREAD_VARS})
    env.update(MALLOC_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args: list[str], deadline: float, *, setup_only: bool):
    """Run worker.py; returns (seconds until its "ready" line, stdout lines
    after it).  The child is killed and reaped if it outlives the deadline."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    ready = None
    data = {proc.stdout: b"", proc.stderr: b""}
    pending = [proc.stdout, proc.stderr]
    try:
        while pending:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RunError(f"worker {' '.join(args)} passed its deadline")
            readable, _, _ = select.select(pending, [], [], left)
            for stream in readable:
                chunk = os.read(stream.fileno(), 1 << 16)
                if not chunk:
                    pending.remove(stream)
                    continue
                data[stream] += chunk
                if ready is None and data[proc.stdout].startswith(b"ready\n"):
                    ready = time.perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if proc.returncode != 0 or ready is None:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}: "
                       + data[proc.stderr].decode().strip()[-2000:])
    lines = data[proc.stdout].decode().splitlines()[1:]
    if not setup_only and not lines:
        raise RunError(f"worker {' '.join(args)} printed no result")
    return ready, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up samples, then the timed worker.  Returns the result
    object of the last stdout line plus a `detail` entry for people."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]

    def setup_samples(n):
        return [_worker(base + ["--setup-only"], deadline, setup_only=True)[0]
                for _ in range(n)]

    args = list(base)
    if trace:
        OUT.mkdir(exist_ok=True)
        args += ["--trace", "--trace-file",
                 str(OUT / f"trace-{workload}-seed{seed}.csv")]
    # half the set-up samples before the timed worker and half after, so
    # the median spans the run and not one moment of the machine's load;
    # a traced run reports no set-up time
    samples = 0 if trace else SETUP_SAMPLES
    setups = setup_samples(samples // 2)
    _, lines = _worker(args, deadline, setup_only=False)
    setups += setup_samples(samples - samples // 2)
    raw = json.loads(lines[-1])

    cfg = _config()
    query_ns = raw["query_ns"]
    if trace:
        wanted, source = cfg["per_layer"], raw["layer"]
    else:
        wanted, source = cfg["end_to_end"], {
            "setup_s": statistics.median(setups),
            "work_per_s": raw["units_per_round"] / (raw["round_ns"] / 1e9),
            "query_p50_ms": statistics.median(raw["query_best_ns"]) / 1e6,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    detail = {"workload": workload, "seed": seed, "rounds": raw["rounds"],
              "queries": len(query_ns), "setup_samples_s": setups,
              "failures": raw["failures"],
              "unexpected_failures": raw["unexpected_failures"]}
    if len(query_ns) >= P90_MIN_QUERIES:
        detail["query_p90_ms"] = statistics.quantiles(query_ns, n=10)[-1] / 1e6
    return {"correct": not raw["unexpected_failures"],
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics, "detail": detail}


def _print_result(res: dict) -> None:
    d = res["detail"]
    print(f"# {d['workload']} seed {d['seed']}: {d['rounds']} round(s), "
          f"{res['attempted']} attempted, {res['failed']} failed")
    for name, m in res["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if "query_p90_ms" in d:
        print(f"#   query_p90_ms = {d['query_p90_ms']:.6g} ms "
              f"(over {d['queries']} queries)")
    for label, reason in d["failures"].items():
        print(f"#   failed: {label}: {reason}")


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(workloads, seconds: float) -> bool:
    """Two sets of RUNS_PER_SET runs each (seeds 1..10, then 101..110).
    Every run must check out correct.  Each end-to-end metric agrees when
    both sets' quartile spreads (all but setup_s) stay within its bound and
    the second median is not worse than the first by more than the bound;
    failed/attempted must be equal."""
    cfg = _config()
    ok = True
    for wl in workloads:
        sets = []
        for offset in (0, 100):
            results = []
            for seed in range(offset + 1, offset + RUNS_PER_SET + 1):
                res = run_workload(wl, seed, seconds, trace=False)
                _print_result(res)
                if not res["correct"]:
                    ok = False
                    print(f"{wl}: seed {seed} INCORRECT: "
                          + ", ".join(res["detail"]["unexpected_failures"]))
                results.append(res)
            sets.append(results)
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        same_share = len(shares[0] | shares[1]) == 1
        ok &= same_share
        print(f"{wl}: failed share {sorted(shares[0] | shares[1])} "
              f"{'same' if same_share else 'DIFFERS'}")
        for m in cfg["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spreads = (_spread(a), _spread(b))
            good = worse <= bound and (name == "setup_s"
                                       or max(spreads) <= bound)
            ok &= good
            print(f"{wl}: {name} medians {ma:.6g} / {mb:.6g} {m['unit']}, "
                  f"worse by {worse:+.3f}, spreads {spreads[0]:.3f} / "
                  f"{spreads[1]:.3f}, bound {bound}: "
                  f"{'agree' if good else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", action="store_true",
                    help="run two sets of runs and report whether they agree")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "affine_spectra" / "__init__.py").is_file():
        print(f"bench: no affine_spectra package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        cfg = _config()
        seconds = args.seconds if args.seconds is not None else cfg["run_seconds"]
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        if args.compare:
            return 0 if compare(names, seconds) else 1
        if args.workload:
            res = run_workload(args.workload, args.seed, seconds, bool(args.trace))
            _print_result(res)
            OUT.mkdir(exist_ok=True)
            (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(res, indent=1) + "\n", encoding="utf-8")
            res.pop("detail")
            print(json.dumps(res))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for wl in names:
            res = run_workload(wl, args.seed, seconds, bool(args.trace))
            _print_result(res)
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                total["metrics"][f"{wl}.{name}"] = m
        print(json.dumps(total))
        return 0
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
