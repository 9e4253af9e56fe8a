"""Record one benchmark run of every workload as BENCH_<N>.json.

    python3 tools/bench_record.py N [--seconds S] [--checkout DIR] [--out PATH]

For each workload W this runs, in the checkout (default: this one) and
with the interpreter that runs this script,

    python3 bench/run.py --workload W --seed 0 --seconds S --trace 0

with S = 15 unless given, and writes one JSON object to PATH (default:
BENCH_<N>.json at the root of this repository): the checkout's git SHA and
whether its tracked files differ from it, the Python and numpy versions,
the CPU model and count, the PYTHONDONTWRITEBYTECODE setting, and per
workload its end-to-end metrics, its failed and attempted query counts and
whether every check held.  N numbers the record: each change to the code
commits its own, made on the same machine as the one before it, and quotes
the deltas.  A run that fails to finish stops the record with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("spectrum", "evaluate", "pointwise", "verify")
SEED = 0
SECONDS = 15.0


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(checkout: Path) -> dict:
    """What the record was made of and on."""
    return {
        "git_sha": _git(checkout, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(checkout, "status", "--porcelain",
                               "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def workload_entry(stdout: str) -> dict:
    """A workload's entry from the stdout of one bench/run.py run, whose
    last line is its result object."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "metrics": result["metrics"]}


def write_record(path: Path, meta: dict, seconds: float,
                 entries: dict) -> dict:
    """Write the record of the workloads' entries to path; returns it."""
    record = {**meta, "seed": SEED, "seconds": seconds,
              "workloads": entries}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def run_workload(checkout: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: "
                           + done.stderr.strip()[-2000:])
    return workload_entry(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("number", type=int, help="N of BENCH_<N>.json")
    ap.add_argument("--seconds", type=float, default=SECONDS)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the checkout whose bench/run.py runs")
    ap.add_argument("--out", type=Path, help="default: BENCH_<N>.json here")
    args = ap.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    checkout = args.checkout.resolve()
    try:
        meta = machine(checkout)
        entries = {w: run_workload(checkout, w, args.seconds)
                   for w in WORKLOADS}
    except (RuntimeError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError, IndexError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    write_record(out, meta, args.seconds, entries)
    for name, entry in entries.items():
        print(f"{name}: correct {entry['correct']}, failed "
              f"{entry['failed']} of {entry['attempted']}, " + ", ".join(
                  f"{k} {m['value']:.6g} {m['unit']}"
                  for k, m in entry["metrics"].items()))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
