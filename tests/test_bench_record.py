"""tools/bench_record.py: the writer of BENCH_<N>.json, fed a canned run."""

import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))

import bench_record  # noqa: E402

# the stdout of one bench/run.py run: comment lines, then the result object
CANNED = """\
# pointwise seed 0: 2 round(s), 80 attempted, 16 failed
#   work_per_s = 10508 1/s
{"correct": true, "attempted": 80, "failed": 16, "metrics": {"setup_s": \
{"value": 0.2, "unit": "s"}, "work_per_s": {"value": 10508.0, "unit": "1/s"}, \
"query_p50_ms": {"value": 0.104, "unit": "ms"}, "peak_rss_mb": \
{"value": 40.06, "unit": "MB"}}}
"""


def test_record_holds_the_run_and_the_machine(tmp_path, monkeypatch):
    entry = bench_record.workload_entry(CANNED)
    assert entry == {
        "correct": True, "failed": 16, "attempted": 80,
        "metrics": {"setup_s": {"value": 0.2, "unit": "s"},
                    "work_per_s": {"value": 10508.0, "unit": "1/s"},
                    "query_p50_ms": {"value": 0.104, "unit": "ms"},
                    "peak_rss_mb": {"value": 40.06, "unit": "MB"}}}
    # git answers as in a clean checkout
    monkeypatch.setattr(bench_record, "_git", lambda checkout, *args:
                        "0" * 40 if args[0] == "rev-parse" else "")
    meta = bench_record.machine(bench_record.ROOT)
    assert set(meta) == {"git_sha", "git_dirty", "python", "numpy",
                         "cpu_model", "cpu_count", "PYTHONDONTWRITEBYTECODE"}
    assert meta["git_sha"] == "0" * 40 and meta["git_dirty"] is False
    path = tmp_path / "BENCH_0.json"
    record = bench_record.write_record(path, meta, 1.0,
                                       {"pointwise": entry})
    assert json.loads(path.read_text(encoding="utf-8")) == record
    assert record == {**meta, "seed": 0, "seconds": 1.0,
                      "workloads": {"pointwise": entry}}
