"""tools/bench_record.py on a synthetic parent and change result set."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def result_set(revision, cold, seed=7):
    machine = {"nproc": 2, "cpu": "test cpu", "python": "3.11.7",
               "git_revision": revision, "src_sha256": revision * 2,
               "load1_at_start": 0.5}
    metrics = {"setup_s": 0.08, "cold_s": cold, "warm_s": 0.04,
               "peak_rss_mib": 24.0}
    return {
        "workload": "scan-6000", "seed": seed, "seconds": 28.0, "trace": 0,
        "machine": machine, "attempted": 58, "failed": 0,
        "end_to_end": {
            name: {"median": v, "q1": v, "q3": v, "n": 3}
            for name, v in metrics.items()
        },
        "samples": [], "setup_s": [],
    }


def run(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )


def test_two_result_sets_make_one_record(tmp_path):
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(result_set("aaaa", 0.34)))
    change.write_text(json.dumps(result_set("bbbb", 0.22)))
    out = tmp_path / "BENCH_test.json"
    proc = run(tmp_path, "--out", out, "--parent", parent, "--change", change)
    assert proc.returncode == 0, proc.stderr
    scan = json.loads(out.read_text())["workloads"]["scan-6000"]
    assert scan["parent"]["cold_s"] == {"median": 0.34, "q1": 0.34, "q3": 0.34, "n": 1}
    assert scan["change"]["cold_s"]["median"] == 0.22
    assert scan["parent"]["machine"]["git_revision"] == "aaaa"
    assert scan["change"]["machine"] == {
        "nproc": 2, "cpu": "test cpu", "python": "3.11.7",
        "git_revision": "bbbb", "src_sha256": "bbbbbbbb",
    }
    assert scan["change"]["seeds"] == [7]
    assert (scan["change"]["attempted"], scan["change"]["failed"]) == (58, 0)
    assert scan["pairs"]["cold_s"] == {"n": 1, "change_lower": 1}
    assert scan["pairs"]["warm_s"] == {"n": 1, "change_lower": 0}


def test_a_traced_result_set_is_refused(tmp_path):
    traced = result_set("aaaa", 0.3)
    traced["trace"] = 1
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps(traced))
    proc = run(tmp_path, "--out", tmp_path / "out.json",
               "--parent", parent, "--change", parent)
    assert proc.returncode == 1
    assert "not a --trace 0 result set" in proc.stderr
    assert not (tmp_path / "out.json").exists()
