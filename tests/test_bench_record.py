"""tools/bench_record.py on a synthetic parent and change result set."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def result_set(revision, cold, seed=7, rss=24.0):
    machine = {"nproc": 2, "cpu": "test cpu", "python": "3.11.7",
               "git_revision": revision, "src_sha256": revision * 2,
               "load1_at_start": 0.5}
    metrics = {"setup_s": 0.08, "cold_s": cold, "warm_s": 0.04,
               "peak_rss_mib": rss}
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
    assert scan["pairs"]["cold_s"] == {
        "n": 1, "change_won": 1, "parent_won": 0, "ties": 0,
        "parent_iqr": 0.0, "gain": False, "worse": False,
    }
    assert scan["pairs"]["warm_s"]["ties"] == 1
    assert scan["pairs"]["warm_s"]["change_won"] == 0


def record_pairs(tmp_path, parent_runs, change_runs):
    """The pairs of a record of scan-6000 runs on seeds 1, 2, ...: each
    run is a (cold_s, peak_rss_mib) median."""
    paths = {"parent": [], "change": []}
    for label, runs in (("parent", parent_runs), ("change", change_runs)):
        for seed, (cold, rss) in enumerate(runs, 1):
            path = tmp_path / f"{label}-{seed}.json"
            path.write_text(json.dumps(result_set(label[0] * 4, cold, seed, rss)))
            paths[label].append(path)
    out = tmp_path / "BENCH_test.json"
    proc = run(tmp_path, "--out", out, "--parent", *paths["parent"],
               "--change", *paths["change"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["workloads"]["scan-6000"]["pairs"]


def test_a_gain_needs_nine_of_ten_pairs_and_more_than_the_parent_spread(tmp_path):
    parent = [(0.30 + 0.01 * k, 24.0) for k in range(10)]
    # Nine wins by 0.08 and one loss: the medians differ by 0.08, more
    # than the parent's quartiles (0.3175 to 0.3725) are apart.
    change = [(c - 0.08, r) for c, r in parent[:9]] + [(0.40, 24.0)]
    cold = record_pairs(tmp_path, parent, change)["cold_s"]
    assert (cold["n"], cold["change_won"], cold["parent_won"], cold["ties"]) == (10, 9, 1, 0)
    assert abs(cold["parent_iqr"] - 0.055) < 1e-12
    assert cold["gain"] is True and cold["worse"] is False
    # Eight wins are not enough, and nor is a gap inside the spread.
    change[8] = (0.40, 24.0)
    assert record_pairs(tmp_path, parent, change)["cold_s"]["gain"] is False
    change = [(c - 0.01, r) for c, r in parent]
    cold = record_pairs(tmp_path, parent, change)["cold_s"]
    assert cold["change_won"] == 10 and cold["gain"] is False
    # A tie counts for neither side: nine wins and a tie are nine tenths.
    change = [(c - 0.08, r) for c, r in parent[:9]] + [parent[9]]
    cold = record_pairs(tmp_path, parent, change)["cold_s"]
    assert (cold["change_won"], cold["ties"], cold["gain"]) == (9, 1, True)
    # Fewer than ten pairs never state a gain.
    cold = record_pairs(tmp_path, parent[:9], [(c - 0.08, r) for c, r in parent[:9]])
    assert cold["cold_s"]["change_won"] == 9 and cold["cold_s"]["gain"] is False


def test_worse_compares_the_medians_with_the_declared_bound(tmp_path):
    bounds = {rule["name"]: rule["bound"]
              for rule in json.loads((SCRIPT.parent.parent / "BENCHMARK.json")
                                     .read_text())["end_to_end"]}
    parent = [(0.30, 20.0)] * 3
    inside = [(0.30 * (1 + bounds["cold_s"]) - 0.001,
               20.0 * (1 + bounds["peak_rss_mib"]) - 0.01)] * 3
    outside = [(0.30 * (1 + bounds["cold_s"]) + 0.001,
                20.0 * (1 + bounds["peak_rss_mib"]) + 0.01)] * 3
    pairs = record_pairs(tmp_path, parent, inside)
    assert not pairs["cold_s"]["worse"] and not pairs["peak_rss_mib"]["worse"]
    pairs = record_pairs(tmp_path, parent, outside)
    assert pairs["cold_s"]["worse"] and pairs["peak_rss_mib"]["worse"]
    assert pairs["cold_s"]["parent_won"] == 3 and not pairs["cold_s"]["gain"]
    assert not pairs["warm_s"]["worse"]


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
