"""Write a BENCH_*.json file from perfbench result sets of two trees.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --out BENCH_<tag>.json \
        --parent PARENT/.bench_out/*-trace0.json \
        --change .bench_out/*-trace0.json

Each input is the result set of one ``perfbench/run.py --trace 0`` run:
one workload at one seed, holding the median of every end-to-end metric
over the run's repetitions.  For each workload and side (the parent
tree and the changed tree) the output records, over those run medians,
the median, first and third quartile and count of ``setup_s``,
``cold_s``, ``warm_s`` and ``peak_rss_mib``, with the seeds, the
operations attempted and failed, and the machine: ``nproc``, CPU,
Python version, ``git_revision`` and ``src_sha256``.

Where both sides ran a seed, ``pairs`` states the verdict per metric,
with each metric's ``better`` direction and ``bound`` read from the
checkout's BENCHMARK.json:

* ``change_won``, ``parent_won`` and ``ties``: the seeds on which the
  change's run median was better, worse or equal;
* ``parent_iqr``: the distance between the parent's quartiles;
* ``gain``: at least ten pairs ran, the change won at least nine tenths
  of them (ties count for neither), and its median is better than the
  parent's by more than ``parent_iqr``;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's ``bound``, a fraction of the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

METRICS = ("setup_s", "cold_s", "warm_s", "peak_rss_mib")
MACHINE = ("nproc", "cpu", "python", "git_revision", "src_sha256")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values):
    """Median, quartiles and count, the way perfbench/run.py takes them."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def load(paths):
    """{workload: {seed: result set}} of the --trace 0 result sets."""
    runs = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record.get("trace") != 0 or "end_to_end" not in record:
            raise ValueError(f"{path}: not a --trace 0 result set")
        seeds = runs.setdefault(record["workload"], {})
        if record["seed"] in seeds:
            raise ValueError(f"{path}: a second run of seed {record['seed']}")
        seeds[record["seed"]] = record
    return runs


def side(records):
    """The summary of one side's runs of one workload."""
    machines = {json.dumps({k: r["machine"].get(k) for k in MACHINE})
                for r in records.values()}
    if len(machines) != 1:
        raise ValueError("one side's runs come from different trees or machines")
    seeds = sorted(records)
    out = {
        "machine": json.loads(machines.pop()),
        "seeds": seeds,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
    }
    for metric in METRICS:
        out[metric] = spread(
            [records[s]["end_to_end"][metric]["median"] for s in seeds]
        )
    return out


def verdict(pairs, parent, change, rule):
    """The verdict on one metric of one workload: pairs holds the (parent,
    change) run medians of each shared seed, parent and change the two
    sides' spreads, rule the metric's entry in BENCHMARK.json."""
    sign = 1 if rule["better"] == "lower" else -1
    diffs = [sign * (ours - theirs) for theirs, ours in pairs]
    won = sum(d < 0 for d in diffs)
    iqr = parent["q3"] - parent["q1"]
    delta = sign * (change["median"] - parent["median"])
    return {
        "n": len(pairs),
        "change_won": won,
        "parent_won": sum(d > 0 for d in diffs),
        "ties": diffs.count(0),
        "parent_iqr": iqr,
        "gain": len(pairs) >= 10 and won >= 0.9 * len(pairs) and -delta > iqr,
        "worse": delta > rule["bound"] * parent["median"],
    }


def record(parent, change, rules):
    workloads = {}
    for name in sorted(set(parent) | set(change)):
        entry = {}
        for label, runs in (("parent", parent), ("change", change)):
            if name in runs:
                entry[label] = side(runs[name])
        shared = sorted(set(parent.get(name, {})) & set(change.get(name, {})))
        if shared:
            entry["pairs"] = {}
            for metric in METRICS:
                pairs = [
                    (parent[name][s]["end_to_end"][metric]["median"],
                     change[name][s]["end_to_end"][metric]["median"])
                    for s in shared
                ]
                entry["pairs"][metric] = verdict(
                    pairs, entry["parent"][metric], entry["change"][metric],
                    rules[metric],
                )
        workloads[name] = entry
    return {"metrics": list(METRICS), "workloads": workloads}


def benchmark_rules():
    """{metric: its entry in the end_to_end list of BENCHMARK.json}."""
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    return {rule["name"]: rule for rule in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write")
    parser.add_argument("--parent", nargs="+", required=True,
                        help="result sets of the parent tree")
    parser.add_argument("--change", nargs="+", required=True,
                        help="result sets of the changed tree")
    args = parser.parse_args(argv)
    try:
        out = record(load(args.parent), load(args.change), benchmark_rules())
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
