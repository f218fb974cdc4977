"""sevencores benchmark: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload catalog-400 --seed 1 --seconds 28 --trace 0

Each repetition starts a fresh interpreter (perfbench/worker.py with
src/ on PYTHONPATH), times the workload's cold pass and its warm pass,
and reports what the program printed and built.  Repetitions run one
after another, never in parallel, until the next one would overrun
--seconds; at least one always runs.  Every pass is checked against
perfbench/expected.json.

The host this runs on is shared, and its speed changes by up to a
third within seconds, with wall and CPU time changing together.  So
times are scaled to a nominal host speed.  While a pass runs, the
worker times a fixed integer loop every 25 ms from a SIGALRM handler
(``worker.SpeedProbe``).  The pass time, less the probes' own time, is
multiplied by PROBE_NOMINAL_S over the median probe time of that pass.
The probe runs no program code, so a change to the program cannot move
it.  Unscaled times, less the probes, are printed and kept as well.

--trace 0 prints the end-to-end metrics (medians over repetitions);
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced repetition with the median wall time.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A result set with every sample, the
quartiles and the machine it ran on goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("catalog-400", "scan-6000", "oracle-40", "expr-ladder")
# Every run, its repetitions included, ends within this many seconds.
DEADLINE_S = 170.0
RUN_START = time.perf_counter()
# About what one speed probe takes on an idle core of the 2-core Xeon
# VM the benchmark was defined on.
PROBE_NOMINAL_S = 0.0007
# Fresh starts that stop once set up, made before each repetition and
# scaled by its speed probes, for setup_s.
SETUP_STARTS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def machine():
    """What the numbers were measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
        "load1_at_start": os.getloadavg()[0],
    }


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(workload, seed, trace, spans_path, timeout):
    """Run one repetition in a fresh interpreter; return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(trace), str(spans_path)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr}"
        )
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_wall_s"] = result.pop("ready") - started
    result["probe_s"] = result["cold"]["probe_s"] + result["warm"]["probe_s"]
    for name in ("cold", "warm"):
        timing = result.pop(name)
        net = timing["wall_s"] - sum(timing["probe_s"])
        speed = statistics.median(
            timing["probe_s"] or result["probe_s"] or [PROBE_NOMINAL_S]
        )
        result[f"{name}_wall_s"] = net
        result[f"{name}_s"] = net * PROBE_NOMINAL_S / speed
    return result


def setup_once(timeout):
    """Interpreter start to parser built, in a fresh worker that stops there."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "setup"],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(proc.stdout) - started


def gate(passes, expected):
    """Return (attempted, failed) over the passes of one repetition.

    An operation fails when its observed value differs from the expected
    one, or when it is missing or unexpected.  If the outcome of the
    whole pass differs (an exit code, a summary line, a digest of a
    shared series), every operation of that pass fails.
    """
    attempted = failed = 0
    for observed in passes:
        keys = set(expected["ops"]) | set(observed["ops"])
        attempted += len(keys)
        if observed["pass"] != expected["pass"]:
            failed += len(keys)
            continue
        failed += sum(
            1 for k in keys
            if k not in expected["ops"]
            or observed["ops"].get(k) != expected["ops"][k]
        )
    return attempted, failed


def spread(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, seed, seconds, trace, expected):
    """Closed loop of repetitions; returns (reps, setups, attempted, failed).

    Before each repetition, SETUP_STARTS fresh interpreters start and stop
    once set up.  Their times and the repetition's own start time are
    scaled by the repetition's speed probes, which ran seconds later.
    """
    start = time.perf_counter()
    reps = []
    setups = []
    durations = []
    attempted = failed = 0
    while True:
        kind = len(reps) % 2 if trace else 0
        spans_path = OUT / f"{workload}-seed{seed}-rep{len(reps)}.spans.jsonl"
        rep_start = time.perf_counter()
        starts = [setup_once(60) for _ in range(SETUP_STARTS)]
        remaining = DEADLINE_S - (time.perf_counter() - RUN_START)
        rep = spawn(workload, seed, kind, spans_path, remaining)
        durations.append(time.perf_counter() - rep_start)
        speed = statistics.median(rep["probe_s"] or [PROBE_NOMINAL_S])
        setups += [t * PROBE_NOMINAL_S / speed
                   for t in starts + [rep["setup_wall_s"]]]
        rep["traced"] = bool(kind)
        a, f = gate(rep["passes"], expected)
        attempted += a
        failed += f
        reps.append(rep)
        elapsed = time.perf_counter() - start
        need_more = trace and len(reps) < 2
        if not need_more and elapsed + statistics.median(durations) > seconds:
            return reps, setups, attempted, failed


def end_to_end(reps, setups):
    stats = {
        name: spread(setups if name == "setup_s" else [r[name] for r in reps])
        for name in END_TO_END_UNITS
    }
    return stats, {
        name: {"value": stats[name]["median"], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def per_layer(reps, layer_units):
    plain = [r for r in reps if not r["traced"]]
    traced = sorted((r for r in reps if r["traced"]),
                    key=lambda r: r["layers"]["trace.wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    values["trace.overhead_frac"] = (
        statistics.median(r["cold_s"] for r in traced)
        / statistics.median(r["cold_s"] for r in plain) - 1.0
    )
    return chosen, {
        name: {"value": values[name], "unit": unit}
        for name, unit in layer_units.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sevencores" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src'} is missing")
    expected = json.loads(EXPECTED.read_text())[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    OUT.mkdir(exist_ok=True)
    env = machine()
    # The first start byte-compiles the sources, which no user pays for
    # twice, so it is not kept.
    setup_once(60)

    reps, setups, attempted, failed = measure(
        args.workload, args.seed, args.seconds, args.trace, expected
    )
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": env,
              "attempted": attempted, "failed": failed}
    print("machine " + json.dumps(env))
    print(f"{args.workload} seed={args.seed} reps={len(reps)}"
          f" attempted={attempted} failed={failed}"
          f" fail_frac={failed / attempted:.6g}")
    if args.trace:
        chosen, metrics = per_layer(reps, layer_units)
        record["layers"] = chosen["layers"]
        record["spans"] = str(OUT / f"{args.workload}-seed{args.seed}"
                              f"-rep{reps.index(chosen)}.spans.jsonl")
        for name, m in metrics.items():
            print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    else:
        stats, metrics = end_to_end(reps, setups)
        record["end_to_end"] = stats
        for name in ("cold_wall_s", "warm_wall_s"):
            stats[name] = spread([r[name] for r in reps])
        for name, s in stats.items():
            unit = END_TO_END_UNITS.get(name, "s")
            print(f"{name:<14} median={s['median']:.6g} q1={s['q1']:.6g}"
                  f" q3={s['q3']:.6g} n={s['n']} {unit}")
    record["samples"] = [
        {k: r[k] for k in ("cold_s", "warm_s", "setup_wall_s", "cold_wall_s",
                           "warm_wall_s", "peak_rss_mib", "traced")}
        for r in reps
    ]
    record["setup_s"] = setups
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
