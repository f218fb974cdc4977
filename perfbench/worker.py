"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH
       python3 perfbench/worker.py setup

Run with src/ on PYTHONPATH.  Prints one JSON object on stdout with the
time the program became ready (``time.perf_counter`` is system-wide on
Linux, so the parent can subtract its spawn time), the wall time and
speed-probe samples of the cold and the warm pass, the peak RSS, and
what each pass observed.  With TRACE set to 1 both passes run under the
tracer, its per-layer metrics are added, and the spans are written to
SPANS_PATH.  With the single argument ``setup`` it prints only that
time and exits.
"""

import sys
import time

from sevencores import cli

cli.build_parser()
READY = time.perf_counter()
if sys.argv[1:] == ["setup"]:
    print(READY)
    sys.exit(0)

import contextlib  # noqa: E402  (imported after the set-up timestamp)
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

PROBE_INTERVAL_S = 0.025
PARTITIONS = ((5, 3, 2, 1), (4, 4, 2, 1, 1), (7, 2, 2))


def _step(x, y):
    return x + y


def probe_kernel():
    """Under a millisecond of fixed interpreter work, no program code.

    It mixes the kinds of work the workloads do (integer arithmetic,
    tuple allocation, calls and dict lookups, generator expressions):
    on the shared host each kind slows down by a different amount, and
    the mix follows all four workloads better than any one kind does.
    """
    total = 0
    for i in range(4000):
        total += i * i
    kept = []
    for i in range(800):
        kept.append((i, i + 1, (i, i)))
        if len(kept) > 64:
            kept.clear()
    table = {}
    for i in range(1200):
        table[i & 63] = _step(i, table.get(i & 31, 0)) & 0xFFFF
    for _ in range(20):
        for p in PARTITIONS:
            tuple(sum(1 for part in p if part > j) for j in range(p[0]))


class SpeedProbe:
    """Times ``probe_kernel`` every 25 ms of a pass, from SIGALRM.

    The shared host's speed changes within seconds, so the samples are
    taken during the pass itself rather than next to it.  The handler
    runs between bytecodes of the pass; its own time is in ``samples``
    so the caller can take it off the pass time.  Under a tracer it is
    folded as ``trace.probe``, so no layer is charged for it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe_kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        if self.tracer is not None:
            self.tracer.fold("trace.probe", took)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def timed_pass(workload, probe):
    """Run one pass; an exception fails the whole pass, not the worker."""
    with probe:
        start = time.perf_counter()
        try:
            observed = workload.run_pass()
        except Exception:
            traceback.print_exc()
            observed = {"pass": {"error": traceback.format_exc(limit=1)},
                        "ops": {}}
        wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "probe_s": probe.samples}, observed


def main(argv):
    name, seed, trace, spans_path = argv
    workload = WORKLOADS[name]()
    workload.prepare(random.Random(int(seed)))
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
    probe = SpeedProbe(tracer)
    with tracer or contextlib.nullcontext():
        cold_t, cold = timed_pass(workload, probe)
        warm_t, warm = timed_pass(workload, probe)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = [cold, warm]
    try:
        workload.finish(passes)
    except Exception:  # the program failed: every operation fails
        traceback.print_exc()
        for observed in passes:
            observed["pass"]["error"] = traceback.format_exc(limit=1)
    result = {
        "ready": READY,
        "cold": cold_t,
        "warm": warm_t,
        "peak_rss_mib": peak_rss_mib,
        "passes": passes,
    }
    if tracer is not None:
        from sevencores.partitions import lattice_sum

        vectors = sum(
            sum(lattice_sum(7, order).coeffs) for order in tracer.lattice_orders
        )
        net_s = sum(t["wall_s"] - sum(t["probe_s"]) for t in (cold_t, warm_t))
        result["layers"] = tracer.metrics(net_s, vectors)
        tracer.dump(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
