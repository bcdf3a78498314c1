"""One workload in one fresh process: set-up, then timed passes.

Started by ``run.py``; not meant to be run by hand.  The process is a single
closed-loop client: it runs the workload's tasks one after another, starts
no threads, and waits for every CLI subprocess it starts.  It writes its
result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def cpu_seconds():
    """User + system seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# The host's speed drifts by up to ~1.6x within seconds (shared vCPUs), and
# the drift moves wall and CPU time alike.  A fixed pure-Python probe of
# dict, tuple and int work measures the current speed: it runs a few times
# before and after every task and, from a SIGALRM handler, every
# PROBE_INTERVAL_S while the task runs.  Each task time, less the probes'
# own time, is rescaled to a host on which one probe takes
# REFERENCE_PROBE_S of CPU time.  Raw times are kept in the run record.
REFERENCE_PROBE_S = 0.00025
PROBE_INTERVAL_S = 0.025
_PROBE_ITEMS = 1000
_EDGE_PROBES = 5


def probe_s():
    """CPU seconds of one run of the probe kernel, ~0.25 ms here.  CPU time,
    not wall time, so a CLI subprocess sharing the CPU does not count."""
    start = time.thread_time()
    table = {}
    for i in range(_PROBE_ITEMS):
        table[(i, i * 7 % 13, i // 3)] = i
    sum(key[1] * value for key, value in table.items())
    return time.thread_time() - start


def edge_probes():
    return [probe_s() for _ in range(_EDGE_PROBES)]


class InTaskProbes:
    """Runs the probe every PROBE_INTERVAL_S of wall time while installed."""

    def __init__(self):
        self.samples = []
        self.wall = 0.0

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_s())
        self.wall += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(tasks, ctx, digests, inprocess=False, recorder=None):
    """Run every task once, in order, checking each result exactly.

    A task fails if it raises, if its own check is not ok, or if the sha256
    of its canonical output differs from the recorded digest.  Each task's
    time is measured raw and rescaled by the mean of the probes taken
    before, during and after it."""
    out = []
    before = edge_probes()
    for task in tasks:
        # Torus objects form reference cycles that only a full collection
        # frees; collecting here makes peak RSS the largest single task's,
        # whatever the number of passes.
        gc.collect()
        run = task.run_inprocess if inprocess and task.run_inprocess else task.run
        if recorder is not None:
            recorder.task = task.name
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        with InTaskProbes() as probes:
            try:
                ok, text = run(ctx)
                got = digest(text)
                error = None
            except Exception:  # a failing task is counted, and the pass goes on
                ok, got, error = False, None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start - probes.wall
        cpu = cpu_seconds() - cpu0 - sum(probes.samples)
        after = edge_probes()
        speed = statistics.mean(before + probes.samples + after)
        scale = REFERENCE_PROBE_S / speed
        before = after
        out.append({"task": task.name, "seconds": seconds, "cpu_s": cpu,
                    "ref_seconds": seconds * scale, "ref_cpu_s": cpu * scale,
                    "probe_s": speed, "probes": len(probes.samples), "probe_wall_s": probes.wall,
                    "failed": not ok or got != digests.get(task.name),
                    "digest": got, "error": error})
    return {
        "wall_s": sum(t["seconds"] for t in out),
        "cpu_s": sum(t["cpu_s"] for t in out),
        "ref_wall_s": sum(t["ref_seconds"] for t in out),
        "ref_cpu_s": sum(t["ref_cpu_s"] for t in out),
        "tasks": out,
    }


# Medians need three passes; only cli-readme's long pass makes this exceed
# --seconds (three ~10 s passes).
MIN_PASSES = 3


def measure(workload, ctx, digests, seconds):
    """Untraced passes until ``seconds`` have gone by and at least
    MIN_PASSES have run."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload.tasks, ctx, digests))
    return passes


def traced(workload, ctx, digests, spans_path):
    """A traced pass between two untraced ones; returns the per-layer metrics.

    The traced pass is compared with the mean of its untraced neighbours.
    For cli-readme the passes call cli.main in-process, after one pass of
    CLI subprocesses that separates start-up from the work of main."""
    import spans

    is_cli = all(t.run_inprocess for t in workload.tasks)
    subprocess_pass = [run_pass(workload.tasks, ctx, digests)] if is_cli else []
    before = run_pass(workload.tasks, ctx, digests, inprocess=is_cli)
    rec = spans.Recorder()
    uninstall = rec.install()
    try:
        traced_pass = run_pass(workload.tasks, ctx, digests, inprocess=is_cli, recorder=rec)
    finally:
        uninstall()
    after = run_pass(workload.tasks, ctx, digests, inprocess=is_cli)
    rec.write(spans_path)

    base = (before["ref_wall_s"] + after["ref_wall_s"]) / 2
    metrics = dict.fromkeys((name for name, _unit in spans.LAYER_METRICS), 0.0)
    metrics.update(rec.self_times())
    metrics.update(rec.counts)
    metrics["zeta.block_det_distinct_ratio"] = rec.distinct_ratio()
    if rec.missing:
        print("not traced, missing from weylzeta: %s" % ", ".join(rec.missing), file=sys.stderr)
    if is_cli:
        metrics["cli.startup_s"] = subprocess_pass[0]["ref_wall_s"] - base
    metrics["bench.trace_overhead_frac"] = traced_pass["ref_wall_s"] / base - 1.0
    # spans also cover the in-task probes, so compare with the elapsed time
    elapsed = traced_pass["wall_s"] + sum(t["probe_wall_s"] for t in traced_pass["tasks"])
    metrics["bench.unattributed_frac"] = 1.0 - rec.root_seconds() / elapsed
    return subprocess_pass + [before, traced_pass, after], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.setup(args.seed, args.out_dir, args.src)
    ready = time.monotonic()
    ready_probes = edge_probes()
    import weylzeta

    if not os.path.abspath(weylzeta.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit("weylzeta was imported from %s, not from %s" % (weylzeta.__file__, args.src))

    import numpy

    result = {"ready": ready, "ready_probes": ready_probes, "numpy": numpy.__version__}
    if not args.setup_only:
        digests = {}
        if os.path.exists(DIGESTS):  # absent only while first recording it
            with open(DIGESTS) as fh:
                digests = json.load(fh)
        if args.trace:
            spans_path = os.path.join(args.out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))
            result["passes"], result["layers"] = traced(workload, ctx, digests, spans_path)
            result["spans"] = spans_path
        else:
            result["passes"] = measure(workload, ctx, digests, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
