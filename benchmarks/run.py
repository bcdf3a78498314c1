"""The weylzeta benchmark: one command, exact checks, end-to-end and
per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload torus-identity --seed 1 --seconds 20 --trace 0

Each run starts a fresh worker process for the workload (``worker.py``),
which builds the shared inputs and then runs timed passes over the
workload's fixed task list, checking every result against the digests in
``digests.json``.  With ``--trace 0`` the last line of stdout is a JSON
object holding the end-to-end metrics; with ``--trace 1`` a separate
traced pass gives the per-layer metrics instead.  Every run also writes a
run record (versions, nproc, git sha, seed, per-task times) under
``.bench_out/``.  ``--workload all`` runs every workload in turn, and
``--record-digests`` re-records ``digests.json`` from the current code.
See README.md in this directory for the workloads and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_PROBE_S, edge_probes  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = ".bench_out"

# setup_s is the median of this many set-ups: the probes plus the measured run.
SETUP_PROBES = 6
# A run must end within 180 s; the worker is stopped well before that.
CHILD_TIMEOUT_S = 160

END_TO_END = (
    ("solve_s", "s"),
    ("max_task_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env(src):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=src,
        PYTHONHASHSEED="0",
        # one client, no extra threads: keep numpy's libraries single-threaded
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, src, out_dir, tag, extra=()):
    """Start one worker and wait for it; returns (set-up seconds, set-up
    seconds rescaled like the task times, result)."""
    result_path = os.path.join(out_dir, "worker-%s-%d-%s.json" % (args.workload, args.seed, tag))
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", src, "--out-dir", out_dir, "--result", result_path, *extra,
    ]
    probes = edge_probes()
    launched = time.monotonic()
    # its own session, so a timeout also stops the CLI subprocesses it started
    proc = subprocess.Popen(cmd, env=child_env(src), start_new_session=True)
    try:
        status = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("worker for %s timed out after %d s" % (args.workload, CHILD_TIMEOUT_S))
    if status != 0:
        raise SystemExit("worker for %s exited with status %d" % (args.workload, status))
    with open(result_path) as fh:
        res = json.load(fh)
    os.remove(result_path)
    setup = res["ready"] - launched
    return setup, setup * REFERENCE_PROBE_S / statistics.mean(probes + res["ready_probes"]), res


def summarize(passes):
    """End-to-end figures of the timed passes and the failed fraction over
    every task attempted.  Each task's rescaled time is its median over
    passes, which drops a pass that met a slow spell of the host; a pass
    time is the sum of its tasks."""
    tasks = [t for p in passes for t in p["tasks"]]
    failed = sum(t["failed"] for t in tasks)

    def task_medians(key):
        return [statistics.median(p["tasks"][i][key] for p in passes) for i in range(len(passes[0]["tasks"]))]

    seconds = task_medians("ref_seconds")
    return {
        "solve_s": sum(seconds),
        "max_task_s": max(seconds),
        "cpu_s": sum(task_medians("ref_cpu_s")),
        "attempted": len(tasks),
        "failed": failed,
        "failed_frac": failed / len(tasks),
    }


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def src_sha256(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "weylzeta")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def record_digests(passes):
    """Replace this workload's digests, keeping those of the others."""
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            digests = json.load(fh)
    names = {t.name for w in workloads.WORKLOADS.values() for t in w.tasks}
    digests = {k: v for k, v in digests.items() if k in names}
    for i, t in enumerate(passes[0]["tasks"]):
        if t["digest"] is None:
            raise SystemExit("cannot record digests: task %s raised\n%s" % (t["task"], t["error"]))
        if any(p["tasks"][i]["digest"] != t["digest"] for p in passes):
            raise SystemExit("cannot record digests: task %s is not deterministic" % t["task"])
        digests[t["task"]] = t["digest"]
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests in %s" % (len(digests), DIGESTS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="a workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run three passes and write their output digests to digests.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "weylzeta", "__init__.py")):
        sys.exit("no weylzeta sources under %s: run from the root of a weylzeta checkout" % src)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    # Everything runs on one CPU, so the speed probes measure the CPU the
    # tasks and CLI subprocesses run on; the workers inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.record_digests:
        args.seconds, args.trace = 0, 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(argparse.Namespace(**dict(vars(args), workload=name)), root, src, out_dir)


def run_workload(args, root, src, out_dir):
    """One run of one workload: set-up probes, the measured worker, the
    run record, and the printed metrics ending in the JSON result line."""
    setup_raw, setup_ref = [], []
    if not args.trace and not args.record_digests:
        for i in range(SETUP_PROBES):
            raw, ref, _res = run_worker(args, src, out_dir, "setup%d" % i, ("--setup-only",))
            setup_raw.append(raw)
            setup_ref.append(ref)
    raw, ref, res = run_worker(args, src, out_dir, "run")
    setup_raw.append(raw)
    setup_ref.append(ref)
    passes = res["passes"]
    if args.record_digests:
        record_digests(passes)
        return

    summary = summarize(passes)
    if args.trace:
        metrics = {name: (res["layers"][name], unit) for name, unit in spans.LAYER_METRICS}
    else:
        values = dict(summary, setup_s=statistics.median(setup_ref), peak_rss_mb=res["peak_rss_mb"])
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "src_sha256": src_sha256(src),
        "tasks_per_pass": len(workloads.WORKLOADS[args.workload].tasks),
        "passes": len(passes),
        "reference_probe_s": REFERENCE_PROBE_S,
        "setup_samples_s": setup_raw,
        "setup_samples_ref_s": setup_ref,
        "pass_times": [
            {key: p[key] for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")}
            | {"tasks": {t["task"]: {key: t[key] for key in ("seconds", "ref_seconds", "probe_s", "probes")}
                         for t in p["tasks"]}}
            for p in passes
        ],
        "failures": [t for p in passes for t in p["tasks"] if t["failed"]],
        "spans": res.get("spans"),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failed_frac": summary["failed_frac"],
    }
    record_path = os.path.join(out_dir, "record-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s  seed %d  passes %d  tasks/pass %d  setups %d"
          % (args.workload, args.seed, len(passes), record["tasks_per_pass"], len(setup_ref)))
    print("  raw medians: pass wall %.4f s, cpu %.4f s, set-up %.4f s"
          % (statistics.median(p["wall_s"] for p in passes),
             statistics.median(p["cpu_s"] for p in passes), statistics.median(setup_raw)))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6f %s" % (name, value, unit))
    print("  %-32s %14.6f %s  (%d of %d tasks)"
          % ("failed_frac", summary["failed_frac"], "1", summary["failed"], summary["attempted"]))
    for t in record["failures"]:
        print("  FAILED %s%s" % (t["task"], "\n" + t["error"] if t["error"] else " (check or digest)"))
    print("  record: %s" % os.path.relpath(record_path, root))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
