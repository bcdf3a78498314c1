"""Tests of the benchmark itself: exact checking, failure counting and the
span recorder.  Run with `python -m pytest benchmarks/tests -q` from the
repository root."""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ALT = "cli:alt --type A2t"


def _digests():
    with open(os.path.join(BENCH, "digests.json")) as fh:
        return json.load(fh)


@pytest.fixture
def alt_task(tmp_path):
    ctx = workloads.setup_cli_readme(0, str(tmp_path), os.path.join(ROOT, "src"))
    (task,) = [t for t in workloads.WORKLOADS["cli-readme"].tasks if t.name == ALT]
    return task, ctx


def test_digests_cover_every_task():
    names = {t.name for w in workloads.WORKLOADS.values() for t in w.tasks}
    assert names == set(_digests())


def test_recorded_digest_passes(alt_task):
    task, ctx = alt_task
    p = worker.run_pass([task], ctx, _digests(), inprocess=True)
    summary = run.summarize([p])
    assert summary["failed"] == 0 and summary["failed_frac"] == 0


def test_tampered_digest_raises_failed_frac(alt_task):
    task, ctx = alt_task
    tampered = dict(_digests())
    tampered[ALT] = "0" * 64
    p = worker.run_pass([task, task], ctx, tampered, inprocess=True)
    summary = run.summarize([p])
    assert summary["attempted"] == 2 and summary["failed"] == 2
    assert summary["failed_frac"] > 0


def test_raising_task_is_counted(alt_task):
    def boom(ctx):
        raise ValueError("broken")

    task, ctx = alt_task
    bad = workloads.Task("boom", boom)
    p = worker.run_pass([task, bad], ctx, _digests(), inprocess=True)
    summary = run.summarize([p])
    assert summary["failed"] == 1 and summary["failed_frac"] == 0.5
    assert "ValueError" in p["tasks"][1]["error"]


def test_recorder_spans_and_self_times():
    from weylzeta import coxeter, hecke, strips

    originals = (coxeter.enumerate_elements, strips.verify_determinant_identity)
    rec = spans.Recorder()
    uninstall = rec.install()
    try:
        system = coxeter.build_system("A2t")
        table = coxeter.enumerate_elements(system, 12)
        rep = hecke.characters(system)[0].as_representation()
        assert strips.verify_determinant_identity(system, rep, table).ok
    finally:
        uninstall()
    assert (coxeter.enumerate_elements, strips.verify_determinant_identity) == originals

    names = [s[2] for s in rec.spans]
    assert "coxeter.enumerate_elements" in names
    assert "series.det_poly_matrix" in names  # reached from inside strips
    by_id = {s[0]: s for s in rec.spans}
    for sid, parent, _name, _metric, _task, start, end in rec.spans:
        assert end >= start
        if parent is not None:
            p = by_id[parent]
            assert p[5] <= start and end <= p[6]
    self_times = rec.self_times()
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) == pytest.approx(rec.root_seconds())
    assert rec.counts["coxeter.elements"] == len(table)
    assert set(self_times) <= {m for _mod, _attr, m in spans.LAYERS}
    assert rec.missing == []


def test_recorder_skips_missing_attributes(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (
        ("zeta", "no_such_function", "zeta.ihara_s"),
        ("zeta", "TorusQuotient.no_such_method", "zeta.ihara_s"),
        ("zeta", "NoSuchClass.__init__", "zeta.ihara_s"),
    ))
    rec = spans.Recorder()
    rec.install()()
    assert rec.missing == ["zeta.no_such_function", "zeta.TorusQuotient.no_such_method",
                           "zeta.NoSuchClass.__init__"]


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cli-readme",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
