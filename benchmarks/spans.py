"""Span recorder for the traced benchmark run.

The recorder wraps, from outside, the weylzeta functions and methods behind
each per-layer metric.  ``src/`` is never edited: wrapping replaces the
module or class attribute, and every other weylzeta module that imported
the same function by name, so intra-package calls are recorded too.

Each call becomes one span ``(id, parent, name, metric, task, start, end)``.
Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' durations minus the durations of their direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

PACKAGE = "weylzeta"
MODULES = ("cli", "coxeter", "series", "hecke", "strips", "rootsys", "zeta")

# (module, attribute path, metric): the attributes wrapped in a traced run.
LAYERS = (
    ("cli", "main", "cli.main_s"),
    ("coxeter", "enumerate_elements", "coxeter.enumerate_s"),
    ("coxeter", "ElementTable.parabolic_elements", "coxeter.parabolic_s"),
    ("coxeter", "min_coset_reps", "coxeter.parabolic_s"),
    ("series", "det_poly_matrix", "series.det_poly_matrix_s"),
    ("series", "char_matrix_det", "series.char_matrix_det_s"),
    ("series", "det_series", "series.det_series_s"),
    ("series", "RationalFunction.reduced", "series.rational_s"),
    ("series", "RationalFunction.binomial_factors", "series.rational_s"),
    ("series", "RationalFunction.__str__", "series.rational_s"),
    ("series", "alt_product_rational", "series.alt_product_s"),
    ("series", "poincare_affine", "series.poincare_s"),
    ("series", "poincare_parabolic", "series.poincare_s"),
    ("hecke", "hecke_mul", "hecke.mul_s"),
    ("hecke", "FiniteTwistedSeries.det", "hecke.twisted_det_s"),
    ("hecke", "validate_representation", "hecke.validate_s"),
    ("hecke", "check_word_products", "hecke.validate_s"),
    ("strips", "verify_determinant_identity", "strips.det_identity_self_s"),
    ("strips", "factorization_census", "strips.census_s"),
    ("strips", "verify_twisted_factorization", "strips.twisted_factorization_s"),
    ("rootsys", "exponent_rows", "rootsys.exponent_rows_s"),
    ("rootsys", "exponent_table", "rootsys.exponent_rows_s"),
    ("rootsys", "positive_roots", "rootsys.roots_s"),
    ("rootsys", "macdonald_series", "rootsys.macdonald_s"),
    ("rootsys", "sincere_heights", "rootsys.macdonald_s"),
    ("rootsys", "alt_via_sincere", "rootsys.macdonald_s"),
    ("zeta", "torus_quotient_rep", "zeta.torus_build_s"),
    ("zeta", "TorusQuotient.__init__", "zeta.torus_build_s"),
    ("zeta", "TorusQuotient.action_matrix", "zeta.image_s"),
    ("zeta", "TorusRepresentation.image", "zeta.image_s"),
    ("zeta", "TorusRepresentation.perm", "zeta.image_s"),
    ("zeta", "TorusQuotient.block_det", "zeta.block_det_s"),
    ("zeta", "TorusRepresentation.det_series_hook", "zeta.dual_check_s"),
    ("zeta", "TorusRepresentation.cyclic_det_hook", "zeta.cycle_det_s"),
    ("zeta", "strip_zeta", "zeta.strip_zeta_s"),
    ("zeta", "closed_strip_counts", "zeta.strip_counts_s"),
    ("zeta", "operator_strip_counts", "zeta.strip_counts_s"),
    ("zeta", "ihara_zeta", "zeta.ihara_s"),
    ("zeta", "ihara_formula_check", "zeta.ihara_s"),
    ("zeta", "geodesic_oracle", "zeta.ihara_s"),
)


def _count_elements(rec, args, result):
    rec.counts["coxeter.elements"] += len(result)


def _count_hecke(rec, args, result):
    rec.counts["hecke.mul_calls"] += 1


def _count_block_det(rec, args, result):
    rec.counts["zeta.block_det_calls"] += 1
    rec.block_det_contents.add(frozenset((perm, length) for perm, length, _key in args[1]))


def _count_chambers(rec, args, result):
    rec.counts["zeta.chambers"] += len(args[0].chambers)


def _count_census(rec, args, result):
    rec.counts["strips.census_tuples"] += sum(result.counts)


# Counters read at the same boundaries; they run after the span has ended.
COUNTERS = {
    "coxeter.enumerate_elements": _count_elements,
    "hecke.hecke_mul": _count_hecke,
    "zeta.TorusQuotient.block_det": _count_block_det,
    "zeta.TorusQuotient.__init__": _count_chambers,
    "strips.factorization_census": _count_census,
}

COUNT_METRICS = ("coxeter.elements", "hecke.mul_calls", "zeta.block_det_calls",
                 "zeta.chambers", "strips.census_tuples")

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    (("cli.startup_s", "s"),)
    + tuple(dict.fromkeys((m, "s") for _mod, _attr, m in LAYERS))
    + tuple((m, "count") for m in COUNT_METRICS)
    + (("zeta.block_det_distinct_ratio", "ratio"),
       ("bench.trace_overhead_frac", "ratio"),
       ("bench.unattributed_frac", "ratio"))
)


class Recorder:
    """Collects spans and counts while installed; ``install`` returns a
    function that restores every wrapped attribute."""

    def __init__(self):
        self.spans = []  # [id, parent, name, metric, task, start, end]
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.block_det_contents = set()
        self.missing = []
        self.task = None
        self._stack = []

    def _wrap(self, fn, name, metric):
        after = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, metric, self.task, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every attribute in LAYERS.  One the program no longer has is
        listed in ``self.missing`` and its metric reads 0."""
        modules = {m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES}
        undo = []
        for mod_name, path, metric in LAYERS:
            mod = modules[mod_name]
            name = "%s.%s" % (mod_name, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                orig = None if cls is None else vars(cls).get(attr)
                if orig is None:
                    self.missing.append(name)
                    continue
                setattr(cls, attr, self._wrap(orig, name, metric))
                undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, path, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(orig, name, metric)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapped)
                        undo.append((other, key, orig))

        def uninstall():
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

        return uninstall

    # -- reading the spans -----------------------------------------------------

    def self_times(self):
        """Self seconds per metric: span duration minus direct children."""
        child = [0.0] * len(self.spans)
        for _sid, parent, _n, _m, _t, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _p, _n, metric, _t, start, end in self.spans:
            out[metric] = out.get(metric, 0.0) + (end - start) - child[sid]
        return out

    def root_seconds(self):
        """Wall seconds covered by some layer span (roots do not overlap)."""
        return sum(end - start for _s, parent, _n, _m, _t, start, end in self.spans if parent is None)

    def distinct_ratio(self):
        calls = self.counts["zeta.block_det_calls"]
        return len(self.block_det_contents) / calls if calls else 0.0

    def write(self, path):
        keys = ("id", "parent", "name", "metric", "task", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
