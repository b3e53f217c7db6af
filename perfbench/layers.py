"""Tracing of the library's layers from outside the library.

`Tracer.install()` wraps the public calls into each layer (`cli`,
`suites`, `tensor`, `uea`, `weyl`, `symfun`, `core`) and counts every
`fractions.Fraction` made (`scalar`).  A wrapped call records a span:
name, start, end, parent span and run id, where a run is one suite
entry.  Spans stay in memory until `trace_document()` writes them out.

A function that a module imports by name is patched in every `capelli`
module that holds it, so that `capelli.suites.verify_relations` is
traced as well as `capelli.tensor.verify_relations`.

Only the traced run uses this module.  Its overhead is itself a metric,
`trace.overhead_s`; end-to-end figures come from untraced runs.
"""

import fractions
import functools
import time
from collections import Counter

# (metric name, unit); the order is the order of the printed result.
PER_LAYER = [
    ("weyl.mul.calls", "count"),
    ("weyl.mul.term_pairs", "count"),
    ("weyl.mul.self_s", "s"),
    ("weyl.add.calls", "count"),
    ("weyl.add.terms_copied", "count"),
    ("weyl.add.self_s", "s"),
    ("weyl.apply.calls", "count"),
    ("weyl.apply.s", "s"),
    ("uea.fexpr_eval.calls", "count"),
    ("uea.fexpr_eval.words", "count"),
    ("uea.fexpr_eval.s", "s"),
    ("uea.fexpr_eval.uea_ring.words", "count"),
    ("uea.fexpr_eval.gamma_ring.words", "count"),
    ("uea.fexpr_eval.dual_ring.words", "count"),
    ("uea.fexpr_eval.dual_ring.s", "s"),
    ("uea.word_images", "count"),
    ("uea.pbw_mul.calls", "count"),
    ("uea.pbw_mul.term_pairs", "count"),
    ("uea.pbw_mul.self_s", "s"),
    ("uea.nf_memo_words", "count"),
    ("uea.hc_polynomial.s", "s"),
    ("uea.central_series.s", "s"),
    ("tensor.tmat_mul.calls", "count"),
    ("tensor.tmat_mul.s", "s"),
    ("tensor.fused_F.s", "s"),
    ("tensor.ent_mul.calls", "count"),
    ("tensor.ent_mul.term_pairs", "count"),
    ("tensor.ent_mul.self_s", "s"),
    ("tensor.verify_relations.calls", "count"),
    ("tensor.verify_relations.s", "s"),
    ("tensor.verify_vanishing.calls", "count"),
    ("suites.run_suite.calls", "count"),
    ("suites.run_suite.s", "s"),
    ("suites.self_s", "s"),
    ("symfun.calls", "count"),
    ("symfun.s", "s"),
    ("core.sympoly_mul.calls", "count"),
    ("core.sympoly_mul.s", "s"),
    ("cli.main.s", "s"),
    ("cli.emit.s", "s"),
    ("scalar.fractions_made", "count"),
    ("trace.overhead_s", "s"),
]

CACHE_METRICS = ("uea.word_images", "uea.nf_memo_words")
_RING_KINDS = {"UEARing": "uea_ring", "GammaRing": "gamma_ring", "DualRing": "dual_ring"}


def _ring_kind(ring):
    return _RING_KINDS.get(type(ring).__name__, type(ring).__name__)


class Tracer:
    """Spans and counts for one traced child process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, run id]
        self.stack = []      # open frames: [span index, start, time in children]
        self.active = Counter()   # open spans per name, so `.s` counts outermost spans only
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.run_id = None
        self._fractions = 0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _span(self, names, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        start = time.perf_counter()
        index = len(self.spans)
        self.spans.append([names[0], start, None, parent, self.run_id])
        frame = [index, start, 0.0]
        self.stack.append(frame)
        for name in names:
            self.active[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.spans[index][2] = end
            if self.stack:
                self.stack[-1][2] += duration
            for name in names:
                self.active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if not self.active[name]:
                    self.total_s[name] += duration

    def _wrap(self, fn, names, measure=None):
        """`fn` traced under `names`: the span name first, then the groups
        it also counts toward, or a function of the call's arguments that
        returns them.  `measure(*args)` returns None to skip the span (a
        product with a scalar, say) or a dict of counts to add."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = {} if measure is None else measure(*args)
            if counts is None:
                return fn(*args, **kwargs)
            for key, value in counts.items():
                tracer.counts[key] += value
            span_names = names(*args) if callable(names) else names
            return tracer._span(span_names, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def _patch_method(self, cls, attr, names, measure=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, names, measure))
        self._restore.append((cls, attr, original))

    def _patch_function(self, modules, original, names, measure=None):
        traced = self._wrap(original, names, measure)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    self._restore.append((module, attr, original))

    def install(self):
        import capelli
        from capelli import cli, core, suites, symfun, tensor, uea, weyl

        modules = [capelli, cli, core, suites, symfun, tensor, uea, weyl]
        Weyl, UEA, SymPoly = weyl.WeylOperator, uea.UEAElement, core.SymPoly

        def weyl_pairs(a, b):
            if isinstance(b, Weyl):
                return {"weyl.mul.term_pairs": len(a.terms) * len(b.terms)}
            return None

        def weyl_copied(a, b):
            return {"weyl.add.terms_copied": len(a.terms)}

        def pbw_pairs(a, b):
            if isinstance(b, UEA):
                return {"uea.pbw_mul.term_pairs": len(a.terms) * len(b.terms)}
            return None

        def sympoly_pairs(a, b):
            return {} if isinstance(b, SymPoly) else None

        def ent_pairs(ctx, a, b):
            return {"tensor.ent_mul.term_pairs": len(a) * len(b)}

        def fexpr_words(expr, ring):
            return {"uea.fexpr_eval.words": len(expr.terms),
                    f"uea.fexpr_eval.{_ring_kind(ring)}.words": len(expr.terms)}

        def fexpr_names(expr, ring):
            return ["uea.fexpr_eval", f"uea.fexpr_eval.{_ring_kind(ring)}"]

        tracer = self
        self._patch_function(modules, cli.main, ["cli.main"])
        self._patch_function(modules, cli.report_emit, ["cli.emit"])
        self._patch_function(modules, suites.run_suite, ["suites.run_suite"])
        self._patch_method(Weyl, "__mul__", ["weyl.mul"], weyl_pairs)
        self._patch_method(Weyl, "__add__", ["weyl.add"], weyl_copied)
        self._patch_method(Weyl, "__radd__", ["weyl.add"], weyl_copied)
        self._patch_method(Weyl, "apply", ["weyl.apply"])
        self._patch_method(uea.FExpr, "evaluate", fexpr_names, fexpr_words)
        self._patch_method(UEA, "__mul__", ["uea.pbw_mul"], pbw_pairs)
        self._patch_function(modules, uea.hc_polynomial, ["uea.hc_polynomial"])
        self._patch_function(modules, uea.central_series, ["uea.central_series"])
        self._patch_method(tensor.TMat, "__mul__", ["tensor.tmat_mul"])
        self._patch_function(modules, tensor.fused_F, ["tensor.fused_F"])
        self._patch_function(modules, tensor.ent_mul, ["tensor.ent_mul"], ent_pairs)
        self._patch_function(modules, tensor.verify_relations, ["tensor.verify_relations"])
        self._patch_function(modules, tensor.verify_vanishing, ["tensor.verify_vanishing"])
        for fn in (symfun.schur_factorial, symfun.e_factorial, symfun.h_factorial,
                   symfun.check_generating_series, symfun.check_characterization):
            self._patch_function(modules, fn, [f"symfun.{fn.__name__}", "symfun"])
        self._patch_method(SymPoly, "__mul__", ["core.sympoly_mul"], sympoly_pairs)

        original_new = fractions.Fraction.__dict__["__new__"]
        make = original_new.__func__

        def counted_new(cls, *args, **kwargs):
            tracer._fractions += 1
            return make(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counted_new)
        self._restore.append((fractions.Fraction, "__new__", original_new))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric except the cache sizes, which
        `cache_sizes` reads, and `trace.overhead_s`, which needs an
        untraced run.  A name ending in `.calls`, `.s` or `.self_s` reads
        the span statistics of the name before it; any other is a count."""
        out = {"suites.self_s": self.self_s["suites.run_suite"],
               "scalar.fractions_made": self._fractions}
        stats = {"calls": self.calls, "s": self.total_s, "self_s": self.self_s}
        for name, _unit in PER_LAYER:
            if name in out or name in CACHE_METRICS or name == "trace.overhead_s":
                continue
            span, _, stat = name.rpartition(".")
            out[name] = stats[stat][span] if stat in stats else self.counts[name]
        return out

    def trace_document(self):
        """Spans and per-name totals, for the trace file."""
        names = sorted(self.calls)
        return {
            "span_fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "per_name": {n: {"calls": self.calls[n], "s": self.total_s[n],
                             "self_s": self.self_s[n]} for n in names},
            "counts": dict(self.counts),
            "fractions_made": self._fractions,
        }


def cache_sizes():
    """Sizes of the library's module-level caches, read after a run."""
    from capelli import tensor, uea, weyl

    return {
        "uea.word_images": sum(len(ring._words) for ring in uea._RINGS.values()),
        "uea.nf_memo_words": sum(len(ctx._nf) for ctx in uea.LieContext._cache.values()),
        "uea.lie_contexts": len(uea.LieContext._cache),
        "uea.rings": len(uea._RINGS),
        "weyl.contexts": len(weyl.WeylContext._cache),
        "tensor.spaces": len(tensor.TensorSpace._cache),
    }
