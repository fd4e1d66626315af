"""Spans around hyperweyl's public functions, installed from outside.

``Tracer.install()`` replaces each traced function, in every loaded
``hyperweyl`` module that holds it (and on its class, for methods), with a
wrapper that records a span: name, start, end, the index of the enclosing
traced span, the phase ("setup" or "loop") and one extra value (terms and
convergence for a series, draws for a point search, memory growth for the
census).  Spans stay in memory until ``write()``; ``layer_metrics()``
reduces them to the per-layer figures the benchmark prints, with the
tracing overhead: the spans of a round times the measured cost of one span.
"""

import functools
import inspect
import json
import resource
import statistics
import sys
import time
from collections import defaultdict

_FAMILY = {4: "f43", 7: "f76", 9: "f98"}
_SETUP_LAYERS = (
    "correspond.gen_point",
    "correspond.appendix_table",
    "exactalg.word_to_matrix",
    "coxeter.classify_m",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span_cost_s(calls=20000, repeats=7) -> float:
    """Time a traced wrapper adds to one call: wrapped minus bare calls of a
    no-op, per call, as the median of ``repeats`` interleaved measurements."""
    def noop(*args):
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("calibration", noop, after=lambda args, out, state: None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """Span-recording wrapper.  ``name`` may be a function of the call's
        arguments; ``after(args, result, before_state)`` gives the extra."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            state = before() if before else None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                span[5] = after(args, out, state)
            return out

        return traced

    def _replace(self, owner, attr, traced):
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hyperweyl"):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)

    def install(self):
        from hyperweyl import correspond, coxeter, exactalg, hypnum

        def series_extra(args, out, _):
            return [_FAMILY.get(len(args[0]), "other"), out.terms_used, out.converged]

        self._replace(hypnum, "sum_pfq", self.wrap("hypnum.sum_pfq", hypnum.sum_pfq, after=series_extra))
        for fname, span in (
            ("eval_J_log", "hypnum.eval_J"),
            ("eval_L_log", "hypnum.eval_L"),
            ("eval_L_7f6_log", "hypnum.eval_L_7f6"),
            ("eval_M_log", "hypnum.eval_M"),
        ):
            self._replace(hypnum, fname, self.wrap(span, getattr(hypnum, fname)))
        self._replace(correspond, "eval_relation",
                      self.wrap("correspond.eval_relation", correspond.eval_relation))
        self._replace(correspond.GammaSinExpr, "eval_log",
                      self.wrap("correspond.GammaSinExpr.eval_log", correspond.GammaSinExpr.eval_log))
        self._replace(exactalg.LinForm, "evaluate",
                      self.wrap("exactalg.LinForm.evaluate", exactalg.LinForm.evaluate))
        self._replace(correspond, "appendix_table",
                      self.wrap("correspond.appendix_table", correspond.appendix_table))
        self._replace(exactalg, "word_to_matrix",
                      self.wrap("exactalg.word_to_matrix", exactalg.word_to_matrix))
        self._replace(coxeter, "classify_m", self.wrap("coxeter.classify_m", coxeter.classify_m))
        self._replace(coxeter, "triple_orbits", self.wrap(
            lambda args, kwargs: "coxeter.triple_orbits." + (args[0] if args else kwargs["space"]),
            coxeter.triple_orbits))
        self._replace(coxeter, "full_group_census", self.wrap(
            "coxeter.full_group_census", coxeter.full_group_census,
            before=_maxrss_mb, after=lambda args, out, rss0: _maxrss_mb() - rss0))

        # a draw is one call of the caller's probe (one candidate point)
        gen_point = correspond.gen_point
        signature = inspect.signature(gen_point)
        draws = [0]

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            probe = bound.arguments.get("probe")
            draws[0] = 0 if probe is not None else 1
            if probe is not None:
                def counting(p):
                    draws[0] += 1
                    return probe(p)
                bound.arguments["probe"] = counting
            return gen_point(*bound.args, **bound.kwargs)

        self._replace(correspond, "gen_point", self.wrap(
            "correspond.gen_point", functools.wraps(gen_point)(counted),
            after=lambda args, out, _: draws[0]))

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase", "extra"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures: set-up layers as totals over the set-up phase,
        everything else per timed round.  ``trace.overhead_s`` is the
        wrapper time of one round's spans."""
        child = defaultdict(float)
        for name, t0, t1, parent, phase, extra in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        loop = defaultdict(float)
        setup = defaultdict(float)
        for idx, (name, t0, t1, parent, phase, extra) in enumerate(self.spans):
            dur = t1 - t0
            if name in _SETUP_LAYERS:
                if phase == "setup":
                    setup[name + ".calls"] += 1
                    setup[name + ".s"] += dur
                    if extra is not None:
                        setup[name + ".draws"] += extra
                continue
            if phase != "loop":
                continue
            if name == "hypnum.sum_pfq":
                family, terms, converged = extra
                key = f"{name}.{family}"
                loop[key + ".calls"] += 1
                loop[key + ".terms"] += terms
                loop[key + ".s"] += dur
                loop[key + ".unconverged"] += 0 if converged else 1
                continue
            loop[name + ".calls"] += 1
            loop[name + ".s"] += dur
            loop[name + ".self_s"] += dur - child[idx]
            if extra is not None:
                loop[name + ".rss_mb"] += extra
        out = {k: v / rounds for k, v in loop.items()}
        out.update(setup)
        loop_spans = sum(1 for span in self.spans if span[4] == "loop")
        out["trace.overhead_s"] = loop_spans / rounds * span_cost_s()
        return out
