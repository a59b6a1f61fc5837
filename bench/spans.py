"""Spans around calls into the kernel's layers, recorded from outside it.

While installed, every public function of the layer modules (functions
defined in the module and looked up through it) is replaced by a wrapper.
A wrapper opens a span when a job is running and the caller is in another
layer; a call from inside the same layer passes straight through, so
recursion costs one check per call and opens no span. `sigma.normalize`, `sigma.normalize_steps` and
`proofs.Congruence.normal_form` open a span on every call, because their
counts are wanted wherever they are called from.

A span records name, start, end, parent and job id. A layer's busy time is
the time of its spans minus the time of their child spans. Counting done
for a span (node counts, cache probes) runs on a paused clock, so it is
charged to no span.

Boundaries a wrapper cannot reach from outside the kernel are listed in
UNWRAPPED; they are left for tracing inside the program.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import oracles

LAYERS = ("syntax", "sigma", "precook", "proofs", "models", "gen", "cli")

UNWRAPPED = (
    "proofs.BINDING_OPS / proofs.LTERM_OPS (syntax.alpha_eq, syntax.free_vars, "
    "sigma.alpha_eq_l, sigma.free_vars_l bound at import)",
    "precook.shift_chain (sigma.shift_chain imported by name)",
    "syntax._ext_term_printer (sigma.print_lterm installed at import)",
    "sigma rewrite rules (closures built by sigma_system and compile_rule)",
    "methods of syntax.Parser and sigma.LParser",
    "carrier, box and denotation closures inside models",
)

ALWAYS = {"sigma.normalize", "sigma.normalize_steps", "proofs.Congruence.normal_form"}
SWEEPS = {"check_ifs", "check_coherence", "check_unary_retraction",
          "validate_sigma_rules", "denotation_transport_check"}
EVALS = {"eval_prop", "eval_prop_report", "quantifier_witness"}

# the per-layer metrics a traced run reports, with their units
METRICS = {
    "sigma.steps": "count", "sigma.innermost_s": "s", "sigma.outermost_s": "s",
    "sigma.steps_per_s": "1/s", "sigma.normalize_calls": "count",
    "sigma.input_nodes": "count", "sigma.nf_nodes": "count", "sigma.busy_s": "s",
    "syntax.busy_s": "s", "syntax.chars_parsed": "count", "syntax.parse_chars_per_s": "chars/s",
    "syntax.alpha_eq_s": "s", "syntax.substitute_s": "s", "syntax.well_formed_s": "s",
    "precook.busy_s": "s", "precook.nodes_translated": "count",
    "precook.translate_proof_s": "s", "precook.uncook_s": "s",
    "proofs.busy_s": "s", "proofs.parse_proof_s": "s", "proofs.nodes_checked": "count",
    "proofs.check_binding_s": "s", "proofs.check_modulo_s": "s", "proofs.nf_calls": "count",
    "proofs.nf_cache_hit_ratio": "ratio",
    "models.busy_s": "s", "models.instances_checked": "count", "models.instances_per_s": "1/s",
    "models.sweep_s": "s", "models.eval_prop_s": "s", "models.quantified_props": "count",
    "cli.busy_s": "s", "cli.commands": "count", "cli.unexpected_exits": "count",
    "gen.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}
COUNTS = {name for name, unit in METRICS.items() if unit == "count"}


def _has_quantifier(a) -> bool:
    stack = [a]
    while stack:
        node = stack.pop()
        name = type(node).__name__
        if name in ("Forall", "Exists"):
            return True
        if name in ("Imp", "And", "Or"):
            stack += [node.a, node.b]
    return False


def _proof_size(p) -> int:
    count, stack = 0, [p]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


class _Span:
    __slots__ = ("id", "parent", "job", "layer", "name", "start", "end", "child")

    def __init__(self, id_, parent, job, layer, name, start):
        self.id, self.parent, self.job = id_, parent, job
        self.layer, self.name, self.start = layer, name, start
        self.end = None
        self.child = 0.0


class Tracer:
    """Collects spans and counts for the jobs run while it is installed."""

    def __init__(self, kernel):
        self.k = kernel
        self.stack: list[_Span] = [_Span(0, None, None, None, "idle", 0.0)]
        self.paused = 0.0
        self.keep_spans = False
        self.spans: list[_Span] = []
        self.budgets: list = []
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.incl: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    # -- clock and spans -----------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def reset(self):
        self.busy.clear()
        self.incl.clear()
        self.counts.clear()

    def open(self, layer: str, name: str) -> _Span:
        parent = self.stack[-1]
        span = _Span(self._next_id, parent.id, parent.job, layer, name, self.clock())
        self._next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: _Span):
        span.end = self.clock()
        self.stack.pop()
        dur = span.end - span.start
        self.stack[-1].child += dur
        self.busy[span.layer] += dur - span.child
        self.incl[span.name] += dur
        if self.keep_spans:
            self.spans.append(span)

    def begin_job(self, job_id: str) -> _Span:
        self.budgets.clear()
        span = self.open("bench", f"job:{job_id}")
        span.job = job_id
        return span

    def end_job(self, span: _Span):
        while self.stack[-1] is not span:  # a job that raised leaves spans open
            self.close(self.stack[-1])
        self.close(span)

    # -- wrapping ------------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            mod = getattr(self.k, layer)
            for name, fn in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    self._patch(mod, name, self._wrap(layer, f"{layer}.{name}", fn))
        cong = self.k.proofs.Congruence
        self._patch(cong, "normal_form", self._wrap(
            "proofs", "proofs.Congruence.normal_form", vars(cong)["normal_form"]))
        budget = getattr(self.k.sigma, "_Budget", None)
        if budget is not None:
            budgets = self.budgets

            class CountedBudget(budget):
                __slots__ = ()

                def __init__(self, limit):
                    super().__init__(limit)
                    budgets.append(self)

            self._patch(self.k.sigma, "_Budget", CountedBudget)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer: str, qualname: str, fn):
        stack = self.stack
        account = self._accountant(qualname)
        always = qualname in ALWAYS
        tracer = self

        def wrapper(*args, **kwargs):
            top = stack[-1].layer
            if top is None or (top == layer and not always):
                return fn(*args, **kwargs)
            pre = None
            if account[0]:
                paused = time.perf_counter()
                pre = account[0](args, kwargs)
                tracer.paused += time.perf_counter() - paused
            span = tracer.open(layer, qualname)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if account[1]:
                paused = time.perf_counter()
                account[1](args, kwargs, out, pre, span)
                tracer.paused += time.perf_counter() - paused
            return out

        return wrapper

    def _accountant(self, qualname: str):
        """(before, after) hooks that turn one call into counts."""
        c = self.counts
        layer, _, name = qualname.partition(".")
        if qualname in ("sigma.normalize", "sigma.normalize_steps"):
            def after(args, kwargs, out, pre, span):
                strategy = kwargs.get("strategy", args[3] if len(args) > 3 else "innermost")
                c[f"sigma.{strategy}_s"] += span.end - span.start
                c["sigma.normalize_calls"] += 1
                c["sigma.steps"] += sum(b.steps for b in self.budgets)
                self.budgets.clear()
                c["sigma.input_nodes"] += oracles.node_count(args[1])
                nf = out[0] if name == "normalize_steps" else out
                c["sigma.nf_nodes"] += oracles.node_count(nf)
            return None, after
        if qualname == "proofs.Congruence.normal_form":
            def before(args, kwargs):
                cong, a = args
                return cong.system is not None and a in getattr(cong, "_nf_cache", ())

            def after(args, kwargs, out, hit, span):
                if args[0].system is not None:
                    c["proofs.nf_calls"] += 1
                    c["proofs.nf_hits"] += bool(hit)
            return before, after
        if qualname in ("syntax.parse_term", "syntax.parse_prop", "syntax.parse_signature"):
            def after(args, kwargs, out, pre, span):
                c["syntax.chars_parsed"] += len(args[0])
                c["syntax.parse_s"] += span.end - span.start
            return None, after
        if qualname in ("precook.precook", "precook.precook_prop", "precook.translate_proof"):
            def after(args, kwargs, out, pre, span):
                c["precook.nodes_translated"] += oracles.node_count(out)
            return None, after
        if qualname in ("proofs.check_binding_proof", "proofs.check_modulo_proof"):
            def after(args, kwargs, out, pre, span):
                c["proofs.nodes_checked"] += _proof_size(args[-1])
            return None, after
        if layer == "models" and name in SWEEPS:
            def after(args, kwargs, out, pre, span):
                c["models.instances_checked"] += out.checked
                c["models.sweep_s"] += span.end - span.start
            return None, after
        if layer == "models" and name in EVALS:
            def after(args, kwargs, out, pre, span):
                c["models.eval_prop_s"] += span.end - span.start
                c["models.quantified_props"] += _has_quantifier(args[1])
            return None, after
        if qualname == "cli.main":
            def after(args, kwargs, out, pre, span):
                c["cli.commands"] += 1
                c["cli.unexpected_exits"] += out != 0
            return None, after
        return None, None

    # -- results -------------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the jobs run since the last reset."""
        c, incl = self.counts, self.incl
        sigma_s = c["sigma.innermost_s"] + c["sigma.outermost_s"]
        out = {
            "sigma.steps": c["sigma.steps"],
            "sigma.innermost_s": c["sigma.innermost_s"],
            "sigma.outermost_s": c["sigma.outermost_s"],
            "sigma.steps_per_s": c["sigma.steps"] / sigma_s if sigma_s else 0.0,
            "sigma.normalize_calls": c["sigma.normalize_calls"],
            "sigma.input_nodes": c["sigma.input_nodes"],
            "sigma.nf_nodes": c["sigma.nf_nodes"],
            "syntax.chars_parsed": c["syntax.chars_parsed"],
            "syntax.parse_chars_per_s": (c["syntax.chars_parsed"] / c["syntax.parse_s"]
                                         if c["syntax.parse_s"] else 0.0),
            "syntax.alpha_eq_s": incl["syntax.alpha_eq"],
            "syntax.substitute_s": incl["syntax.substitute"],
            "syntax.well_formed_s": incl["syntax.well_formed"],
            "precook.nodes_translated": c["precook.nodes_translated"],
            "precook.translate_proof_s": incl["precook.translate_proof"],
            "precook.uncook_s": incl["precook.uncook"] + incl["precook.uncook_prop"],
            "proofs.parse_proof_s": incl["proofs.parse_proof_file"],
            "proofs.nodes_checked": c["proofs.nodes_checked"],
            "proofs.check_binding_s": incl["proofs.check_binding_proof"],
            "proofs.check_modulo_s": incl["proofs.check_modulo_proof"],
            "proofs.nf_calls": c["proofs.nf_calls"],
            "proofs.nf_cache_hit_ratio": (c["proofs.nf_hits"] / c["proofs.nf_calls"]
                                          if c["proofs.nf_calls"] else 0.0),
            "models.instances_checked": c["models.instances_checked"],
            "models.instances_per_s": (c["models.instances_checked"] / c["models.sweep_s"]
                                       if c["models.sweep_s"] else 0.0),
            "models.sweep_s": c["models.sweep_s"],
            "models.eval_prop_s": c["models.eval_prop_s"],
            "models.quantified_props": c["models.quantified_props"],
            "cli.commands": c["cli.commands"],
            "cli.unexpected_exits": c["cli.unexpected_exits"],
        }
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = self.busy[layer]
        return out

    def span_records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "job": s.job, "name": s.name,
                 "start": s.start, "end": s.end} for s in self.spans]
