"""In-memory spans around calls into cgkit's public functions.

The traced run replaces each function below with a wrapper at every place
the name is bound: modules copy names at import (``from .models import
enumerate_model``), so patching only the defining module would miss calls
made through those copies.  A function missing from the program is reported
as absent and its metrics read 0.

Spans are (name, op, start, end, parent) tuples kept in a list; a span's
self time is its duration minus the durations of the spans directly under it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (span name, module, attribute path) of every traced function
TARGETS = (
    ("cli.run", "cgkit.cli", "run"),
    ("fileformat.parse", "cgkit.fileformat", "parse"),
    ("fileformat.serialize", "cgkit.fileformat", "serialize"),
    ("graph.validate", "cgkit.graph", "validate"),
    ("determinism.determined_set", "cgkit.determinism", "determined_set"),
    ("separation.amp_separated", "cgkit.separation", "amp_separated"),
    ("separation.lwf_separated", "cgkit.separation", "lwf_separated"),
    ("separation.amp_witness", "cgkit.separation", "amp_witness"),
    ("separation.lwf_witness", "cgkit.separation", "lwf_witness"),
    ("separation.amp_connectivity", "cgkit.separation", "amp_connectivity"),
    ("separation.lwf_connectivity", "cgkit.separation", "lwf_connectivity"),
    ("models.enumerate_model", "cgkit.models", "enumerate_model"),
    ("models.project_model", "cgkit.models", "project_model"),
    ("models.model_diff", "cgkit.models", "model_diff"),
    ("models.IndependenceModel.__eq__", "cgkit.models", "IndependenceModel.__eq__"),
    ("transforms.to_eamp", "cgkit.transforms", "to_eamp"),
    ("transforms.to_selection_dag", "cgkit.transforms", "to_selection_dag"),
    ("transforms.marginalize_eamp", "cgkit.transforms", "marginalize_eamp"),
    ("gaussian.sample_system", "cgkit.gaussian", "sample_system"),
    ("gaussian.joint_covariance", "cgkit.gaussian", "joint_covariance"),
    ("gaussian.markov_check", "cgkit.gaussian", "markov_check"),
)

ENUMERATE = "models.enumerate_model"


class Tracer:
    """Wraps the TARGETS, records spans while ``on``, and counts problem sizes."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.on = True
        self.op = -1
        self.counters = {"connected": 0, "triples": 0, "pcor_checks": 0}
        self.dz_seen = set()
        self.absent = []
        self._undo = []
        self._hooks = {
            "determinism.determined_set": self._on_closure,
            "separation.amp_separated": self._on_verdict,
            "separation.lwf_separated": self._on_verdict,
            ENUMERATE: self._on_enumerate,
            "gaussian.markov_check": self._on_markov,
        }

    # -- result hooks: problem sizes, counted where the work happens

    def _on_closure(self, args, result):
        # D(Z) memo scope: one enumeration, or one determination table
        scope = next((i for i in reversed(self.stack) if self.spans[i][0] == ENUMERATE), None)
        key = ("enum", scope) if scope is not None else ("table", args[0] if args else None)
        self.dz_seen.add((key, frozenset(result)))

    def _on_verdict(self, args, result):
        if not result:
            self.counters["connected"] += 1

    def _on_enumerate(self, args, result):
        try:
            self.counters["triples"] += len(result)
        except TypeError:  # a model type without a size is counted as 0
            pass

    def _on_markov(self, args, result):
        self.counters["pcor_checks"] += getattr(result, "n_checks", 0)

    def wrap(self, name, fn):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append((name, self.op, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, self.op, start, end, spans[idx][4])
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self):
        for modname in sorted({t[1] for t in TARGETS}):
            try:
                importlib.import_module(modname)
            except ImportError:  # a module gone from cgkit: its targets are absent
                pass
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "cgkit" or n.startswith("cgkit."))]
        for name, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            # a method is bound on its class; a function wherever a module copied it
            for site in [owner] if len(parts) > 1 else loaded:
                for key, val in list(vars(site).items()):
                    if val is original:
                        setattr(site, key, wrapper)
                        self._undo.append((site, key, original))

    def uninstall(self):
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s, cli_runs = {}, {}, {}, []
        for i, (name, _, start, end, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            if name == "cli.run":
                cli_runs.append(end - start)
        counters = dict(self.counters)
        counters["distinct_dz"] = len(self.dz_seen)
        return {"calls": calls, "incl": incl, "self": self_s, "counters": counters,
                "cli_run_s": cli_runs, "absent": list(self.absent)}


def merge(summaries) -> dict:
    """Sum several summaries, e.g. one per CLI child process."""
    out = {"calls": {}, "incl": {}, "self": {}, "counters": {}, "cli_run_s": [], "absent": []}
    for s in summaries:
        for part in ("calls", "incl", "self", "counters"):
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
        out["cli_run_s"].extend(s["cli_run_s"])
        out["absent"] = sorted(set(out["absent"]) | set(s["absent"]))
    return out


def layer_metrics(s: dict, interpreter_s, import_s, run_s, ops: int, graphs: int) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json, from one summary.

    Times are inclusive seconds summed over the run, except the cli.* medians
    per invocation and models.enumerate_self_s.
    """
    calls, incl, self_s, c = s["calls"], s["incl"], s["self"], s["counters"]

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    def ms(xs):
        return statistics.median(xs) * 1000 if xs else 0.0

    verdicts = n("separation.amp_separated", "separation.lwf_separated")
    closures = n("determinism.determined_set")
    enum_s = t(ENUMERATE)
    return {
        "cli.interpreter_ms": (ms(interpreter_s), "ms"),
        "cli.import_ms": (ms(import_s), "ms"),
        "cli.run_ms": (ms(run_s), "ms"),
        "fileformat.parse_s": (t("fileformat.parse"), "s"),
        "fileformat.serialize_s": (t("fileformat.serialize"), "s"),
        "graph.validate_s": (t("graph.validate"), "s"),
        "determinism.closure_s": (t("determinism.determined_set"), "s"),
        "determinism.closure_calls": (closures, "count"),
        "determinism.distinct_dz": (c.get("distinct_dz", 0), "count"),
        "determinism.distinct_dz_ratio": (c.get("distinct_dz", 0) / closures if closures else 0.0, "ratio"),
        "separation.amp_verdict_s": (t("separation.amp_separated"), "s"),
        "separation.lwf_verdict_s": (t("separation.lwf_separated"), "s"),
        "separation.witness_s": (t("separation.amp_witness", "separation.lwf_witness"), "s"),
        "separation.connected_frac": (c.get("connected", 0) / verdicts if verdicts else 0.0, "ratio"),
        "separation.amp_connectivity_s": (t("separation.amp_connectivity"), "s"),
        "separation.lwf_connectivity_s": (t("separation.lwf_connectivity"), "s"),
        "separation.connectivity_calls": (n("separation.amp_connectivity", "separation.lwf_connectivity"), "count"),
        "models.enumerate_s": (enum_s, "s"),
        "models.enumerate_self_s": (self_s.get(ENUMERATE, 0.0), "s"),
        "models.triples": (c.get("triples", 0), "count"),
        "models.triples_per_s": (c.get("triples", 0) / enum_s if enum_s else 0.0, "1/s"),
        "models.project_s": (t("models.project_model"), "s"),
        "models.compare_s": (t("models.IndependenceModel.__eq__", "models.model_diff"), "s"),
        "transforms.to_eamp_s": (t("transforms.to_eamp"), "s"),
        "transforms.to_dag_s": (t("transforms.to_selection_dag"), "s"),
        "transforms.marginalize_s": (t("transforms.marginalize_eamp"), "s"),
        "gaussian.sample_s": (t("gaussian.sample_system"), "s"),
        "gaussian.covariance_s": (t("gaussian.joint_covariance"), "s"),
        "gaussian.markov_check_s": (t("gaussian.markov_check"), "s"),
        "gaussian.pcor_checks": (c.get("pcor_checks", 0), "count"),
        "bench.ops": (ops, "count"),
        "bench.graphs": (graphs, "count"),
        "bench.wrapped_calls": (sum(calls.values()), "count"),
    }
