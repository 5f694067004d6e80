"""Span tracing of hvi's layers from outside the library.

``Tracer.install`` replaces every public function of the layer modules with a
recording wrapper wherever an ``hvi`` module binds it (the defining module and
every consumer that imported it by name, e.g. ``hvi.estimators.blend_integrand_parts``
and ``hvi.gradients.local_evidence_grad``), and wraps the ``LatentModel``
evaluators on the class.  ``uninstall`` restores the originals, so traced and
untraced rounds can alternate in one process.  Spans (name, start, end, parent,
info) stay in memory until ``write``; ``LayerTotals`` reduces them to the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("models", "paths", "util", "estimators", "gradients", "tuning",
          "diagnostics", "cli")
MODEL_EVALUATORS = ("log_target", "log_proposal", "grad_log_target", "grad_log_proposal")

# Which per-layer time bucket a span's self time goes to.  Spans of public
# functions not listed here (model builders, parsers) are still recorded and
# still subtract from their parent's self time.
_BUCKETS = {
    **{f"models.LatentModel.{m}": "models.eval_s" for m in MODEL_EVALUATORS},
    "models.LatentModel.sample_proposal": "models.sample_s",
    "estimators.local_evidence": "estimators.local_evidence_s",
    "estimators.local_evidence_curve": "estimators.local_evidence_s",
    "estimators.draw_batch": "estimators.draw_batch_s",
    "gradients.local_evidence_grad": "gradients.grad_s",
    "gradients.bound_grad": "gradients.grad_s",
    "gradients.finite_difference_grad": "gradients.grad_s",
    "gradients.train": "gradients.train_s",
    "diagnostics.mcmc_reference": "diagnostics.mcmc_s",
    "diagnostics.mmd": "diagnostics.mmd_s",
}
_BOUND_FUNCTIONS = ("elbo", "iw_elbo", "rvi", "eubo", "tvo", "hbo", "perturbed_hbo",
                    "wasserstein_bounds", "bound_report", "riemann_integrate",
                    "rule_weights", "parse_bound_id")
_BUCKETS.update({f"estimators.{f}": "estimators.bound_s" for f in _BOUND_FUNCTIONS})


def _bucket(name: str):
    if name in _BUCKETS:
        return _BUCKETS[name]
    layer, _, func = name.partition(".")
    if layer == "models" and func.startswith("quadrature_"):
        return "models.quadrature_s"
    if layer in ("paths", "util", "tuning", "cli"):
        return f"{layer}.s"
    return None


def _leading_size(value) -> int:
    shape = np.shape(value)
    return int(shape[0]) if shape else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _info(name: str, args, kwargs, result):
    """Exact work count (or health value) a span carries, from its inputs/outputs."""
    layer, _, func = name.partition(".")
    if func.startswith("LatentModel."):
        method = func.split(".", 1)[1]
        if method in MODEL_EVALUATORS:
            return _leading_size(result)
        if method == "sample_proposal":
            return int(_arg(args, kwargs, 2, "size"))
        return None
    if layer == "paths":
        values = _arg(args, kwargs, 1, "log_proposal")
        return int(np.size(values)) if isinstance(values, (np.ndarray, float)) else 0
    if name == "models.quadrature_grid":
        return int(np.size(result[1]))
    if name == "models.quadrature_local_evidence_curve":
        return len(_arg(args, kwargs, 2, "betas"))
    if layer == "models" and func.startswith("quadrature_"):
        return 1
    if name == "estimators.local_evidence":
        return float(result.ess)
    if name in ("tuning.tune_alpha_grid", "tuning.tune_alpha_bisect"):
        return int(result.evaluations)
    if name == "diagnostics.mcmc_reference":
        return float(result.acceptance_rate)
    if name == "diagnostics.mmd":
        na = _leading_size(np.atleast_2d(args[0]))
        nb = _leading_size(np.atleast_2d(args[1]))
        return na * na + nb * nb + na * nb
    if name == "gradients.train":
        return _arg(args, kwargs, 2, "objective").bound
    return None


class Tracer:
    """Records spans of hvi's public functions while installed."""

    def __init__(self):
        self.spans: list = []        # (name, start_ns, end_ns, parent_index, info)
        self._stack: list[int] = []
        self._patches: list = []     # (owner, attribute, original, wrapper)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter_ns(), parent, None)
                raise
            finally:
                stack.pop()
            end = perf_counter_ns()
            spans[index] = (name, start, end, parent, _info(name, args, kwargs, result))
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import hvi

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"hvi.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[value] = self._wrap(value, f"{layer}.{attr}")
        model_cls = hvi.models.LatentModel
        for method in (*MODEL_EVALUATORS, "sample_proposal"):
            fn = vars(model_cls)[method]
            wrapper = self._wrap(fn, f"models.LatentModel.{method}")
            self._patches.append((model_cls, method, fn, wrapper))
        for module_name, module in list(sys.modules.items()):
            if module_name != "hvi" and not module_name.startswith("hvi."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patches.append((module, attr, value, originals[value]))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path, extra: dict):
        """Write every span as [name, start_ns, end_ns, parent, info] plus ``extra``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": ["name", "start_ns", "end_ns", "parent", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


class LayerTotals:
    """Per-layer sums over traced rounds, mergeable across worker processes."""

    SUMS = ("models.eval_calls", "models.eval_points", "models.eval_s", "models.sample_s",
            "models.quadrature_s", "models.grid_points", "paths.calls", "paths.elements",
            "paths.s", "util.s", "estimators.local_evidence_calls",
            "estimators.local_evidence_s", "estimators.draw_batch_s", "estimators.bound_s",
            "gradients.grad_calls", "gradients.grad_s", "gradients.train_s",
            "tuning.evaluations", "tuning.s", "diagnostics.mcmc_s",
            "diagnostics.mcmc_target_evals", "diagnostics.mmd_s",
            "diagnostics.mmd_kernel_entries", "cli.s")
    LISTS = ("ess", "hbo_step_ms", "hbo_step_evals", "mcmc_acceptance")

    def __init__(self):
        self.sums = dict.fromkeys(self.SUMS, 0.0)
        self.lists = {k: [] for k in self.LISTS}

    def to_json(self) -> dict:
        return {"sums": self.sums, "lists": self.lists}

    def merge(self, data: dict):
        for k, v in data["sums"].items():
            self.sums[k] += v
        for k, v in data["lists"].items():
            self.lists[k].extend(v)

    def add_spans(self, spans):
        """Fold a list of completed spans (one or more traced rounds) into the sums."""
        sums, lists = self.sums, self.lists
        n = len(spans)
        child_ns = [0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        # Nearest enclosing span of interest, found in one forward pass because
        # a parent is always recorded before its children.
        mcmc_of = [-1] * n
        train_of = [-1] * n
        quad_of = [-1] * n
        for i, (name, start, end, parent, info) in enumerate(spans):
            if parent >= 0:
                mcmc_of[i] = mcmc_of[parent]
                train_of[i] = train_of[parent]
                quad_of[i] = quad_of[parent]
            if name == "diagnostics.mcmc_reference":
                mcmc_of[i] = i
            elif name == "gradients.train":
                train_of[i] = i
            elif name.startswith("models.quadrature_") and name != "models.quadrature_grid":
                quad_of[i] = i
            bucket = _bucket(name)
            if bucket is not None:
                sums[bucket] += (end - start - child_ns[i]) * 1e-9
            method = name.rpartition(".")[2]
            if name.startswith("models.LatentModel.") and method in MODEL_EVALUATORS:
                sums["models.eval_calls"] += 1
                sums["models.eval_points"] += info
                if method == "log_target" and mcmc_of[i] >= 0:
                    sums["diagnostics.mcmc_target_evals"] += 1
            elif name.startswith("paths."):
                sums["paths.calls"] += 1
                sums["paths.elements"] += info
            elif name == "models.quadrature_grid":
                outer = quad_of[i]
                sums["models.grid_points"] += info * (spans[outer][4] if outer >= 0 else 1)
            elif name == "estimators.local_evidence":
                sums["estimators.local_evidence_calls"] += 1
                if info is not None:
                    lists["ess"].append(info)
            elif name == "gradients.local_evidence_grad":
                sums["gradients.grad_calls"] += 1
            elif name in ("tuning.tune_alpha_grid", "tuning.tune_alpha_bisect"):
                sums["tuning.evaluations"] += info or 0
            elif name == "diagnostics.mcmc_reference" and info is not None:
                lists["mcmc_acceptance"].append(info)
            elif name == "diagnostics.mmd":
                sums["diagnostics.mmd_kernel_entries"] += info or 0
        self._hbo_steps(spans, train_of)

    def _hbo_steps(self, spans, train_of):
        """Per-step wall time and model-evaluation count inside HBO training.

        A step runs from one draw_batch call of ``train`` to the next, so it
        covers that step's value, gradient and update.
        """
        draws = defaultdict(list)
        evals = defaultdict(list)
        for i, (name, start, end, parent, info) in enumerate(spans):
            owner = train_of[i]
            if owner < 0 or owner == i or spans[owner][4] != "hbo":
                continue
            if name == "estimators.draw_batch" and parent == owner:
                draws[owner].append(start)
            elif (name.startswith("models.LatentModel.")
                  and name.rpartition(".")[2] in MODEL_EVALUATORS):
                evals[owner].append(start)
        for owner, starts in draws.items():
            counts = [0] * len(starts)
            for t in evals[owner]:
                counts[bisect.bisect_right(starts, t) - 1] += 1
            self.lists["hbo_step_ms"].extend((b - a) * 1e-6 for a, b in zip(starts, starts[1:]))
            # the last draw only scores the final parameters; it is no step
            self.lists["hbo_step_evals"].extend(counts[:-1])

    def metrics(self, rounds: int, out_bytes: float, traced_s: float, untraced_s: float,
                cpu_s: float, wall_s: float) -> dict:
        """Per-layer metrics per traced round, in BENCHMARK.json's names."""
        per = {k: v / rounds for k, v in self.sums.items()}
        lists = self.lists

        def p(key, q):
            return float(np.percentile(lists[key], q)) if lists[key] else 0.0

        per["paths.ns_per_element"] = (self.sums["paths.s"] * 1e9 / self.sums["paths.elements"]
                                       if self.sums["paths.elements"] else 0.0)
        per["estimators.ess_min"] = min(lists["ess"]) if lists["ess"] else 0.0
        per["estimators.ess_p50"] = p("ess", 50)
        per["gradients.model_evals_per_step"] = p("hbo_step_evals", 50)
        per["gradients.step_ms_p50"] = p("hbo_step_ms", 50)
        per["gradients.step_ms_p90"] = p("hbo_step_ms", 90)
        per["diagnostics.mcmc_acceptance"] = (statistics.fmean(lists["mcmc_acceptance"])
                                              if lists["mcmc_acceptance"] else 0.0)
        per["cli.out_bytes"] = out_bytes / rounds
        per["trace.overhead_ratio"] = traced_s / untraced_s
        per["process.cpu_per_wall"] = cpu_s / wall_s
        return per
