"""Which program functions each layer metric is measured at, and how.

:class:`LayerProbe` installs the benchmark's wrappers on a
:class:`~tracer.Tracer` -- all through public names of the program -- and
folds the values those functions return into counts.  :func:`layer_metrics`
turns what was recorded into the per-layer metrics of ``BENCHMARK.json``.

A wrapped function that no longer exists (a later change deleted it) is
recorded as absent, and the metrics that need it are left out of the
result instead of failing the run.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from tracer import Span, Tracer, self_times

#: every per-layer metric, with its unit, in reporting order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("joinorder.phase1_ms", "ms"),
    ("collapse.calls", "count"),
    ("collapse.ms", "ms"),
    ("cost_model.calls", "count"),
    ("cost_model.ns_per_call", "ns"),
    ("search.calls", "count"),
    ("search.ms", "ms"),
    ("search.configs_per_s", "1/s"),
    ("search.configs_enumerated", "count"),
    ("search.configs_pruned", "count"),
    ("search.prune_ratio", "ratio"),
    ("search.paths_estimated", "count"),
    ("search.batch_prefiltered", "count"),
    ("serve.http.parse_ms", "ms"),
    ("serve.http.handler_ms", "ms"),
    ("serve.http.transport_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.advise_us", "us"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.searches", "count"),
    ("traces.gen_ms", "ms"),
    ("traces.failures_per_s", "1/s"),
    ("traces.extend_calls", "count"),
    ("traces.set_cache_hit_rate", "ratio"),
    ("executor.runs", "count"),
    ("executor.ms_per_run", "ms"),
    ("executor.abort_share", "ratio"),
    ("sim.failures_injected", "count"),
    ("sim.restarts.share", "count"),
    ("campaign.units", "count"),
    ("campaign.self_ms", "ms"),
    ("campaign.configure_ms", "ms"),
    ("chaos.burst_failures", "count"),
    ("workload.traffic_ms", "ms"),
    ("workload.advice_ms", "ms"),
    ("workload.admission_ms", "ms"),
    ("workload.assemble_ms", "ms"),
    ("workload.groups", "count"),
    ("workload.day_regret", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: the program's public cost-model functions (Equations 2-8)
COST_MODEL_FUNCTIONS = (
    "operator_runtime", "path_cost", "path_cost_failure_free",
    "operator_runtime_batch", "path_cost_batch",
    "path_cost_failure_free_batch", "attempts", "wasted_runtime_exact",
    "wasted_runtime_approx", "failure_probability", "success_probability",
    "cumulative_success",
)

#: the paper's four standard schemes, whose ``configure`` is timed
SCHEME_CLASSES = ("CostBased", "AllMat", "NoMatLineage", "NoMatRestart")

#: metric -> the wrapped targets it cannot be computed without
REQUIRES: Dict[str, Tuple[str, ...]] = {
    "joinorder.phase1_ms": (
        "repro.core.optimizer.FaultTolerantOptimizer.candidate_plans",),
    "collapse.calls": ("repro.core.collapse.collapse_plan",),
    "collapse.ms": ("repro.core.collapse.collapse_plan",),
    "traces.extend_calls": ("repro.engine.traces.extend_trace",),
    "workload.traffic_ms": (
        "repro.workload.tenants.generate_tenant_workload",),
    "workload.advice_ms": ("repro.workload.advisor.resolve_advice",),
    "workload.admission_ms": (
        "repro.workload.simulate.simulate_admission",),
    "workload.assemble_ms": ("repro.workload.simulate.assemble",),
}


def _trace_failures(trace: Any) -> int:
    return sum(len(node) for node in trace.node_failures)


class LayerProbe:
    """The standard wrappers, plus counts read from return values."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def _add(self, **values: float) -> None:
        with self._lock:
            for name, value in values.items():
                self.counts[name] += value

    # -- return-value hooks --------------------------------------------
    def _on_search(self, result: Any, args: tuple, kwargs: dict) -> None:
        pruning = result.pruning
        self._add(configs_total=pruning.configs_total,
                  configs_enumerated=pruning.configs_enumerated,
                  paths_estimated=pruning.paths_estimated)

    def _on_campaign(self, rows: Any, args: tuple, kwargs: dict) -> None:
        self._add(campaign_units=len(rows))

    def _on_trace_set(self, traces: Any, args: tuple,
                      kwargs: dict) -> None:
        self._add(trace_failures=sum(_trace_failures(t) for t in traces),
                  burst_failures=sum(getattr(t, "injected", 0)
                                     for t in traces))

    def _on_extend(self, trace: Any, args: tuple, kwargs: dict) -> None:
        before = args[0] if args else kwargs["trace"]
        self._add(trace_failures=_trace_failures(trace)
                  - _trace_failures(before),
                  burst_failures=getattr(trace, "injected", 0)
                  - getattr(before, "injected", 0))

    def _on_execute(self, result: Any, args: tuple, kwargs: dict) -> None:
        self._add(executed=1, aborted=int(result.aborted),
                  failures_hit=result.failures_hit,
                  share_restarts=result.share_restarts)

    def _on_day(self, result: Any, args: tuple, kwargs: dict) -> None:
        chosen = oracle = 0.0
        for group in result.groups:
            if math.isfinite(group.chosen_mean) and \
                    math.isfinite(group.oracle_mean):
                chosen += group.chosen_mean * group.arrivals
                oracle += group.oracle_mean * group.arrivals
        advice = result.advice
        self._add(groups=len(result.groups), regret_chosen=chosen,
                  regret_oracle=oracle, cache_hits=advice.hits,
                  cache_misses=advice.misses,
                  cache_evictions=advice.evictions,
                  searches=advice.searches)

    # -- installing ------------------------------------------------------
    def install(self, serve_in_process: bool = True) -> None:
        """Wrap every layer's public entry points.

        ``serve_in_process`` counts ``AdvisoryEngine.advise`` calls; the
        traced HTTP server installs its own span-recording version.
        """
        tracer = self.tracer
        span = tracer.span_wrapper
        counted = tracer.counted_wrapper
        tracer.patch_method(
            "repro.core.optimizer", "FaultTolerantOptimizer", "optimize",
            lambda f: span("optimizer.optimize", f))
        tracer.patch_method(
            "repro.core.optimizer", "FaultTolerantOptimizer",
            "candidate_plans", lambda f: span("joinorder.phase1", f))
        tracer.patch_function(
            "repro.core.enumeration", "find_best_ft_plan",
            lambda f: span("search", f, self._on_search))
        tracer.patch_function(
            "repro.core.collapse", "collapse_plan",
            lambda f: counted("collapse", f))
        for name in COST_MODEL_FUNCTIONS:
            tracer.patch_function(
                "repro.core.cost_model", name,
                lambda f: counted("cost_model", f))
        for name in SCHEME_CLASSES:
            tracer.patch_method(
                "repro.core.strategies", name, "configure",
                lambda f: span("scheme.configure", f))
        tracer.patch_function(
            "repro.engine.campaign", "run_campaign",
            lambda f: span("campaign", f, self._on_campaign))
        tracer.patch_function(
            "repro.engine.traces", "generate_trace_set",
            lambda f: span("traces.generate", f, self._on_trace_set))
        tracer.patch_function(
            "repro.engine.traces", "extend_trace",
            lambda f: span("traces.extend", f, self._on_extend))
        tracer.patch_method(
            "repro.engine.executor", "SimulatedEngine", "execute_prepared",
            lambda f: counted("executor", f, self._on_execute))
        tracer.patch_function(
            "repro.workload.simulate", "run_multitenant",
            lambda f: span("workload.day", f, self._on_day))
        tracer.patch_function(
            "repro.workload.tenants", "generate_tenant_workload",
            lambda f: span("workload.traffic", f))
        tracer.patch_function(
            "repro.workload.advisor", "resolve_advice",
            lambda f: counted("workload.advice", f))
        tracer.patch_function(
            "repro.workload.simulate", "simulate_admission",
            lambda f: span("workload.admission", f))
        tracer.patch_function(
            "repro.workload.simulate", "assemble",
            lambda f: span("workload.assemble", f))
        if serve_in_process:
            tracer.patch_method(
                "repro.serve.engine", "AdvisoryEngine", "advise",
                lambda f: counted("serve.advise", f))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _under(span: Span, name: str, by_id: Dict[int, Span]) -> bool:
    """Whether an ancestor of ``span`` is called ``name``."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) \
            if parent.parent is not None else None
    return False


def layer_metrics(
    spans: Sequence[Span],
    counted: Dict[str, Sequence[float]],
    counts: Dict[str, float],
    obs_counters: Dict[str, float],
    extra: Dict[str, float],
    absent: Iterable[str],
) -> Dict[str, float]:
    """Per-layer metrics from one traced phase.

    ``extra`` carries what only the workload knows (the HTTP split, the
    serve cache counters seen through ``/metrics``, the trace-set cache,
    coverage and overhead) and overrides the generic value.  Metrics
    whose wrapped function is absent are left out.
    """
    selfs = self_times(spans)
    by_id = {span.span_id: span for span in spans}

    def total_ms(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name) * 1e3

    def self_ms(name: str) -> float:
        return sum(selfs[s.span_id] for s in spans if s.name == name) * 1e3

    def calls(name: str) -> int:
        return int(counted.get(name, (0, 0.0))[0])

    def busy_s(name: str) -> float:
        return float(counted.get(name, (0, 0.0))[1])

    search_spans = [s for s in spans if s.name == "search"]
    search_s = sum(s.duration for s in search_spans)
    enumerated = counts.get("configs_enumerated", 0.0)
    configs_total = counts.get("configs_total", 0.0)
    gen_s = (total_ms("traces.generate") + total_ms("traces.extend")) / 1e3
    executed = counts.get("executed", 0.0)
    metrics: Dict[str, float] = {
        "joinorder.phase1_ms": total_ms("joinorder.phase1"),
        "collapse.calls": calls("collapse"),
        "collapse.ms": busy_s("collapse") * 1e3,
        "cost_model.calls": calls("cost_model"),
        "cost_model.ns_per_call":
            _ratio(busy_s("cost_model") * 1e9, calls("cost_model")),
        "search.calls": len(search_spans),
        "search.ms": self_ms("search"),
        "search.configs_per_s": _ratio(enumerated, search_s),
        "search.configs_enumerated": enumerated,
        "search.configs_pruned": configs_total - enumerated,
        "search.prune_ratio":
            _ratio(configs_total - enumerated, configs_total),
        "search.paths_estimated": counts.get("paths_estimated", 0.0),
        "search.batch_prefiltered":
            obs_counters.get("search.batch_prefiltered", 0),
        "serve.http.parse_ms": 0.0,
        "serve.http.handler_ms": 0.0,
        "serve.http.transport_ms": 0.0,
        "serve.queue_wait_ms": 0.0,
        "serve.advise_us":
            _ratio(busy_s("serve.advise") * 1e6, calls("serve.advise")),
        "serve.cache.hit_rate": _ratio(
            counts.get("cache_hits", 0.0),
            counts.get("cache_hits", 0.0) + counts.get("cache_misses", 0.0)),
        "serve.cache.hits": counts.get("cache_hits", 0.0),
        "serve.cache.misses": counts.get("cache_misses", 0.0),
        "serve.cache.evictions": counts.get("cache_evictions", 0.0),
        "serve.coalesced": obs_counters.get("serve.coalesced", 0),
        "serve.shed": obs_counters.get("serve.shed", 0),
        "serve.searches": counts.get("searches", 0.0),
        "traces.gen_ms": gen_s * 1e3,
        "traces.failures_per_s":
            _ratio(counts.get("trace_failures", 0.0), gen_s),
        "traces.extend_calls":
            sum(1 for s in spans if s.name == "traces.extend"),
        "traces.set_cache_hit_rate": 0.0,
        "executor.runs": calls("executor"),
        "executor.ms_per_run":
            _ratio(busy_s("executor") * 1e3, calls("executor")),
        "executor.abort_share": _ratio(counts.get("aborted", 0.0), executed),
        "sim.failures_injected": counts.get("failures_hit", 0.0),
        "sim.restarts.share": counts.get("share_restarts", 0.0),
        "campaign.units": counts.get("campaign_units", 0.0),
        "campaign.self_ms": self_ms("campaign"),
        "campaign.configure_ms": sum(
            s.duration for s in spans
            if s.name == "scheme.configure" and _under(s, "campaign", by_id)
        ) * 1e3,
        "chaos.burst_failures": counts.get("burst_failures", 0.0),
        "workload.traffic_ms": total_ms("workload.traffic"),
        "workload.advice_ms": busy_s("workload.advice") * 1e3,
        "workload.admission_ms": total_ms("workload.admission"),
        "workload.assemble_ms": total_ms("workload.assemble"),
        "workload.groups": counts.get("groups", 0.0),
        "workload.day_regret": _ratio(counts.get("regret_chosen", 0.0),
                                      counts.get("regret_oracle", 0.0)),
    }
    metrics.update(extra)
    missing = set(absent)
    for metric, targets in REQUIRES.items():
        if missing.intersection(targets):
            metrics.pop(metric, None)
    return metrics


def subtract_counted(after: Dict[str, Sequence[float]],
                     before: Dict[str, Sequence[float]]
                     ) -> Dict[str, List[float]]:
    """Counted calls between two snapshots of ``Tracer.counted``."""
    return {
        name: [calls - before.get(name, (0, 0.0))[0],
               seconds - before.get(name, (0, 0.0))[1]]
        for name, (calls, seconds) in after.items()
    }
