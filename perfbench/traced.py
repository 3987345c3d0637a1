"""The traced run: wrap the layers, run a fixed amount of work, put the
program back, and turn what was recorded into per-layer metrics."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import percentile
from layers import LayerProbe, layer_metrics, subtract_counted
from tracer import Span, Tracer, covered_s
from workloads import AdviseHttp, Measurement

OUT = Path(__file__).resolve().parent / "out"


def trace_cache_counts() -> Dict[str, int]:
    """The trace-set cache counters, or nothing when the function is gone."""
    from repro.engine import traces

    stats = getattr(traces, "trace_cache_stats", None)
    return stats() if stats is not None else {}


def run(workload: Any, ops: int
        ) -> Tuple[Dict[str, float], Measurement, List[str], Dict[str, Any]]:
    from repro import obs

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    probe = LayerProbe(tracer)
    stem = f"{workload.name}-seed{workload.seed}"
    if isinstance(workload, AdviseHttp):
        workload.spans_path = OUT / f"{stem}-server-spans.json"
        workload.tracer = tracer
    try:
        workload.setup()
        cache_before = trace_cache_counts()
        probe.install()
        try:
            with obs.recording() as recorder:
                measurement = workload.measure(None, ops)
        finally:
            tracer.restore()
        if tracer.installed:
            raise RuntimeError("layer wrappers were not all removed")
        cache_after = trace_cache_counts()
        problems = workload.check()
    finally:
        workload.teardown()
    obs_counters = dict(recorder.summary()["counters"])
    start, end = measurement.start, measurement.end
    extra: Dict[str, float] = {
        "trace.coverage":
            covered_s(tracer.spans, start, end) / measurement.wall_s,
    }
    if cache_after:
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        extra["traces.set_cache_hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    spans: List[Span] = list(tracer.spans)
    counted: Dict[str, Any] = tracer.counted
    counts: Dict[str, float] = dict(probe.counts)
    absent = list(tracer.absent)
    if isinstance(workload, AdviseHttp):
        server = json.loads(workload.spans_path.read_text())
        server_spans = [
            span for span in map(Span.from_dict, server["spans"])
            if span.request is not None and span.request >= 0
            and start <= span.start <= end
        ]
        spans += server_spans
        before, after = server["snapshots"][0], server["snapshots"][-1]
        counted = subtract_counted(after["counted"], before["counted"])
        counts = {name: value - before["counts"].get(name, 0.0)
                  for name, value in after["counts"].items()}
        obs_counters = {
            name: value - workload.metrics_before.get(
                "counters", {}).get(name, 0)
            for name, value in workload.metrics_after.get(
                "counters", {}).items()
        }
        absent += server["absent"]
        extra.update(workload.cache_delta())
        extra.update(http_split(workload, server_spans, server["waits"]))
    metrics = layer_metrics(spans, counted, counts, obs_counters, extra,
                            absent)
    (OUT / f"{stem}-trace1-spans.json").write_text(json.dumps(
        [span.to_dict() for span in spans]))
    details = {
        "spans": len(spans),
        "absent": sorted(set(absent)),
        "wall_s": measurement.wall_s,
        "ops": ops,
    }
    return metrics, measurement, problems, details


def http_split(workload: AdviseHttp, server_spans: List[Span],
               waits: List[List[float]]) -> Dict[str, float]:
    """Where one ``POST /advise`` spends its time, per request (p50).

    The handler span runs on the server from parsing the request line to
    writing the response; whatever the client waited beyond it is
    transport: the socket, the kernel and the client's own HTTP code.
    """
    handler = {s.request: s.duration for s in server_spans
               if s.name == "serve.http.handler"}
    parse = [s.duration for s in server_spans
             if s.name == "serve.http.parse"]
    advise = [s.duration for s in server_spans if s.name == "serve.advise"]
    transport = [
        (end - begin) - handler[request]
        for request, begin, end in workload.request_times
        if request in handler
    ]
    measured = [wait for request, wait in waits if request >= 0]
    return {
        "serve.http.parse_ms": percentile(parse, 50) * 1e3 if parse else 0.0,
        "serve.http.handler_ms":
            percentile(list(handler.values()), 50) * 1e3 if handler else 0.0,
        "serve.http.transport_ms":
            percentile(transport, 50) * 1e3 if transport else 0.0,
        "serve.queue_wait_ms":
            sum(measured) / len(measured) * 1e3 if measured else 0.0,
        "serve.advise_us":
            sum(advise) / len(advise) * 1e6 if advise else 0.0,
    }
