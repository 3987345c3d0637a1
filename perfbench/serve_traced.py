"""``python -m repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json --port 0 [serve options]

Used by the traced run of ``advise-http``: the server records spans for
each request (handler, parse, submit, the engine's ``advise`` on the
worker thread, search), counts calls into the cost model and the other
layers, and on exit (SIGINT) writes them to ``SPANS.json``.  A request
is identified by the client's ``X-Request-Id`` header.  Each
``GET /metrics`` takes a snapshot of the counts, so the client can
subtract the warm-up.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import LayerProbe
from tracer import Span, Tracer

SERVER_ID_BASE = 10 ** 9


def install_http(tracer: Tracer, probe: LayerProbe,
                 snapshots: List[Dict[str, Any]],
                 waits: List[Tuple[int, float]]) -> None:
    """Wrap the HTTP handler and the engine's queue hand-off."""
    lock = threading.Lock()
    #: id(plan) of a submitted request -> (submit time, handler span)
    submitted: Dict[int, Tuple[float, Optional[Span]]] = {}

    def do_post(original: Callable) -> Callable:
        def traced(handler: Any) -> Any:
            try:
                request = int(handler.headers.get("X-Request-Id", "-1"))
            except ValueError:
                request = -1
            span = tracer.open("serve.http.handler", request=request)
            try:
                return original(handler)
            finally:
                tracer.close(span)
        return traced

    def do_get(original: Callable) -> Callable:
        def traced(handler: Any) -> Any:
            if handler.path == "/metrics":
                with lock:
                    snapshots.append({
                        "time": tracer.clock(),
                        "counts": dict(probe.counts),
                        "counted": {name: list(value) for name, value
                                    in tracer.counted.items()},
                    })
            return original(handler)
        return traced

    def submit(original: Callable) -> Callable:
        def traced(engine: Any, plan: Any, *args: Any, **kwargs: Any) -> Any:
            with lock:
                submitted[id(plan)] = (tracer.clock(), tracer.current())
            span = tracer.open("serve.submit")
            try:
                return original(engine, plan, *args, **kwargs)
            except BaseException:
                with lock:
                    submitted.pop(id(plan), None)
                raise
            finally:
                tracer.close(span)
        return traced

    def advise(original: Callable) -> Callable:
        def traced(engine: Any, plan: Any, *args: Any, **kwargs: Any) -> Any:
            now = tracer.clock()
            with lock:
                entry = submitted.pop(id(plan), None)
            parent = None
            if entry is not None:
                parent = entry[1]
                if parent is not None:
                    waits.append((parent.request, now - entry[0]))
            span = tracer.open("serve.advise", parent=parent)
            try:
                return original(engine, plan, *args, **kwargs)
            finally:
                tracer.close(span)
        return traced

    tracer.patch_method("repro.serve.app", "AdvisoryRequestHandler",
                        "do_POST", do_post)
    tracer.patch_method("repro.serve.app", "AdvisoryRequestHandler",
                        "do_GET", do_get)
    tracer.patch_function(
        "repro.serve.app", "parse_advise_body",
        lambda f: tracer.span_wrapper("serve.http.parse", f))
    tracer.patch_method("repro.serve.engine", "AdvisoryEngine", "submit",
                        submit)
    tracer.patch_method("repro.serve.engine", "AdvisoryEngine", "advise",
                        advise)


def main(argv: List[str]) -> int:
    import repro.cli
    from repro import obs

    spans_path = Path(argv[0])
    tracer = Tracer(id_base=SERVER_ID_BASE)
    probe = LayerProbe(tracer)
    snapshots: List[Dict[str, Any]] = []
    waits: List[Tuple[int, float]] = []
    probe.install(serve_in_process=False)
    install_http(tracer, probe, snapshots, waits)
    try:
        with obs.recording():
            return repro.cli.main(["serve", *argv[1:]])
    finally:
        tracer.restore()
        spans_path.write_text(json.dumps({
            "spans": [span.to_dict() for span in tracer.spans],
            "snapshots": snapshots,
            "waits": waits,
            "absent": tracer.absent,
        }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
