"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import REFERENCE_NOMINAL_S, HostSpeed, percentile  # noqa: E402
from layers import LayerProbe  # noqa: E402
from serve_traced import install_http  # noqa: E402
from tracer import Span, Tracer, covered_s, self_times, union_length  # noqa: E402
from workloads import (  # noqa: E402
    OptimizeCold,
    advise_plans,
    advise_requests,
    optimize_requests,
)


# -- seeded inputs ---------------------------------------------------------
def test_optimize_requests_follow_the_seed():
    def stream(seed):
        return "\n".join(repr(r) for r in optimize_requests(seed, 60))

    assert stream(3).encode() == stream(3).encode()
    assert stream(3) != stream(4)


def test_advise_request_bytes_follow_the_seed():
    plans = advise_plans()

    def stream(seed):
        return b"".join(r.body for r in advise_requests(seed, 50, plans))

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)


def test_optimize_mix_is_exact_per_block():
    kinds = [r.kind for r in optimize_requests(9, 200)]
    assert kinds.count("synthetic") == 30
    assert kinds.count("Q5") == 120
    assert kinds.count("Q3") == 50


# -- percentiles -----------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(list(range(100)), 95)  # 5 samples beyond p95
    assert percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        percentile(list(range(50)), 99)


def test_median_needs_no_tail():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        percentile([], 50)


# -- host speed ------------------------------------------------------------
def test_each_operation_is_scaled_by_the_speed_around_it():
    host = HostSpeed()
    unit = REFERENCE_NOMINAL_S
    # nominal speed early in the run, half speed late in it
    host.batches = [(0.0, 10 * unit, 10), (20.0, 20.0 + 20 * unit, 10)]
    host.units, host.spent_s = 20, 30 * unit
    early, late, between = host.scale_each([0.5, 19.0, 10.0],
                                           [0.5, 0.5, 0.5])
    assert early == pytest.approx(0.5)
    assert late == pytest.approx(0.25)
    # nothing measured within reach: the run's slowdown (1.5) applies
    assert between == pytest.approx(0.5 / 1.5)


def test_calibration_keeps_pace_with_the_work():
    host = HostSpeed()
    host.keep_up(0.2)
    assert host.spent_s >= host.duty * 0.2
    assert host.units == sum(units for _, _, units in host.batches)
    spent = host.spent_s
    host.keep_up(0.2)  # already caught up: nothing runs
    assert host.spent_s == spent


# -- span arithmetic ---------------------------------------------------------
def span(span_id, start, end, parent=None, counted=0.0, thread=0):
    return Span(span_id, f"s{span_id}", start, end, parent=parent,
                thread=thread, counted_child_s=counted)


def test_self_time_of_a_hand_built_tree():
    spans = [
        span(1, 0.0, 10.0, counted=1.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 3.0, 6.0, parent=1, thread=1),  # overlaps 2: counted once
        span(4, 1.0, 2.0, parent=2),
        span(5, 9.0, 12.0, parent=1),           # clipped to the parent
        span(6, 20.0, 25.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(5.0)


def test_union_and_coverage():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    spans = [span(1, 0.0, 4.0), span(2, 1.0, 2.0, parent=1),
             span(3, 6.0, 12.0)]
    assert covered_s(spans, 0.0, 10.0) == pytest.approx(8.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_counted_calls_are_charged_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner_span():
        clock.now += 2.0

    def counted_body():
        clock.now += 1.0
        traced_inner()
        clock.now += 1.0

    traced_inner = tracer.span_wrapper("inner", inner_span)
    counted = tracer.counted_wrapper("layer", counted_body)
    outer = tracer.open("outer")
    counted()
    clock.now += 3.0
    tracer.close(outer)
    selfs = self_times(tracer.spans)
    assert tracer.counted["layer"] == [1, pytest.approx(4.0)]
    assert selfs[outer.span_id] == pytest.approx(7.0 - 2.0 - 2.0)


# -- wrappers are removed ------------------------------------------------------
def bindings():
    """Every callable ``repro`` module and class attribute, by identity."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if callable(value):
                found[(name, key)] = value
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if callable(member):
                        found[(name, key, attr)] = member
    return found


def test_every_wrapper_is_removed_after_a_traced_run():
    import traced

    for module in ("repro.serve.app", "repro.workload", "repro.engine",
                   "repro.core"):
        importlib.import_module(module)
    before = bindings()
    workload = OptimizeCold(seed=1, seconds=1.0, root=HERE.parent)
    traced.run(workload, 3)
    tracer = Tracer()
    install_http(tracer, LayerProbe(tracer), [], [])
    assert tracer.installed > 0
    tracer.restore()
    after = bindings()
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []


def test_a_missing_target_is_reported_absent():
    tracer = Tracer()
    assert not tracer.patch_function("repro.core.cost_model",
                                     "no_such_function", lambda f: f)
    assert not tracer.patch_method("repro.no_such_module", "X", "y",
                                   lambda f: f)
    assert tracer.absent == ["repro.core.cost_model.no_such_function",
                             "repro.no_such_module.X.y"]
    assert tracer.installed == 0
