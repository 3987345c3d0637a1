"""Unit tests for the observability layer (repro.obs).

Covers the recorder primitives (spans, counters, gauges), the
cross-process snapshot/merge protocol, the three exporters, and the
module-level no-op facade used by the instrumented hot paths.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import obs
from repro.obs.export import to_chrome_trace, to_json, to_text
from repro.obs.recorder import Recorder, RecorderSnapshot


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


class TestRecorder:
    def test_span_tree_and_ids(self):
        rec = Recorder()
        with rec.span("outer", kind="test"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        spans = rec.spans
        assert [s.name for s in spans] == ["outer", "inner", "inner"]
        outer = spans[0]
        assert outer.parent_id is None
        assert all(s.parent_id == outer.span_id for s in spans[1:])
        assert len({s.span_id for s in spans}) == 3
        assert outer.attrs["kind"] == "test"

    def test_span_times_are_ordered(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        span = rec.spans[0]
        assert span.end is not None
        assert 0.0 <= span.start <= span.end
        assert span.duration == span.end - span.start

    def test_span_set_attrs_after_open(self):
        rec = Recorder()
        with rec.span("s") as handle:
            handle.set(result=42)
        assert rec.spans[0].attrs["result"] == 42

    def test_counters_sum_and_gauges_overwrite(self):
        rec = Recorder()
        rec.add("hits")
        rec.add("hits", 2)
        rec.gauge("temp", 1.0)
        rec.gauge("temp", 7.5)
        assert rec.counters["hits"] == 3
        assert rec.gauges["temp"] == 7.5

    def test_exception_still_closes_span(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert rec.spans[0].end is not None

    def test_summary_aggregates_by_name(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("step"):
                pass
        rec.add("n", 5)
        summary = rec.summary()
        assert summary["counters"] == {"n": 5}
        assert summary["spans"]["step"]["count"] == 3
        assert summary["spans"]["step"]["total_s"] >= 0.0


class TestSnapshotMerge:
    def _child_snapshot(self) -> RecorderSnapshot:
        child = Recorder()
        with child.span("work", item=1):
            with child.span("sub"):
                pass
        child.add("done", 2)
        child.gauge("load", 0.5)
        return child.snapshot()

    def test_snapshot_is_picklable(self):
        snap = self._child_snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap

    def test_merge_sums_counters_and_remaps_spans(self):
        parent = Recorder()
        parent.add("done", 1)
        with parent.span("campaign"):
            parent.merge(self._child_snapshot(), track="w0")
        assert parent.counters["done"] == 3
        assert parent.gauges["load"] == 0.5
        names = [s.name for s in parent.spans]
        assert names == ["campaign", "work", "sub"]
        campaign, work, sub = parent.spans
        # child roots re-parent under the open span; ids stay unique
        assert work.parent_id == campaign.span_id
        assert sub.parent_id == work.span_id
        assert len({s.span_id for s in parent.spans}) == 3
        assert work.track == "w0"
        assert sub.track == "w0"

    def test_merge_outside_any_span_keeps_roots(self):
        parent = Recorder()
        parent.merge(self._child_snapshot(), track="w1")
        assert parent.spans[0].parent_id is None

    def test_merge_is_order_invariant_for_counters(self):
        a, b = self._child_snapshot(), self._child_snapshot()
        left, right = Recorder(), Recorder()
        left.merge(a)
        left.merge(b)
        right.merge(b)
        right.merge(a)
        assert left.counters == right.counters

    def test_ids_keep_advancing_after_merge(self):
        parent = Recorder()
        parent.merge(self._child_snapshot())
        with parent.span("after"):
            pass
        assert len({s.span_id for s in parent.spans}) == len(parent.spans)


class TestExporters:
    def _recorder(self) -> Recorder:
        rec = Recorder()
        with rec.span("root", q="Q5"):
            with rec.span("leaf"):
                pass
        rec.add("count", 4)
        rec.gauge("g", 2.0)
        return rec

    def test_text_contains_tree_and_counters(self):
        text = to_text(self._recorder())
        assert "root" in text and "leaf" in text
        assert "count" in text and "4" in text
        # the child is indented under its parent
        lines = text.splitlines()
        root_line = next(line for line in lines if "root" in line)
        leaf_line = next(line for line in lines if "leaf" in line)
        assert len(leaf_line) - len(leaf_line.lstrip()) > \
            len(root_line) - len(root_line.lstrip())

    def test_json_round_trips(self):
        payload = json.loads(to_json(self._recorder()))
        assert payload["format"] == "repro-obs/1"
        assert payload["counters"] == {"count": 4}
        assert len(payload["spans"]) == 2

    def test_chrome_trace_shape(self):
        trace = json.loads(to_chrome_trace(self._recorder()))
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"root", "leaf"}
        for event in complete:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert any(e["ph"] == "M" for e in events)      # track names
        counter_events = [e for e in events if e["ph"] == "C"]
        assert counter_events and counter_events[0]["name"] == "count"
        assert counter_events[0]["args"] == {"value": 4}
        assert trace["otherData"]["gauges"] == {"g": 2.0}

    def test_chrome_trace_nested_spans_within_parent_bounds(self):
        trace = json.loads(to_chrome_trace(self._recorder()))
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e["ph"] == "X"}
        root, leaf = by_name["root"], by_name["leaf"]
        assert root["ts"] <= leaf["ts"]
        assert leaf["ts"] + leaf["dur"] <= root["ts"] + root["dur"] + 1


class TestModuleFacade:
    def test_disabled_helpers_are_noops(self):
        assert not obs.enabled()
        assert obs.get_recorder() is None
        obs.add("x")                     # silently dropped
        obs.gauge("y", 1.0)
        with obs.span("z", a=1) as handle:
            handle.set(b=2)              # null span accepts set()
        assert obs.summary() == {"counters": {}, "gauges": {}, "spans": {}}

    def test_disabled_span_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b")

    def test_recording_scopes_and_restores(self):
        outer = obs.enable()
        with obs.recording() as inner:
            assert obs.get_recorder() is inner
            assert inner is not outer
            obs.add("k")
        assert obs.get_recorder() is outer
        assert "k" not in outer.counters

    def test_enabled_helpers_record(self):
        with obs.recording() as rec:
            obs.add("c", 2)
            obs.gauge("g", 3.0)
            with obs.span("s", x=1):
                pass
            assert obs.enabled()
        assert rec.counters["c"] == 2
        assert rec.gauges["g"] == 3.0
        assert rec.spans[0].name == "s"

    def test_export_helpers_require_a_recorder(self):
        with pytest.raises(RuntimeError, match="no recorder"):
            obs.export_text()

    def test_write_chrome_trace(self, tmp_path):
        with obs.recording():
            with obs.span("s"):
                pass
            path = tmp_path / "trace.json"
            obs.write_chrome_trace(str(path))
        trace = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])


class TestRecorderThreadSafety:
    """The advisory service mutates one Recorder from many threads."""

    def test_concurrent_counter_hammer_loses_no_increments(self):
        import threading

        recorder = Recorder()
        threads_n, per_thread = 8, 2000
        barrier = threading.Barrier(threads_n)

        def hammer(index: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                recorder.add("shared", 1)
                recorder.add(f"private.{index}", 2)
                recorder.gauge("level", float(i))

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.counters["shared"] == threads_n * per_thread
        for index in range(threads_n):
            assert recorder.counters[f"private.{index}"] == 2 * per_thread
        assert recorder.gauges["level"] == float(per_thread - 1)

    def test_concurrent_spans_all_close(self):
        import threading

        recorder = Recorder()
        threads_n, per_thread = 6, 200
        barrier = threading.Barrier(threads_n)
        errors = []

        def nest(index: int) -> None:
            try:
                barrier.wait()
                for i in range(per_thread):
                    with recorder.span(f"outer.{index}", i=i):
                        with recorder.span(f"inner.{index}"):
                            recorder.add("spanned")
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=nest, args=(index,))
            for index in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        spans = recorder.snapshot().spans
        assert len(spans) == threads_n * per_thread * 2
        assert all(span.end is not None for span in spans)
        assert recorder.counters["spanned"] == threads_n * per_thread

    def test_span_parents_never_cross_threads(self):
        import threading

        recorder = Recorder()
        threads_n, depth = 4, 3
        barrier = threading.Barrier(threads_n)
        errors = []

        def nest(index: int, level: int = 0) -> None:
            # every thread opens its level-k span before any thread opens
            # level k+1, so one shared stack would parent across threads
            barrier.wait()
            if level == depth:
                return
            with recorder.span(f"level{level}", thread=index):
                nest(index, level + 1)
                barrier.wait()

        def run(index: int) -> None:
            try:
                nest(index)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        spans = {span.span_id: span for span in recorder.snapshot().spans}
        assert len(spans) == threads_n * depth
        for span in spans.values():
            assert span.end is not None
            level = int(span.name[len("level"):])
            if level == 0:
                assert span.parent_id is None
            else:
                parent = spans[span.parent_id]
                assert parent.attrs["thread"] == span.attrs["thread"]
                assert parent.name == f"level{level - 1}"

    def test_merge_anchors_under_calling_threads_span(self):
        import threading

        child = Recorder()
        with child.span("work"):
            pass
        snapshot = child.snapshot()
        recorder = Recorder()
        with recorder.span("main") as main:
            # a thread with no open span merges at the root, even while
            # another thread has a span open
            worker = threading.Thread(target=recorder.merge,
                                      args=(snapshot,))
            worker.start()
            worker.join()
            recorder.merge(snapshot)
        merged = [span for span in recorder.spans if span.name == "work"]
        assert [span.parent_id for span in merged] == \
            [None, main.record.span_id]

    def test_snapshot_during_mutation_is_consistent(self):
        import threading

        recorder = Recorder()
        done = threading.Event()
        errors = []

        def mutate() -> None:
            try:
                for i in range(500):
                    recorder.add("m")
                    recorder.gauge("g", float(i))
                    with recorder.span("s"):
                        pass
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        def observe() -> None:
            try:
                while not done.is_set():
                    snap = recorder.snapshot()
                    # a snapshot must pickle (shipped across the pool)
                    pickle.loads(pickle.dumps(snap))
                    recorder.summary()
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        writers = [threading.Thread(target=mutate) for _ in range(3)]
        reader = threading.Thread(target=observe)
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        done.set()
        reader.join()
        assert not errors
        assert recorder.counters["m"] == 3 * 500
