"""Span tracing from outside the program.

The benchmark measures per-layer time without touching ``src/``: it
replaces public functions and methods of the program with wrappers that
record what each call did, runs the workload, and puts the originals
back.  Two kinds of wrapper exist:

* a *span* records one interval per call (name, start, end, parent span,
  request id, thread), kept in memory and written out when the run ends;
* a *counted* call only adds to a per-name call count and busy time.  It
  is for functions called hundreds of thousands of times (the cost
  model, the executor), where one record per call would cost more than
  the call.  Its time is still charged to the span that encloses it, so
  self times stay right.

A wrapper can also hand each return value to a callback, which is how
counts are read from the program's own return values (pruning stats,
execution results, generated traces).

Replacing a function means replacing every reference to it: a function
imported with ``from x import f`` is bound in many module namespaces, so
:meth:`Tracer.patch_function` rebinds each ``repro.*`` module attribute
that *is* the original object, and :meth:`Tracer.restore` rebinds them
all back.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Clock = Callable[[], float]
ResultHook = Callable[[Any, tuple, dict], None]


@dataclass
class Span:
    """One recorded interval.  Times are ``time.perf_counter`` seconds,
    which is CLOCK_MONOTONIC on Linux and so comparable across the
    processes of one host."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[int] = None
    thread: int = 0
    #: busy time of counted calls made directly inside this span
    counted_child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent,
            "request": self.request, "thread": self.thread,
            "counted_child_s": self.counted_child_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            span_id=data["id"], name=data["name"], start=data["start"],
            end=data["end"], parent=data["parent"],
            request=data["request"], thread=data["thread"],
            counted_child_s=data["counted_child_s"],
        )


class _CountedFrame:
    """A counted call in progress on one thread."""

    __slots__ = ("name", "enclosing", "span_child_s")

    def __init__(self, name: str, enclosing: Optional[Span]) -> None:
        self.name = name
        self.enclosing = enclosing
        #: duration of spans opened directly under ``enclosing`` while
        #: this call ran
        self.span_child_s = 0.0


class Tracer:
    """Records spans and counted calls; installs and removes wrappers."""

    def __init__(self, clock: Clock = time.perf_counter,
                 id_base: int = 0) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: name -> [calls, busy seconds] of counted calls
        self.counted: Dict[str, List[float]] = {}
        #: layer targets that could not be found (deleted functions)
        self.absent: List[str] = []
        self._ids = itertools.count(id_base + 1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (owner, attribute, original, had_own_attribute)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- per-thread state ----------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _frames(self) -> List["_CountedFrame"]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, request: Optional[int] = None,
             parent: Optional[Span] = None) -> Span:
        """Open a span.  ``parent`` defaults to the calling thread's
        innermost open span; pass one explicitly to link work that a
        request hands to another thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            span_id=next(self._ids), name=name, start=self.clock(),
            parent=parent.span_id if parent is not None else None,
            request=request, thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        # a span opened inside a counted call is already charged to the
        # enclosing span as a child; the counted call must not charge
        # that time a second time
        for frame in self._frames():
            if frame.enclosing is not None and \
                    frame.enclosing.span_id == span.parent:
                frame.span_child_s += span.duration
        with self._lock:
            self.spans.append(span)

    # -- wrappers ------------------------------------------------------
    def span_wrapper(self, name: str, original: Callable,
                     on_result: Optional[ResultHook] = None) -> Callable:
        """``original`` with every call recorded as a span."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def counted_wrapper(self, name: str, original: Callable,
                        on_result: Optional[ResultHook] = None) -> Callable:
        """``original`` with calls counted and timed, not recorded.

        A call made while another call of the same ``name`` is running
        on the thread is not counted again (``operator_runtime`` calling
        ``attempts`` is one cost-model call).  Times are inclusive.
        """
        tracer = self
        clock = self.clock
        totals = self.counted.setdefault(name, [0, 0.0])

        def counted(*args: Any, **kwargs: Any) -> Any:
            frames = tracer._frames()
            if any(frame.name == name for frame in frames):
                return original(*args, **kwargs)
            frame = _CountedFrame(name, tracer.current())
            frames.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                frames.pop()
                with tracer._lock:
                    totals[0] += 1
                    totals[1] += elapsed
                enclosing = frame.enclosing
                if enclosing is not None and not any(
                    outer.enclosing is enclosing for outer in frames
                ):
                    enclosing.counted_child_s += (
                        elapsed - frame.span_child_s
                    )
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        counted.__wrapped__ = original  # type: ignore[attr-defined]
        return counted

    # -- installing ------------------------------------------------------
    def patch_function(self, module_name: str, attribute: str,
                       make: Callable[[Callable], Callable]) -> bool:
        """Wrap ``module.attribute`` wherever a ``repro`` module binds it.

        Returns False (and records the target as absent) when the module
        or the function no longer exists.
        """
        target = f"{module_name}.{attribute}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return False
        original = getattr(module, attribute, None)
        if original is None or not callable(original):
            self.absent.append(target)
            return False
        wrapped = make(original)
        for name, loaded in sorted(sys.modules.items()):
            if loaded is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original, True))
                    setattr(loaded, key, wrapped)
        return True

    def patch_method(self, module_name: str, class_name: str,
                     attribute: str,
                     make: Callable[[Callable], Callable]) -> bool:
        """Wrap a method on its class (every instance and subclass that
        does not override it sees the wrapper)."""
        target = f"{module_name}.{class_name}.{attribute}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return False
        owner = getattr(module, class_name, None)
        original = getattr(owner, attribute, None) if owner else None
        if original is None or not callable(original):
            self.absent.append(target)
            return False
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, original, own))
        setattr(owner, attribute, make(original))
        return True

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @property
    def installed(self) -> int:
        return len(self._patches)


# ----------------------------------------------------------------------
# arithmetic over recorded spans
# ----------------------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its children cover.

    Children are the spans whose ``parent`` is the span, clipped to the
    parent's interval; overlapping children (work the span handed to
    several threads) count once.  Counted calls made directly inside
    the span are subtracted as well.
    """
    by_id = {span.span_id: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        children.setdefault(parent.span_id, []).append((start, end))
    result = {}
    for span in spans:
        covered = union_length(children.get(span.span_id, ()))
        result[span.span_id] = max(
            0.0, span.duration - covered - span.counted_child_s
        )
    return result


def covered_s(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by root spans (no parent)."""
    roots = [
        (max(span.start, start), min(span.end, end))
        for span in spans if span.parent is None
    ]
    return union_length(roots)
