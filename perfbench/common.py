"""Small helpers shared by the benchmark's workloads and its runner."""

from __future__ import annotations

import bisect
import copy
import fractions
import heapq
import ipaddress
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: a tail percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    A tail percentile (``q > 50``) needs at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it; with fewer it would be
    decided by one or two samples, so it is refused.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    beyond = len(values) * (100.0 - q) / 100.0
    if q > 50.0 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond:.1f} samples "
            f"beyond it; at least {MIN_TAIL_SAMPLES} are needed"
        )
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


#: mean time of one unit of :class:`ReferenceWork` on the 2-vCPU host
#: the bounds were set on, at its typical speed; scaled times read as
#: wall-clock times of a run at that speed.  Only ratios to it are used.
REFERENCE_NOMINAL_S = 0.0027
#: entries of the calibration table: more than the per-core caches hold,
#: like the program's plans, traces and rows
REFERENCE_TABLE_SIZE = 50_000


class _Event:
    __slots__ = ("node", "attempt")

    def __init__(self, node: int, attempt: int) -> None:
        self.node = node
        self.attempt = attempt


class ReferenceWork:
    """Units of fixed work for measuring the host's speed.

    The units take turns among five kinds of work the program does, each
    about 2 ms long: lookups in a table larger than the per-core caches,
    integer arithmetic, an event heap with small objects and float math,
    short NumPy random draws, and pure-Python library code (deep copies,
    fractions, TOML and address parsing).  The host's neighbours slow
    each kind by a different amount, and the mix tracks the program's
    slowdowns better than any one of them.  The benchmark owns this
    code, so a change to the program cannot change a unit.
    """

    def __init__(self) -> None:
        import numpy

        self.numpy = numpy
        self.table = {i: (i * 7919) % 100003
                      for i in range(REFERENCE_TABLE_SIZE)}
        rng = random.Random(0)
        self.keys = rng.sample(range(REFERENCE_TABLE_SIZE), 5_000)
        self.gaps = [rng.expovariate(1.0) for _ in range(256)]
        self.document = {"plans": [
            {"id": i, "ops": [{"k": j, "cost": j * 1.5, "tag": ("op", j)}
                              for j in range(8)]}
            for i in range(6)]}
        self.toml = "\n".join(
            f'[t{i}]\nname = "n{i}"\nvalues = [{i}, {i + 1}]\nf = {i / 7}'
            for i in range(4))
        self.kinds = (self.lookups, self.arithmetic, self.events,
                      self.draws, self.library)
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.kinds[self.calls % len(self.kinds)]()

    def lookups(self) -> float:
        table = self.table
        total = 0.0
        rows = []
        for key in self.keys:
            value = table[key]
            rows.append((key, value, float(value)))
            total += value
            if len(rows) > 1000:
                rows = []
        return total

    def arithmetic(self) -> float:
        mixed = self.calls & 0xFFFF
        for step in range(20_000):
            mixed = (mixed * 31 + step) & 0xFFFF
        return float(mixed)

    def events(self) -> float:
        gaps = self.gaps
        total = 0.0
        for offset in range(6):
            failures = sorted(gaps[(offset * 61 + i * 7) % 256] * 40.0
                              for i in range(40))
            heap = [(gaps[i] * 10.0, i, _Event(i % 10, 0))
                    for i in range(120)]
            heapq.heapify(heap)
            while heap:
                at, order, event = heapq.heappop(heap)
                later = bisect.bisect_right(failures, at)
                if later < len(failures) and event.attempt < 2 \
                        and failures[later] < at + 1.0:
                    heapq.heappush(heap, (failures[later] + 1.0, order,
                                          _Event(event.node,
                                                 event.attempt + 1)))
                else:
                    total += math.exp(-at / 100.0) * event.node
        return total

    def draws(self) -> float:
        numpy = self.numpy
        total = 0.0
        for node in range(80):
            arrivals = numpy.cumsum(numpy.random.default_rng(
                [node, 7]).exponential(100.0, size=24))
            total += float(arrivals[
                int(numpy.searchsorted(arrivals, 800.0)) - 1])
        return total

    def library(self) -> float:
        total = 0.0
        for _ in range(3):
            copy.deepcopy(self.document)
            tomllib.loads(self.toml)
            share = fractions.Fraction(0)
            for step in range(1, 40):
                share += fractions.Fraction(1, step)
            networks = [ipaddress.ip_network(f"10.{i}.0.0/16")
                        for i in range(20)]
            address = ipaddress.ip_address("10.5.3.1")
            total += float(share) + sum(address in net for net in networks)
        return total


class HostSpeed:
    """How fast the host runs, measured alongside the program.

    Identical inputs on the 2-vCPU host the benchmark was written on run
    up to 1.6x slower or faster from one minute to the next, with CPU
    time equal to wall time: neighbours share the cores.  A run is too
    short to average that out, so between operations the benchmark runs
    units of :class:`ReferenceWork` until they have taken :attr:`duty`
    times the time the program has worked so far, and reports times and
    rates scaled to the unit's nominal speed.  Because the calibration
    keeps pace with the program, it samples the host at the same moments
    and for a fixed share of them; short samples taken now and then
    track the program's speed over a run much less well.
    """

    #: calibration time per second of the program's time
    duty = 0.25
    #: units run before measuring, so the first is not a cold start
    warm_units = 20
    #: an operation's time is scaled by the calibration run within this
    #: many seconds of it
    reach_s = 1.0

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.work = ReferenceWork()
        for _ in range(self.warm_units):
            self.work()
        self.units = 0
        self.spent_s = 0.0
        #: (start, end, units) of every calibration batch, in time order
        self.batches: List[Tuple[float, float, int]] = []

    def keep_up(self, worked_s: float) -> None:
        """Run units until calibration has taken ``duty * worked_s``."""
        target = self.duty * worked_s
        if self.spent_s >= target:
            return
        clock = self.clock
        started = clock()
        units = 0
        while True:
            self.work()
            units += 1
            if self.spent_s + (clock() - started) >= target:
                break
        ended = clock()
        self.units += units
        self.spent_s += ended - started
        self.batches.append((started, ended, units))

    @property
    def slowdown(self) -> float:
        """Mean unit time over its nominal time (1.0: typical speed)."""
        if not self.units:
            raise ValueError("the host speed was never measured")
        return self.spent_s / self.units / REFERENCE_NOMINAL_S

    def scale_each(self, starts: Sequence[float],
                   durations: Sequence[float]) -> List[float]:
        """Each operation's duration over the slowdown measured within
        :attr:`reach_s` of it.

        The host's speed drifts within a run, so an operation is scaled
        by the speed around it: with one run-wide factor the slow and
        fast stretches of a run stay apart, and a median over them jumps
        between the two.
        """
        ends = [batch[1] for batch in self.batches]
        scaled = []
        for start, duration in zip(starts, durations):
            first = bisect.bisect_left(ends, start - self.reach_s)
            spent, units = 0.0, 0
            for batch_start, batch_end, batch_units in self.batches[first:]:
                if batch_start > start + duration + self.reach_s:
                    break
                spent += batch_end - batch_start
                units += batch_units
            slowdown = (spent / units / REFERENCE_NOMINAL_S if units
                        else self.slowdown)
            scaled.append(duration / slowdown)
        return scaled


def log_strata(rng: random.Random, count: int, low: float,
               high: float) -> List[float]:
    """``count`` log-uniform draws from ``[low, high]``, one from each of
    ``count`` equal slices of the log range, in random order."""
    width = (math.log(high) - math.log(low)) / count
    draws = [math.exp(math.log(low) + (i + rng.random()) * width)
             for i in range(count)]
    rng.shuffle(draws)
    return draws


def zipf_weights(count: int, exponent: float) -> list:
    """Popularity of rank ``r`` (0-based) proportional to 1/(r+1)^s."""
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of another process, from /proc."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def git_sha(root: Path) -> Optional[str]:
    """The checkout's commit, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def environment(root: Path, seed: int,
                sizes: Dict[str, Any]) -> Dict[str, Any]:
    """What a result needs to be compared with another one."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "seed": seed,
        "workload_sizes": sizes,
    }
