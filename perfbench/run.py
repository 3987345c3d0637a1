"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload optimize-cold --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs a fixed amount of work with the layer wrappers of
``layers.py`` installed and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric with its value and unit).  A
fuller record, with the environment and sample counts, is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

#: set-up time is measured from here: interpreter start-up is excluded,
#: every import of the program is included
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: end-to-end metrics, with their units, in reporting order
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: a child run may take this long before the benchmark gives up on it
CHILD_TIMEOUT_S = 150.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes: one more set-up, or the untraced reference of a
    # traced run; both print one JSON line and nothing else
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference-ops", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def child_json(args: argparse.Namespace, extra: List[str]) -> Dict[str, Any]:
    """Run this script again in a fresh process; return its JSON line."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"child {extra} failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_slowdown(measurement: Any) -> float:
    """The run's host slowdown; 1.0 where times are not scaled."""
    return measurement.host.slowdown if measurement.host else 1.0


def emit(workload: Any, args: argparse.Namespace, measurement: Any,
         metrics: Dict[str, float], units: Dict[str, str],
         problems: List[str], details: Dict[str, Any]) -> int:
    """Print the metrics, write the full record, print the result line."""
    from common import environment

    env = environment(ROOT, args.seed, workload.sizes())
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6g} {units[name]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(measurement.attempted),
        "failed": int(measurement.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, env=env, problems=problems, **details)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def run_untraced(workload: Any, args: argparse.Namespace) -> int:
    from common import percentile

    try:
        workload.setup()
        setups = [time.perf_counter() - STARTED]
        measurement = workload.measure(args.seconds, None)
        problems = workload.check()
    finally:
        workload.teardown()
    rss = workload.peak_rss_mb()
    for _ in range(SETUPS - 1):
        setups.append(child_json(args, ["--setup-only"])["setup_s"])
    latency_ms = percentile(measurement.latencies_s, 50) * 1e3
    scaled_latencies = measurement.latencies_s
    if measurement.host is not None:
        scaled_latencies = measurement.host.scale_each(
            measurement.starts, measurement.latencies_s)
    throughput = measurement.items / measurement.wall_s
    # the set-ups happen just before and after the measured phase, so the
    # host runs them at about the speed it ran the phase
    setup_s = statistics.median(setups)
    slowdown = host_slowdown(measurement)
    metrics = {
        "latency_p50_ms": percentile(scaled_latencies, 50) * 1e3,
        "throughput_per_s": throughput * slowdown,
        "peak_rss_mb": rss,
        "setup_s": setup_s / slowdown,
    }
    details = {
        "host_slowdown": slowdown,
        "wall_clock": {"latency_p50_ms": latency_ms,
                       "throughput_per_s": throughput,
                       "setup_s": setup_s},
        "samples": {"latency_p50_ms": len(measurement.latencies_s),
                    "throughput_per_s": measurement.items,
                    "setup_s": len(setups)},
        "item": workload.item,
        "setups_s": setups,
        "wall_s": measurement.wall_s,
    }
    return emit(workload, args, measurement, metrics, dict(END_TO_END),
                problems, details)


def run_traced(workload: Any, args: argparse.Namespace) -> int:
    import traced

    from layers import PER_LAYER

    ops = workload.traced_ops
    reference = child_json(args, ["--reference-ops", str(ops)])
    metrics, measurement, problems, details = traced.run(workload, ops)
    # the two runs happen at different times: compare them at the same
    # host speed
    metrics["trace.overhead"] = (
        measurement.wall_s / host_slowdown(measurement)
    ) / (reference["wall_s"] / reference["host_slowdown"])
    units = dict(PER_LAYER)
    ordered = {name: metrics[name] for name, _ in PER_LAYER
               if name in metrics}
    details["reference_wall_s"] = reference["wall_s"]
    return emit(workload, args, measurement, ordered, units, problems,
                details)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import workload_named

    workload = workload_named(args.workload)(args.seed, args.seconds, ROOT)
    if args.setup_only:
        try:
            workload.setup()
            elapsed = time.perf_counter() - STARTED
        finally:
            workload.teardown()
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.reference_ops is not None:
        try:
            workload.setup()
            measurement = workload.measure(None, args.reference_ops)
        finally:
            workload.teardown()
        print(json.dumps({"wall_s": measurement.wall_s,
                          "host_slowdown": host_slowdown(measurement)}))
        return 0
    if args.trace:
        return run_traced(workload, args)
    return run_untraced(workload, args)


if __name__ == "__main__":
    sys.exit(main())
