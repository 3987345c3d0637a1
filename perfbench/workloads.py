"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone, sets itself up,
measures a closed loop (each call waits for the previous one), and
checks the program's answers afterwards, outside the timed region.

* ``optimize-cold`` -- one caller asks ``FaultTolerantOptimizer`` and
  ``find_best_ft_plan`` for plans; every request has fresh statistics,
  so no memo or cache of the program can answer it.  Join ordering,
  collapse, the cost model and the search do the work.
* ``advise-http`` -- two callers send ``POST /advise`` to
  ``python -m repro serve`` over keep-alive connections; every key is
  cached, so HTTP, parsing, the queue and the cache do the work.
* ``fig8-campaign`` -- the paper's Figure 8 grid through
  ``run_campaign``; failure-trace generation and the executor do the
  work.
* ``tenant-day`` -- a day of multi-tenant traffic through
  ``run_multitenant``: in-process advice, many small chaos cells and
  admission.  The only workload that runs ``repro.workload`` and
  ``repro.chaos``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    HostSpeed,
    log_strata,
    own_peak_rss_mb,
    process_peak_rss_mb,
    zipf_weights,
)

#: seconds a child process gets to start, answer or stop
CHILD_TIMEOUT_S = 60.0


def repro_core() -> Any:
    """The package namespace, looked up at call time so that wrappers
    the traced run installs are the functions called."""
    import repro.core
    return repro.core


def repro_engine() -> Any:
    import repro.engine
    return repro.engine


def repro_workload() -> Any:
    import repro.workload
    return repro.workload


def forget_trace_sets() -> None:
    """Empty the program's trace-set cache before a grid or a day.

    Grids and days use fresh trace seeds, so the cache could only answer
    from within the same grid or day; emptying it keeps earlier grids'
    traces from piling up, which would make peak memory depend on how
    many grids a run happened to finish.
    """
    from repro.engine import traces

    reset = getattr(traces, "reset_trace_cache", None)
    if reset is not None:
        reset()


@dataclass
class Measurement:
    """What one measured phase did."""

    latencies_s: List[float] = field(default_factory=list)
    #: when each operation started (closed loops with a host only)
    starts: List[float] = field(default_factory=list)
    items: int = 0            #: work units finished (see Workload.item)
    attempted: int = 0        #: operations started
    failed: int = 0           #: operations that failed
    start: float = 0.0
    end: float = 0.0
    #: host speed measured during the phase
    host: Optional[HostSpeed] = None
    #: time the only caller spent measuring the host instead of working
    paused_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start - self.paused_s


class Workload:
    """Interface every workload implements."""

    name = ""
    #: what one item of throughput is
    item = ""
    #: operations the traced run performs (a fixed count, so per-layer
    #: counts repeat exactly for a seed)
    traced_ops = 1

    def __init__(self, seed: int, seconds: float, root: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root

    def sizes(self) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        """Make the inputs and bring the program to a ready state."""

    def measure(self, seconds: Optional[float],
                ops: Optional[int]) -> Measurement:
        """Run for ``seconds`` or for exactly ``ops`` operations."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Correctness problems found in the measured answers."""
        return []

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def teardown(self) -> None:
        """Stop whatever setup started."""


def closed_loop(operation: Callable[[int], Tuple[int, int]],
                seconds: Optional[float], ops: Optional[int],
                limit: int, host: Optional[HostSpeed] = None
                ) -> Measurement:
    """One caller: call ``operation(i)`` until time or ``ops`` run out.

    ``operation`` returns (items finished, operations failed) and is
    timed one call at a time.  ``host`` keeps pace between calls.
    """
    result = Measurement(host=host)
    target = limit if ops is None else min(ops, limit)
    clock = time.perf_counter
    result.start = clock()
    deadline = result.start + seconds if seconds is not None else math.inf
    index = 0
    while index < target and clock() < deadline:
        started = clock()
        items, failed = operation(index)
        ended = clock()
        result.starts.append(started)
        result.latencies_s.append(ended - started)
        result.items += items
        result.failed += failed
        index += 1
        if host is not None:
            host.keep_up(ended - result.start - host.spent_s)
    if host is not None:
        result.paused_s = host.spent_s
    result.end = clock()
    result.attempted = index
    return result


# ----------------------------------------------------------------------
# optimize-cold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizeRequest:
    index: int
    kind: str                  #: "Q5", "Q3" or "synthetic"
    scale_factor: float        #: TPC-H only
    mtbf: float
    spec: Any = None           #: SyntheticSpec, synthetic only


#: in every block of 20 requests: 12 Q5, 5 Q3 and 3 synthetic DAGs
#: (85/15).  A Q3 request takes about a tenth of a Q5 one, so the median
#: request is a Q5 from the middle of its range; with nearly as many Q3
#: as Q5 requests it would sit at the fast edge of the Q5 requests,
#: where a few requests more or less move it a long way.
REQUEST_BLOCK = ("Q5",) * 12 + ("Q3",) * 5 + ("synthetic",) * 3
#: the block's three synthetic DAGs take one size from each band, so the
#: mix of small and large searches is the same for every seed
SYNTHETIC_SIZE_BANDS = ((12, 18), (19, 25), (26, 32))


def optimize_requests(seed: int, count: int) -> List[OptimizeRequest]:
    """The seeded request stream of ``optimize-cold``.

    Within a block, each kind's scale factors and MTBFs are drawn one
    from each slice of their ranges (and paired at random), so every
    block covers the ranges evenly and runs with different seeds see the
    same mix.
    """
    from repro.joinorder import SyntheticSpec
    from repro.joinorder.synthetic import SELECTIVITY_REGIMES, SHAPES

    rng = random.Random(f"optimize-cold:{seed}")
    requests: List[OptimizeRequest] = []
    while len(requests) < count:
        block = list(REQUEST_BLOCK)
        rng.shuffle(block)
        bands = list(SYNTHETIC_SIZE_BANDS)
        shapes = list(SHAPES)
        rng.shuffle(bands)
        rng.shuffle(shapes)
        mtbfs = {kind: log_strata(rng, block.count(kind), 600.0,
                                  7 * 86400.0)
                 for kind in ("Q5", "Q3", "synthetic")}
        scale_factors = {kind: log_strata(rng, block.count(kind), 1.0,
                                          1000.0) for kind in ("Q5", "Q3")}
        for kind in block:
            mtbf = mtbfs[kind].pop()
            if kind == "synthetic":
                spec = SyntheticSpec(
                    n_joins=rng.randint(*bands.pop()),
                    seed=rng.randrange(2 ** 31),
                    shape=shapes.pop(),
                    selectivity=rng.choice(SELECTIVITY_REGIMES),
                )
                requests.append(OptimizeRequest(
                    len(requests), kind, 0.0, mtbf, spec))
            else:
                requests.append(OptimizeRequest(
                    len(requests), kind, scale_factors[kind].pop(), mtbf))
    return requests[:count]


class OptimizeCold(Workload):
    name = "optimize-cold"
    item = "request"
    traced_ops = 160
    top_k = 20
    config_limit = 2048
    #: requests made per second of run time; far above the rate a
    #: request stream can be answered at, so the pool never runs out
    pool_per_second = 80
    checked_requests = 4

    def sizes(self) -> Dict[str, Any]:
        return {"pool": self.pool_size, "top_k": self.top_k,
                "config_limit": self.config_limit,
                "mix": "12 Q5 + 5 Q3 + 3 synthetic per 20 requests"}

    @property
    def pool_size(self) -> int:
        return max(self.traced_ops, int(self.seconds * self.pool_per_second))

    def setup(self) -> None:
        from repro.core import (
            ClusterStats,
            FaultTolerantOptimizer,
            PruningConfig,
            QuerySpec,
        )
        from repro.joinorder import q3_join_graph, q5_join_graph, synthetic_plan
        from repro.stats.calibration import default_parameters

        self.params = default_parameters()
        self.optimizer = FaultTolerantOptimizer(self.params, top_k=self.top_k)
        self.pruning = PruningConfig.all()
        self.requests = optimize_requests(self.seed, self.pool_size)
        self.inputs: List[Tuple[Any, Any]] = []
        for request in self.requests:
            stats = ClusterStats(mtbf=request.mtbf, mttr=1.0, nodes=10)
            if request.kind == "synthetic":
                payload: Any = synthetic_plan(request.spec)
            else:
                graph = (q5_join_graph if request.kind == "Q5"
                         else q3_join_graph)(request.scale_factor)
                payload = QuerySpec(graph, name=request.kind)
            self.inputs.append((payload, stats))
        self.sample = self._pick_checked()
        self.answers: Dict[int, Any] = {}

    def _pick_checked(self) -> List[int]:
        """Requests whose answers are re-solved by the naive engine:
        three TPC-H requests and the smallest synthetic DAG among the
        first 40 (the naive oracle is slow on large DAGs)."""
        rng = random.Random(f"optimize-cold-check:{self.seed}")
        early = self.requests[:40]
        tpch = [r.index for r in early if r.kind != "synthetic"]
        synthetic = sorted((r.spec.n_joins, r.index) for r in early
                           if r.kind == "synthetic")
        picked = rng.sample(tpch, min(self.checked_requests - 1, len(tpch)))
        if synthetic:
            picked.append(synthetic[0][1])
        return sorted(picked)

    def _solve(self, index: int) -> Tuple[int, int]:
        payload, stats = self.inputs[index]
        if self.requests[index].kind == "synthetic":
            result = repro_core().find_best_ft_plan(
                [payload], stats, pruning=self.pruning,
                config_limit=self.config_limit)
        else:
            result = self.optimizer.optimize(payload, stats)
        if index in self.sample:
            self.answers[index] = result
        return 1, 0

    def measure(self, seconds: Optional[float],
                ops: Optional[int]) -> Measurement:
        return closed_loop(self._solve, seconds, ops, len(self.inputs),
                           HostSpeed())

    def check(self) -> List[str]:
        from repro.core import FaultTolerantOptimizer

        naive = FaultTolerantOptimizer(self.params, top_k=self.top_k,
                                       engine="naive")
        problems = []
        if not self.answers:
            problems.append("no sampled request was answered")
        for index, fast in sorted(self.answers.items()):
            payload, stats = self.inputs[index]
            if self.requests[index].kind == "synthetic":
                oracle = repro_core().find_best_ft_plan(
                    [payload], stats, pruning=self.pruning,
                    config_limit=self.config_limit, engine="naive")
            else:
                oracle = naive.optimize(payload, stats)
            if (fast.cost, fast.plan, fast.materialized_ids) != (
                    oracle.cost, oracle.plan, oracle.materialized_ids):
                problems.append(f"request {index}: fast answer differs "
                                "from the naive engine")
        return problems


# ----------------------------------------------------------------------
# advise-http
# ----------------------------------------------------------------------
def paper_plan() -> Any:
    """The paper's Figure 2/3 example plan."""
    from repro.core import Operator, Plan

    operators = [
        Operator(1, "Scan R", 1.0, 1.0),
        Operator(2, "Scan S", 2.0, 1.0),
        Operator(3, "HashJoin", 2.0, 1.0, materialize=True),
        Operator(4, "Repartition", 1.0, 1.0),
        Operator(5, "MapUDF", 2.0, 1.0, materialize=True),
        Operator(6, "ReduceUDF", 1.0, 0.0, materialize=True, free=False),
        Operator(7, "ReduceUDF", 2.0, 0.0, materialize=True, free=False),
    ]
    edges = [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)]
    return Plan.from_edges(operators, edges)


#: the service's key space: plans x cluster profiles x schemes
ADVISE_PLANS = ("paper-fig2", "Q3@100", "Q5@100", "Q1@100", "Q10@100",
                "Q5@10", "Q6@100", "Q13@100")
ADVISE_PROFILES = ((3600.0, 60.0, 10), (86400.0, 300.0, 100),
                   (60.0, 0.0, 1), (600.0, 30.0, 20))
#: cost-based three times: its keys are the popular ones
ADVISE_SCHEMES = ("cost-based", "cost-based", "cost-based", "all-mat")


@dataclass(frozen=True)
class AdviseRequest:
    index: int
    plan_name: str
    scheme: str
    mtbf: float
    mttr: float
    nodes: int
    body: bytes


def advise_keys() -> List[Tuple[str, Tuple[float, float, int], str]]:
    """Distinct request centres, hottest first (zipf rank order)."""
    return [(plan, profile, scheme) for plan in ADVISE_PLANS
            for profile in ADVISE_PROFILES for scheme in ADVISE_SCHEMES]


def advise_plans() -> Dict[str, Any]:
    from repro.stats.calibration import default_parameters
    from repro.tpch.queries import build_query_plan

    params = default_parameters()
    plans = {"paper-fig2": paper_plan()}
    for name in ADVISE_PLANS[1:]:
        query, scale = name.split("@")
        plans[name] = build_query_plan(query, float(scale), params)
    return plans


def advise_requests(seed: int, count: int,
                    plans: Dict[str, Any]) -> List[AdviseRequest]:
    """The seeded request cycle of ``advise-http``: zipf(1.1) over the
    keys, MTBF jittered by +/-7 % and MTTR by +/-10 %."""
    from repro.core import ClusterStats
    from repro.core.serialize import plan_to_dict, stats_to_dict

    rng = random.Random(f"advise-http:{seed}")
    keys = advise_keys()
    weights = zipf_weights(len(keys), 1.1)
    encoded = {name: plan_to_dict(plan) for name, plan in plans.items()}
    requests = []
    for index in range(count):
        plan_name, (mtbf, mttr, nodes), scheme = rng.choices(
            keys, weights=weights)[0]
        mtbf *= rng.uniform(0.93, 1.07)
        mttr *= rng.uniform(0.9, 1.1)
        stats = ClusterStats(mtbf=mtbf, mttr=mttr, nodes=nodes)
        body = json.dumps({"plan": encoded[plan_name],
                           "stats": stats_to_dict(stats),
                           "scheme": scheme}).encode("utf-8")
        requests.append(AdviseRequest(index, plan_name, scheme, mtbf, mttr,
                                      nodes, body))
    return requests


class AdviseHttp(Workload):
    name = "advise-http"
    item = "response"
    traced_ops = 400
    clients = 2
    cycle = 4000
    warmup_batch = 32
    #: every n-th response of a client is kept for the equality check
    check_every = 40
    #: where the traced server writes its spans (None: untraced server)
    spans_path: Optional[Path] = None
    #: client-side tracer of the traced run
    tracer: Any = None

    def sizes(self) -> Dict[str, Any]:
        return {"clients": self.clients, "request_cycle": self.cycle,
                "key_centres": len(set(advise_keys())),
                "canonical_keys": len(getattr(self, "canonical", ())),
                "server": "python -m repro serve (defaults)"}

    def server_command(self) -> List[str]:
        """``python -m repro serve`` with its defaults on a free port; the
        traced run starts the same server through ``serve_traced.py``."""
        if self.spans_path is None:
            return [sys.executable, "-m", "repro", "serve", "--port", "0"]
        return [sys.executable, str(Path(__file__).with_name(
            "serve_traced.py")), str(self.spans_path), "--port", "0"]

    def setup(self) -> None:
        from repro.core import ClusterStats
        from repro.serve import AdvisoryEngine

        self.plans = advise_plans()
        self.requests = advise_requests(self.seed, self.cycle, self.plans)
        # the server runs with its defaults, which are the engine's
        reference = AdvisoryEngine()
        self.canonical: Dict[Any, int] = {}
        for request in self.requests:
            stats = ClusterStats(mtbf=request.mtbf, mttr=request.mttr,
                                 nodes=request.nodes)
            key = reference.advice_key(
                self.plans[request.plan_name],
                reference.canonical_stats(stats), request.scheme)
            self.canonical.setdefault(key, request.index)
        self.server = self.start_server()
        self.warm_up()
        self.answers: List[Tuple[int, bytes]] = []
        self.server_rss_mb = 0.0

    def start_server(self) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        server = subprocess.Popen(
            self.server_command(), cwd=self.root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = server.stdout.readline() if server.stdout else ""
        if "http://" not in line:
            server.kill()
            _, errors = server.communicate(timeout=CHILD_TIMEOUT_S)
            raise RuntimeError(f"advisory server did not start: "
                               f"{line!r} {errors[-2000:]!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.server_host, port = address.rsplit(":", 1)
        self.port = int(port)
        return server

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.server_host, self.port,
                                          timeout=CHILD_TIMEOUT_S)

    def warm_up(self) -> None:
        """Answer every canonical key of the cycle once, so the measured
        phase sees a warm cache (the steady state of a long-running
        service).  Batches go over fresh connections."""
        firsts = sorted(self.canonical.values())
        for offset in range(0, len(firsts), self.warmup_batch):
            batch = [json.loads(self.requests[i].body)
                     for i in firsts[offset:offset + self.warmup_batch]]
            connection = self._connection()
            try:
                connection.request(
                    "POST", "/advise/batch",
                    body=json.dumps({"requests": batch}).encode("utf-8"),
                    headers={"Content-Type": "application/json",
                             "X-Request-Id": "-1"})
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
            errors = [entry for entry in payload.get("results", ())
                      if "error" in entry]
            if response.status != 200 or errors:
                raise RuntimeError(f"warm-up failed: {response.status} "
                                   f"{errors[:1]}")

    def metrics_snapshot(self) -> Dict[str, Any]:
        connection = self._connection()
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def _client(self, offset: int, deadline: float, quota: Optional[int],
                out: Dict[str, Any]) -> None:
        clock = time.perf_counter
        tracer = self.tracer
        latencies: List[Tuple[int, float, float]] = []
        failed = 0
        kept: List[Tuple[int, bytes]] = []
        connection = self._connection()
        position = offset
        sent = 0
        try:
            while clock() < deadline and (quota is None or sent < quota):
                request = self.requests[position % len(self.requests)]
                request_id = position
                span = tracer.open("http.advise", request=request_id) \
                    if tracer is not None else None
                started = clock()
                try:
                    connection.request(
                        "POST", "/advise", body=request.body,
                        headers={"Content-Type": "application/json",
                                 "X-Request-Id": str(request_id)})
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = self._connection()
                    body, status = b"", 0
                ended = clock()
                if span is not None:
                    tracer.close(span)
                latencies.append((request_id, started, ended))
                if status != 200:
                    failed += 1
                elif sent % self.check_every == 0:
                    kept.append((request.index, body))
                sent += 1
                position += self.clients
        finally:
            connection.close()
        out["latencies"] = latencies
        out["failed"] = failed
        out["kept"] = kept

    def measure(self, seconds: Optional[float],
                ops: Optional[int]) -> Measurement:
        self.metrics_before = self.metrics_snapshot()
        # wall clock, not scaled by host speed: the latency is a network
        # round trip held up by the kernel's delayed-ACK timer
        result = Measurement()
        outputs: List[Dict[str, Any]] = [{} for _ in range(self.clients)]
        quotas: List[Optional[int]] = [None] * self.clients
        if ops is not None:
            quotas = [ops // self.clients + (1 if i < ops % self.clients
                                             else 0)
                      for i in range(self.clients)]
        result.start = time.perf_counter()
        deadline = result.start + seconds if seconds is not None \
            else math.inf
        threads = [
            threading.Thread(target=self._client,
                             args=(i, deadline, quotas[i], outputs[i]))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.end = time.perf_counter()
        self.metrics_after = self.metrics_snapshot()
        self.request_times: List[Tuple[int, float, float]] = []
        for output in outputs:
            if "latencies" not in output:
                raise RuntimeError("an HTTP client thread died")
            self.request_times.extend(output["latencies"])
            result.failed += output["failed"]
            self.answers.extend(output["kept"])
        result.latencies_s = [end - start
                              for _, start, end in self.request_times]
        result.attempted = len(self.request_times)
        result.items = result.attempted - result.failed
        return result

    def check(self) -> List[str]:
        from repro.core import ClusterStats
        from repro.serve import AdvisoryEngine, direct_advice

        engine = AdvisoryEngine()
        problems = []
        if not self.answers:
            problems.append("no response was kept for checking")
        for index, body in self.answers:
            request = self.requests[index]
            stats = ClusterStats(mtbf=request.mtbf, mttr=request.mttr,
                                 nodes=request.nodes)
            expected = direct_advice(self.plans[request.plan_name], stats,
                                     engine, request.scheme).to_dict()
            got = json.loads(body)["advice"]
            if got != json.loads(json.dumps(expected)):
                problems.append(f"request {index}: served advice differs "
                                "from direct_advice")
        return problems

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def stop_server(self) -> None:
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return
        self.server_rss_mb = process_peak_rss_mb(server.pid)
        server.send_signal(signal.SIGINT)
        try:
            server.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.communicate()

    def teardown(self) -> None:
        self.stop_server()

    def cache_delta(self) -> Dict[str, float]:
        before = self.metrics_before.get("cache") or {}
        after = self.metrics_after.get("cache") or {}
        delta = {name: after.get(name, 0) - before.get(name, 0)
                 for name in ("hits", "misses", "evictions")}
        lookups = delta["hits"] + delta["misses"]
        counters_before = self.metrics_before.get("counters") or {}
        counters_after = self.metrics_after.get("counters") or {}
        counters = {
            name: counters_after.get(name, 0) - counters_before.get(name, 0)
            for name in ("serve.coalesced", "serve.shed", "serve.searches")
        }
        return {
            "serve.cache.hits": delta["hits"],
            "serve.cache.misses": delta["misses"],
            "serve.cache.evictions": delta["evictions"],
            "serve.cache.hit_rate":
                delta["hits"] / lookups if lookups else 0.0,
            "serve.coalesced": counters["serve.coalesced"],
            "serve.shed": counters["serve.shed"],
            "serve.searches": counters["serve.searches"],
        }


# ----------------------------------------------------------------------
# fig8-campaign
# ----------------------------------------------------------------------
FIG8_QUERIES = ("Q1", "Q3", "Q5", "Q1C", "Q2C")
FIG8_MTBF_FACTORS = (1.1, 10.0)


class Fig8Campaign(Workload):
    name = "fig8-campaign"
    item = "simulated run"
    traced_ops = 6
    scale_factor = 100.0
    nodes = 10
    mttr = 1.0
    trace_count = 25
    checked_rows = 3

    def sizes(self) -> Dict[str, Any]:
        return {"queries": list(FIG8_QUERIES), "scale_factor":
                self.scale_factor, "mtbf_factors": list(FIG8_MTBF_FACTORS),
                "schemes": 4, "traces_per_cell": self.trace_count,
                "runs_per_grid": len(FIG8_QUERIES) * len(FIG8_MTBF_FACTORS)
                * 4 * self.trace_count}

    def setup(self) -> None:
        from repro.core import standard_schemes
        from repro.engine import (
            CampaignCell,
            Cluster,
            SimulatedEngine,
            pure_baseline_runtime,
        )
        from repro.stats.calibration import default_parameters
        from repro.tpch.queries import build_query_plan

        self.CampaignCell = CampaignCell
        self.cluster = Cluster(nodes=self.nodes, mttr=self.mttr)
        engine = SimulatedEngine(self.cluster)
        self.schemes = tuple(standard_schemes(preflight_lint=False))
        params = default_parameters(nodes=self.nodes)
        self.queries = []
        for name in FIG8_QUERIES:
            plan = build_query_plan(name, self.scale_factor, params)
            baseline = pure_baseline_runtime(
                plan, engine, self.cluster.stats(mtbf=1.0))
            self.queries.append((name, plan, baseline))
        self.first_grid: Tuple[Any, ...] = ()
        self.rows = 0
        self.below_baseline: List[str] = []
        # one small untimed grid finishes lazy set-up (imports, first
        # configure) before timing; its trace seeds are never reused
        repro_engine().run_campaign(self.cells(-1, trace_count=2),
                                    self.cluster, jobs=1)

    def cells(self, grid: int, trace_count: Optional[int] = None
              ) -> List[Any]:
        """Grid ``grid`` of the run: fresh trace seeds, so the trace-set
        cache never answers it."""
        count = trace_count or self.trace_count
        cells = []
        for query_index, (name, plan, baseline) in enumerate(self.queries):
            for factor_index, factor in enumerate(FIG8_MTBF_FACTORS):
                base_seed = (self.seed * 1_000_003 + (grid + 1) * 1009
                             + query_index * 10 + factor_index) * 1000
                cells.append(self.CampaignCell(
                    label=name, plan=plan, mtbf=factor * baseline,
                    schemes=self.schemes, trace_count=count,
                    base_seed=base_seed, baseline=baseline))
        return cells

    def _grid(self, index: int) -> Tuple[int, int]:
        cells = self.cells(index)
        forget_trace_sets()
        rows = repro_engine().run_campaign(cells, self.cluster, jobs=1)
        if not self.first_grid:
            self.first_grid = (cells, rows)
        self.rows += len(rows)
        self.below_baseline.extend(
            f"{row.label}/{row.scheme}" for row in rows
            if row.error is None
            and min(row.runtimes, default=row.baseline) < row.baseline)
        errors = sum(1 for row in rows if row.error is not None)
        runs = sum(len(cell.targets()) * cell.trace_count for cell in cells)
        return runs, errors

    def measure(self, seconds: Optional[float],
                ops: Optional[int]) -> Measurement:
        result = closed_loop(self._grid, seconds, ops, 10 ** 6, HostSpeed())
        # a failure is an error row, and the operations are the rows
        result.attempted = self.rows
        return result

    def check(self) -> List[str]:
        from repro import engine as engine_package
        from repro.engine import SimulatedEngine, generate_trace

        exhausted = getattr(engine_package, "TraceExhausted", None)
        problems = [f"{name}: runtime below the failure-free baseline"
                    for name in self.below_baseline]
        cells, rows = self.first_grid
        rng = random.Random(f"fig8-check:{self.seed}")
        engine = SimulatedEngine(self.cluster)
        for row in rng.sample(list(rows), self.checked_rows):
            cell = cells[row.cell_index]
            scheme = next(s for s in self.schemes if s.name == row.scheme)
            stats = self.cluster.stats(cell.mtbf)
            configured = scheme.configure(cell.plan, stats)
            runtimes, aborted = [], 0
            for index in range(cell.trace_count):
                horizon = 20.0 * (row.baseline + cell.mtbf)
                while True:
                    trace = generate_trace(self.nodes, cell.mtbf, horizon,
                                           seed=cell.base_seed + index)
                    try:
                        outcome = engine.execute(configured, trace)
                        break
                    except Exception as error:
                        if exhausted is None or \
                                not isinstance(error, exhausted):
                            raise
                        horizon *= 4.0
                if outcome.aborted:
                    aborted += 1
                else:
                    runtimes.append(outcome.runtime)
            if tuple(runtimes) != row.runtimes or aborted != \
                    row.aborted_runs:
                problems.append(f"{row.label}/{row.scheme}@{row.mtbf:.0f}: "
                                "campaign row differs from one-trace-at-"
                                "a-time execution")
        return problems


# ----------------------------------------------------------------------
# tenant-day
# ----------------------------------------------------------------------
class TenantDay(Workload):
    name = "tenant-day"
    item = "tenant query"
    traced_ops = 2
    queries = 20000
    templates_per_class = 8
    trace_count = 20
    churn = 0.5

    def sizes(self) -> Dict[str, Any]:
        return {"queries_per_day": self.queries,
                "templates_per_class": self.templates_per_class,
                "trace_count": self.trace_count, "churn": self.churn}

    def config(self, day: int, queries: Optional[int] = None) -> Any:
        day_seed = self.seed * 1000 + day + 1
        return self.MultiTenantConfig(
            queries=queries or self.queries,
            templates_per_class=self.templates_per_class,
            trace_count=self.trace_count, churn=self.churn,
            seed=day_seed, chaos_seed=day_seed)

    def setup(self) -> None:
        from repro.workload import MultiTenantConfig

        self.MultiTenantConfig = MultiTenantConfig
        #: per day: error rows, cache hits, misses, requests
        self.days: List[Tuple[int, int, int, int]] = []
        # a small untimed day finishes lazy set-up before timing; its
        # seed is never measured
        repro_workload().run_multitenant(self.config(-1, queries=200))

    def _day(self, index: int) -> Tuple[int, int]:
        forget_trace_sets()
        result = repro_workload().run_multitenant(self.config(index))
        advice = result.advice
        self.days.append((result.error_rows, advice.hits, advice.misses,
                          advice.requests))
        failed = sum(group.arrivals for group in result.groups
                     if group.error is not None)
        return self.queries, failed

    def measure(self, seconds: Optional[float],
                ops: Optional[int]) -> Measurement:
        result = closed_loop(self._day, seconds, ops, 10 ** 6, HostSpeed())
        result.attempted = result.attempted * self.queries
        return result

    def check(self) -> List[str]:
        problems = []
        for day, (error_rows, hits, misses, requests) in enumerate(
                self.days):
            if error_rows:
                problems.append(f"day {day}: {error_rows} error rows")
            if hits + misses != requests:
                problems.append(f"day {day}: cache hits + misses != "
                                "requests")
        return problems


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (OptimizeCold, AdviseHttp, Fig8Campaign, TenantDay)
}


def workload_named(name: str) -> type:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r} "
                         f"(expected one of {sorted(WORKLOADS)})") from None

