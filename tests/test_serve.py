"""Tests for the advisory service (:mod:`repro.serve`).

Covers stats bucketing (boundary determinism, canonical round-trips),
the LRU advice cache (eviction order, counters), the engine's
single-flight dedup and cache-on/cache-off bit-identity, the frontend's
hit fast path (a cached answer is never shed) and its miss accounting,
adaptive shard sizing, and the HTTP frontend (round-trip, batch,
backpressure shed, error codes, keep-alive latency).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.cost_model import ClusterStats
from repro.core.enumeration import find_best_ft_plan
from repro.core.pruning import PruningConfig
from repro.core.serialize import plan_to_dict, stats_to_dict
from repro.core.shard import (
    MIN_SHARD_CONFIGS,
    ShardOutcome,
    ShardSizer,
)
from repro.serve import (
    SCHEME_NAMES,
    AdviceCache,
    AdvisoryEngine,
    ServiceOverloaded,
    StatsBucketing,
    direct_advice,
    log_bucket_index,
    log_bucket_representative,
)
from repro.serve.app import create_server


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    obs.disable()
    yield
    obs.disable()


def small_engine(**kwargs) -> AdvisoryEngine:
    """An engine over the small test plans (fast, serial searches)."""
    kwargs.setdefault("cache_size", 64)
    return AdvisoryEngine(**kwargs)


# ----------------------------------------------------------------------
# stats bucketing
# ----------------------------------------------------------------------
class TestBucketing:
    def test_boundary_values_land_in_adjacent_buckets(self):
        # bucket k covers [10^(k/res), 10^((k+1)/res)): values clearly
        # on opposite sides of a boundary land in adjacent buckets, and
        # re-bucketing the same float is always stable (pure function)
        res = 8
        for k in (-3, 0, 7, 31):
            boundary = 10.0 ** (k / res)
            below = boundary * (1.0 - 1e-9)
            above = boundary * (1.0 + 1e-9)
            assert log_bucket_index(above, res) \
                == log_bucket_index(below, res) + 1
            for value in (below, boundary, above):
                assert log_bucket_index(value, res) \
                    == log_bucket_index(value, res)

    def test_representative_is_inside_its_bucket(self):
        res = 8
        for index in range(-10, 30):
            rep = log_bucket_representative(index, res)
            assert log_bucket_index(rep, res) == index

    def test_near_identical_stats_share_a_canonical(self):
        bucketing = StatsBucketing()
        a = ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        b = ClusterStats(mtbf=86900.0, mttr=1.05, nodes=10)
        assert bucketing.canonicalize(a) == bucketing.canonicalize(b)

    def test_distant_stats_get_distinct_canonicals(self):
        bucketing = StatsBucketing()
        a = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
        b = ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        assert bucketing.canonicalize(a) != bucketing.canonicalize(b)

    def test_zero_mttr_round_trips_exactly(self):
        bucketing = StatsBucketing()
        canonical = bucketing.canonicalize(
            ClusterStats(mtbf=3600.0, mttr=0.0, nodes=4)
        )
        assert canonical.mttr == pytest.approx(0.0, abs=0.0)

    def test_canonicalize_is_idempotent(self):
        bucketing = StatsBucketing()
        stats = ClusterStats(mtbf=5000.0, mttr=7.3, nodes=10)
        once = bucketing.canonicalize(stats)
        assert bucketing.canonicalize(once) == once

    def test_canonical_mtbf_within_bucket_width(self):
        bucketing = StatsBucketing(mtbf_resolution=8)
        width = 10.0 ** (1.0 / 8.0)
        for mtbf in (59.0, 3600.0, 86400.0, 604800.0):
            canonical = bucketing.canonical_mtbf(mtbf)
            assert canonical / mtbf < width
            assert mtbf / canonical < width

    def test_discrete_knobs_pass_through(self):
        bucketing = StatsBucketing()
        stats = ClusterStats(mtbf=3600.0, mttr=2.0, nodes=13,
                             const_pipe=0.8, success_percentile=0.9,
                             scale_mtbf_by_nodes=True)
        canonical = bucketing.canonicalize(stats)
        assert canonical.nodes == 13
        assert canonical.const_pipe == pytest.approx(0.8)
        assert canonical.success_percentile == pytest.approx(0.9)
        assert canonical.scale_mtbf_by_nodes is True

    def test_validation(self):
        with pytest.raises(ValueError):
            StatsBucketing(mtbf_resolution=0)
        with pytest.raises(ValueError):
            log_bucket_index(-1.0, 8)
        with pytest.raises(ValueError):
            log_bucket_index(10.0, 0)


# ----------------------------------------------------------------------
# the LRU cache
# ----------------------------------------------------------------------
class TestAdviceCache:
    def test_lru_eviction_order(self):
        cache = AdviceCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # freshens a: b is now the LRU
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_counters(self):
        cache = AdviceCache(capacity=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_obs_counters_fire(self):
        cache = AdviceCache(capacity=1)
        with obs.recording() as recorder:
            cache.get("nope")
            cache.put("a", 1)
            cache.get("a")
            cache.put("b", 2)  # evicts a
            counters = dict(recorder.snapshot().counters)
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.cache.hits"] == 1
        assert counters["serve.cache.evictions"] == 1

    def test_put_refresh_does_not_grow(self):
        cache = AdviceCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdviceCache(capacity=0)


# ----------------------------------------------------------------------
# the advisory engine
# ----------------------------------------------------------------------
class TestAdvisoryEngine:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_differential_grid_advice_equals_direct(
        self, paper_plan, chain_plan, scheme
    ):
        """Every (plan, stats, scheme) cell: engine == direct search."""
        engine = small_engine()
        grid = [
            (paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)),
            (paper_plan, ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)),
            (chain_plan, ClusterStats(mtbf=120.0, mttr=2.0, nodes=4)),
            (chain_plan, ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)),
        ]
        for plan, stats in grid:
            advice = engine.advise(plan, stats, scheme)
            again = engine.advise(plan, stats, scheme)  # cached path
            reference = direct_advice(plan, stats, engine, scheme)
            assert advice == reference
            assert again == reference

    def test_cost_based_advice_matches_find_best_ft_plan(
        self, paper_plan
    ):
        engine = small_engine()
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        advice = engine.advise(paper_plan, stats)
        result = find_best_ft_plan(
            [paper_plan], engine.canonical_stats(stats),
            pruning=PruningConfig.all(),
        )
        assert advice.cost == result.cost
        assert advice.mat_config == result.mat_config
        assert advice.materialized_ids == result.materialized_ids

    def test_cache_off_bit_identical_to_cache_on(self, paper_plan):
        cached = small_engine(cache_size=64)
        uncached = small_engine(cache_size=0)
        assert uncached.cache is None
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        for _ in range(3):
            assert cached.advise(paper_plan, stats) \
                == uncached.advise(paper_plan, stats)

    def test_bucketed_stats_hit_one_entry(self, paper_plan):
        engine = small_engine()
        a = engine.advise(
            paper_plan, ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        )
        b = engine.advise(
            paper_plan, ClusterStats(mtbf=86900.0, mttr=1.02, nodes=10)
        )
        assert a == b
        assert engine.cache.stats()["misses"] == 1
        assert engine.cache.stats()["hits"] == 1

    def test_no_bucketing_requires_exact_stats(self, paper_plan):
        engine = small_engine(bucketing=None)
        engine.advise(
            paper_plan, ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
        )
        engine.advise(
            paper_plan, ClusterStats(mtbf=86900.0, mttr=1.0, nodes=10)
        )
        assert engine.cache.stats()["misses"] == 2

    def test_single_flight_dedups_concurrent_identical(
        self, paper_plan, monkeypatch
    ):
        """N concurrent identical requests -> exactly one search."""
        engine = small_engine()
        searches = []
        gate = threading.Event()
        original = AdvisoryEngine._compute

        def slow_compute(self, plan, canonical, scheme):
            searches.append(scheme)
            gate.wait(5.0)  # hold the leader until everyone queued up
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute", slow_compute)
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        results = []
        errors = []

        def request():
            try:
                results.append(engine.advise(paper_plan, stats))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        # wait until the leader is inside _compute and every follower
        # has had a chance to coalesce, then open the gate
        while not searches:
            pass
        gate.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert len(results) == 8
        assert len(set(results)) == 1  # Advice is frozen/hashable
        assert len(searches) == 1

    def test_distinct_keys_search_independently(self, paper_plan):
        engine = small_engine()
        with obs.recording() as recorder:
            engine.advise(
                paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
            )
            engine.advise(
                paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1),
                scheme="all-mat",
            )
            counters = dict(recorder.snapshot().counters)
        assert counters["serve.searches"] == 2
        assert counters["serve.requests"] == 2

    def test_errors_propagate_and_are_not_cached(
        self, paper_plan, monkeypatch
    ):
        engine = small_engine()
        calls = []
        original = AdvisoryEngine._compute

        def flaky_compute(self, plan, canonical, scheme):
            if self is engine:  # class-level patch also hits the
                calls.append(scheme)  # direct_advice reference engine
                if len(calls) == 1:
                    raise RuntimeError("transient")
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute", flaky_compute)
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        with pytest.raises(RuntimeError, match="transient"):
            engine.advise(paper_plan, stats)
        advice = engine.advise(paper_plan, stats)  # retried, not cached
        assert advice == direct_advice(paper_plan, stats, engine)
        assert len(calls) == 2

    def test_unknown_scheme_rejected(self, paper_plan):
        engine = small_engine()
        with pytest.raises(ValueError, match="unknown fault-tolerance"):
            engine.advise(
                paper_plan, ClusterStats(mtbf=60.0), scheme="nope"
            )

    def test_all_mat_advice_materializes_every_free_op(self, paper_plan):
        engine = small_engine()
        advice = engine.advise(
            paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1),
            scheme="all-mat",
        )
        assert advice.materialized_ids \
            == tuple(paper_plan.free_operators)
        assert advice.cost is None

    def test_sharded_engine_bit_identical(self, paper_plan):
        """shards>1 + adaptive sizing returns the same advice."""
        engine = small_engine(shards=4, adaptive_shards=True)
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        first = engine.advise(paper_plan, stats)
        # distinct stats: a second search in the same size bucket, now
        # taking the sizer-recommended path
        other = ClusterStats(mtbf=75.0, mttr=0.0, nodes=1)
        second = engine.advise(paper_plan, other)
        assert first == direct_advice(paper_plan, stats, engine)
        assert second == direct_advice(paper_plan, other, engine)


# ----------------------------------------------------------------------
# the bounded-queue frontend
# ----------------------------------------------------------------------
class TestStatsPush:
    """Hot cluster-stats push: bucket-scoped cache invalidation."""

    OLD = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
    OTHER = ClusterStats(mtbf=86400.0, mttr=1.0, nodes=10)
    NEW = ClusterStats(mtbf=600.0, mttr=5.0, nodes=10)

    def test_first_push_establishes_baseline(self):
        engine = small_engine()
        result = engine.push_cluster_stats(self.OLD)
        assert result["changed"] is False
        assert result["evicted"] == 0
        metrics = engine.metrics()
        assert metrics["stats_pushes"] == 1
        assert metrics["cluster_stats"] == {
            "mtbf": result["canonical"].mtbf,
            "mttr": result["canonical"].mttr,
        }

    def test_invalidation_evicts_only_the_superseded_bucket(
        self, paper_plan, chain_plan
    ):
        engine = small_engine()
        engine.push_cluster_stats(self.OLD)
        engine.advise(paper_plan, self.OLD)    # two entries in the
        engine.advise(chain_plan, self.OLD)    # pushed bucket...
        engine.advise(paper_plan, self.OTHER)  # ...one elsewhere
        assert len(engine.cache) == 3
        result = engine.push_cluster_stats(self.NEW)
        assert result["changed"] is True
        assert result["evicted"] == 2
        assert engine.cache.stats()["invalidations"] == 2
        assert len(engine.cache) == 1
        # the untouched bucket stays warm: re-asking is a pure hit
        hits = engine.cache.stats()["hits"]
        engine.advise(paper_plan, self.OTHER)
        assert engine.cache.stats()["hits"] == hits + 1

    def test_same_bucket_push_evicts_nothing(self, paper_plan):
        """Bucketing absorbs estimation noise on the push path exactly
        as on the request path."""
        engine = small_engine()
        engine.push_cluster_stats(self.OLD)
        engine.advise(paper_plan, self.OLD)
        jittered = ClusterStats(mtbf=3610.0, mttr=1.01, nodes=10)
        assert engine.canonical_stats(jittered) \
            == engine.canonical_stats(self.OLD)
        result = engine.push_cluster_stats(jittered)
        assert result["changed"] is False
        assert result["evicted"] == 0
        assert len(engine.cache) == 1
        assert engine.metrics()["stats_pushes"] == 2

    def test_invalidated_key_recomputes_fresh(self, paper_plan):
        """After its bucket is pushed out, the same request is a miss
        and recomputes -- and the answer still equals a direct search."""
        engine = small_engine()
        engine.push_cluster_stats(self.OLD)
        first = engine.advise(paper_plan, self.OLD)
        engine.push_cluster_stats(self.NEW)
        misses = engine.cache.stats()["misses"]
        again = engine.advise(paper_plan, self.OLD)
        assert engine.cache.stats()["misses"] == misses + 1
        assert again == first  # same canonical inputs, same answer
        assert again == direct_advice(paper_plan, self.OLD, engine)

    def test_hit_miss_accounting_survives_pushes(
        self, paper_plan, chain_plan
    ):
        """Invalidations are neither hits nor misses: after any mix of
        advises and pushes, hits + misses == advise calls."""
        engine = small_engine()
        calls = 0
        engine.push_cluster_stats(self.OLD)
        for plan in (paper_plan, chain_plan, paper_plan):
            engine.advise(plan, self.OLD)
            calls += 1
        engine.push_cluster_stats(self.NEW)
        for plan in (paper_plan, chain_plan):
            engine.advise(plan, self.OLD)
            calls += 1
        stats = engine.cache.stats()
        assert stats["hits"] + stats["misses"] == calls
        assert stats["invalidations"] > 0

    def test_push_and_invalidation_counters_fire(self, paper_plan):
        engine = small_engine()
        with obs.recording() as recorder:
            engine.push_cluster_stats(self.OLD)
            engine.advise(paper_plan, self.OLD)
            engine.push_cluster_stats(self.NEW)
        counters = dict(recorder.snapshot().counters)
        assert counters["serve.stats_push"] == 2
        assert counters["serve.cache.invalidations"] == 1

    def test_cache_disabled_push_is_safe(self):
        engine = small_engine(cache_size=0)
        engine.push_cluster_stats(self.OLD)
        result = engine.push_cluster_stats(self.NEW)
        assert result["changed"] is True
        assert result["evicted"] == 0


class TestFrontend:
    def test_submit_result_roundtrip(self, paper_plan):
        engine = small_engine()
        engine.start(workers=2, max_queue=8)
        try:
            stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
            pending = engine.submit(paper_plan, stats)
            assert pending.result(timeout=30.0) \
                == direct_advice(paper_plan, stats, engine)
        finally:
            engine.stop()

    def test_full_queue_sheds(self, paper_plan, monkeypatch):
        engine = small_engine()
        started = threading.Event()
        release = threading.Event()
        original = AdvisoryEngine._compute

        def blocking_compute(self, plan, canonical, scheme):
            started.set()
            release.wait(10.0)
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute",
                            blocking_compute)
        engine.start(workers=1, max_queue=1)
        try:
            stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
            first = engine.submit(paper_plan, stats)
            assert started.wait(10.0)  # worker is busy on request 1
            # second request fills the queue; the third must shed --
            # distinct schemes so nothing coalesces
            second = engine.submit(paper_plan, stats, scheme="all-mat")
            with pytest.raises(ServiceOverloaded):
                engine.submit(paper_plan, stats,
                              scheme="no-mat (restart)")
            release.set()
            first.result(timeout=30.0)
            second.result(timeout=30.0)
        finally:
            release.set()
            engine.stop()

    def test_cached_answer_is_never_shed(self, paper_plan, monkeypatch):
        """With the worker stuck and the queue full of misses, a cached
        key still answers (a finished handle, HTTP 200) while a new miss
        still sheds (ServiceOverloaded, HTTP 429)."""
        engine = small_engine()
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        cached = engine.advise(paper_plan, stats)  # prime before blocking
        started = threading.Event()
        release = threading.Event()
        original = AdvisoryEngine._compute

        def blocking_compute(self, plan, canonical, scheme):
            started.set()
            release.wait(10.0)
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute",
                            blocking_compute)
        engine.start(workers=1, max_queue=1)
        with _serving(engine) as base:
            try:
                first = engine.submit(paper_plan, stats, scheme="all-mat")
                assert started.wait(10.0)  # worker is busy on request 1
                second = engine.submit(paper_plan, stats,
                                       scheme="no-mat (restart)")  # full
                with pytest.raises(ServiceOverloaded):
                    engine.submit(paper_plan, stats,
                                  scheme="no-mat (lineage)")
                hit = engine.submit(paper_plan, stats)
                assert hit.result(timeout=0) is cached
                body = {"plan": plan_to_dict(paper_plan),
                        "stats": stats_to_dict(stats)}
                assert _post(f"{base}/advise", body) \
                    == {"advice": cached.to_dict()}
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(f"{base}/advise",
                          dict(body, scheme="no-mat (lineage)"))
                assert excinfo.value.code == 429
                excinfo.value.close()
                release.set()
                first.result(timeout=30.0)
                second.result(timeout=30.0)
            finally:
                release.set()

    def test_miss_published_while_queued_counts_as_coalesced(
        self, paper_plan, monkeypatch
    ):
        """A queued miss whose key another request publishes before a
        worker reaches it takes the published advice: one search for
        the key, and the accounting invariants hold."""
        engine = small_engine()
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        started = threading.Event()
        release = threading.Event()
        searched = []
        original = AdvisoryEngine._compute

        def compute(self, plan, canonical, scheme):
            searched.append(scheme)
            if scheme == "all-mat":  # only the first request blocks
                started.set()
                release.wait(10.0)
            return original(self, plan, canonical, scheme)

        monkeypatch.setattr(AdvisoryEngine, "_compute", compute)
        engine.start(workers=1, max_queue=4)
        try:
            with obs.recording() as recorder:
                blocker = engine.submit(paper_plan, stats, scheme="all-mat")
                assert started.wait(10.0)  # the worker is stuck
                queued = engine.submit(paper_plan, stats)  # waits in queue
                published = engine.advise(paper_plan, stats)
                release.set()
                blocker.result(timeout=30.0)
                assert queued.result(timeout=30.0) is published
                counters = dict(recorder.snapshot().counters)
        finally:
            release.set()
            engine.stop()
        assert searched.count("cost-based") == 1
        cache = engine.cache.stats()
        assert cache["hits"] + cache["misses"] == counters["serve.requests"]
        assert counters["serve.requests"] == 3
        assert cache["misses"] == (counters["serve.searches"]
                                   + counters["serve.coalesced"])
        assert counters["serve.coalesced"] == 1

    def test_concurrent_submits_search_each_key_once(
        self, paper_plan, chain_plan
    ):
        """More threads than cores, frequent thread switches: every key
        is searched exactly once and the counters stay exact."""
        engine = small_engine()
        requests = [
            (plan, ClusterStats(mtbf=mtbf, mttr=0.0, nodes=1), scheme)
            for plan in (paper_plan, chain_plan)
            for mtbf in (60.0, 600.0, 6000.0)
            for scheme in SCHEME_NAMES
        ]
        errors = []

        def client(offset):
            for index in range(120):
                plan, stats, scheme = requests[
                    (index * 7 + offset) % len(requests)
                ]
                try:
                    engine.submit(plan, stats, scheme).result(timeout=30.0)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        engine.start(workers=3, max_queue=1024)
        try:
            with obs.recording() as recorder:
                threads = [threading.Thread(target=client, args=(offset,))
                           for offset in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                counters = dict(recorder.snapshot().counters)
        finally:
            sys.setswitchinterval(switch_interval)
            engine.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        cache = engine.cache.stats()
        assert counters["serve.requests"] == 8 * 120
        assert cache["hits"] + cache["misses"] == 8 * 120
        assert counters["serve.searches"] == len(requests)
        assert cache["misses"] == (counters["serve.searches"]
                                   + counters.get("serve.coalesced", 0))

    def test_submit_requires_start(self, paper_plan):
        engine = small_engine()
        with pytest.raises(RuntimeError, match="not started"):
            engine.submit(paper_plan, ClusterStats(mtbf=60.0))

    def test_double_start_rejected(self):
        engine = small_engine()
        engine.start(workers=1, max_queue=1)
        try:
            with pytest.raises(RuntimeError, match="already started"):
                engine.start(workers=1, max_queue=1)
        finally:
            engine.stop()
        engine.stop()  # idempotent


# ----------------------------------------------------------------------
# adaptive shard sizing
# ----------------------------------------------------------------------
def _outcome(enumerated: int, duration: float,
             index: int = 0) -> ShardOutcome:
    return ShardOutcome(
        index=index, best=None, enumerated=enumerated, scored=enumerated,
        bound_skips=0, bound_updates=0, batch_prefiltered=0,
        duration=duration,
    )


class TestShardSizer:
    def test_no_observation_no_recommendation(self):
        assert ShardSizer().recommend(1024, parallelism=4) is None

    def test_recommendation_targets_shard_duration(self):
        sizer = ShardSizer(target_seconds=0.2)
        # 1024 configs in 1 s -> 1024 configs/s -> ideal shard =
        # 0.2 s * 1024/s ~ 205 configs -> 5 shards
        sizer.observe([_outcome(1024, 1.0)])
        assert sizer.recommend(1024, parallelism=2) == 5

    def test_clamped_to_parallelism_floor(self):
        sizer = ShardSizer(target_seconds=0.2)
        # blazing rate: ideal would be 1 shard, floor is parallelism
        sizer.observe([_outcome(1024, 0.002)])
        assert sizer.recommend(1024, parallelism=4) == 4

    def test_clamped_to_min_shard_ceiling(self):
        sizer = ShardSizer(target_seconds=0.2)
        # glacial rate: ideal explodes, ceiling is total // MIN
        sizer.observe([_outcome(1024, 600.0)])
        assert sizer.recommend(1024, parallelism=2) \
            == 1024 // MIN_SHARD_CONFIGS

    def test_buckets_are_independent(self):
        sizer = ShardSizer()
        sizer.observe([_outcome(1 << 10, 1.0)])
        assert sizer.recommend(1 << 20, parallelism=2) is None
        assert sizer.recommend(1 << 10, parallelism=2) is not None

    def test_ewma_converges_toward_new_rate(self):
        sizer = ShardSizer(alpha=0.5)
        sizer.observe([_outcome(1000, 1.0)])     # 1000/s
        sizer.observe([_outcome(1000, 0.25)])    # 4000/s
        rates = sizer.snapshot_rates()
        (rate,) = rates.values()
        assert 1000.0 < rate < 4000.0

    def test_noise_floor_ignores_instant_scans(self):
        sizer = ShardSizer()
        sizer.observe([_outcome(64, 1e-7)])
        assert sizer.snapshot_rates() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSizer(target_seconds=0.0)
        with pytest.raises(ValueError):
            ShardSizer(alpha=0.0)

    def test_shard_observer_receives_outcomes(self, paper_plan):
        captured = []
        result = find_best_ft_plan(
            [paper_plan], ClusterStats(mtbf=60.0, mttr=0.0, nodes=1),
            shards=2, shard_observer=captured.append,
        )
        assert result.cost > 0
        (outcomes,) = captured
        assert len(outcomes) >= 2
        assert all(outcome.duration >= 0.0 for outcome in outcomes)

    def test_shard_resize_counter_fires(self, paper_plan, monkeypatch):
        engine = small_engine(shards=4, adaptive_shards=True)
        # pretend a previous scan measured a glacial rate so the
        # recommendation must differ from the static default of 4
        total = 1 << len(paper_plan.free_operators)
        engine.sizer.observe([_outcome(total, 600.0)])
        with obs.recording() as recorder:
            engine.advise(
                paper_plan, ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
            )
            counters = dict(recorder.snapshot().counters)
        assert counters.get("search.shard_resize", 0) == 1


# ----------------------------------------------------------------------
# the HTTP frontend
# ----------------------------------------------------------------------
def _post(url: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())


@contextlib.contextmanager
def _serving(engine: AdvisoryEngine):
    """Serve a started ``engine`` over HTTP; yields the base URL and
    stops the server, then the engine, on exit."""
    server = create_server(engine)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        engine.stop()


@pytest.fixture
def http_service():
    engine = small_engine()
    engine.start(workers=2, max_queue=16)
    with _serving(engine) as base:
        yield base, engine


class TestHTTP:
    def test_advise_roundtrip_matches_direct(
        self, http_service, paper_plan
    ):
        base, engine = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        payload = _post(f"{base}/advise", {
            "plan": plan_to_dict(paper_plan),
            "stats": stats_to_dict(stats),
        })
        reference = direct_advice(paper_plan, stats, engine)
        assert payload["advice"] == reference.to_dict()

    def test_keep_alive_hits_do_not_stall(self, http_service, paper_plan):
        """Sequential hits on one keep-alive connection answer well under
        the client's 40-ms delayed-ACK timer (a response split into two
        segments with Nagle on waits for that timer)."""
        base, _ = http_service
        host, port = base[len("http://"):].split(":")
        body = json.dumps({
            "plan": plan_to_dict(paper_plan),
            "stats": stats_to_dict(ClusterStats(mtbf=60.0, mttr=0.0,
                                                nodes=1)),
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=30.0)
        try:
            timings = []
            for _ in range(21):  # the first request primes the key
                started = time.perf_counter()
                connection.request("POST", "/advise", body, headers)
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                timings.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(timings[1:]) < 0.020

    def test_batch_coalesces_and_orders(self, http_service, paper_plan):
        base, engine = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        entry = {"plan": plan_to_dict(paper_plan),
                 "stats": stats_to_dict(stats)}
        other = dict(entry, scheme="all-mat")
        payload = _post(f"{base}/advise/batch",
                        {"requests": [entry, entry, other]})
        results = payload["results"]
        assert len(results) == 3
        assert results[0] == results[1]
        assert results[2]["advice"]["scheme"] == "all-mat"

    def test_healthz_and_metrics(self, http_service, paper_plan):
        base, engine = http_service
        with urllib.request.urlopen(f"{base}/healthz",
                                    timeout=10.0) as response:
            assert json.loads(response.read()) == {"status": "ok"}
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        _post(f"{base}/advise", {"plan": plan_to_dict(paper_plan),
                                 "stats": stats_to_dict(stats)})
        with urllib.request.urlopen(f"{base}/metrics",
                                    timeout=10.0) as response:
            metrics = json.loads(response.read())
        assert metrics["cache"]["capacity"] == 64
        assert metrics["cache"]["misses"] >= 1

    def test_malformed_payload_is_400(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/advise", {"plan": {"format": "bogus"}})
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, http_service):
        base, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{base}/nope", {})
        assert excinfo.value.code == 404

    def test_batch_reports_per_entry_errors(
        self, http_service, paper_plan
    ):
        base, _ = http_service
        stats = ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)
        good = {"plan": plan_to_dict(paper_plan),
                "stats": stats_to_dict(stats)}
        payload = _post(f"{base}/advise/batch",
                        {"requests": [good, {"nonsense": True},
                                      dict(good, scheme="nope")]})
        assert "advice" in payload["results"][0]
        assert "error" in payload["results"][1]
        assert "unknown fault-tolerance" in payload["results"][2]["error"]
