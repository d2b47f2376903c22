"""Batch execution of experiment runs through pluggable backends.

The paper's evaluation is a sweep of *independent* benchmark runs: the named
RNG streams in :mod:`repro.rng` derive every run's realization from
``(master seed, run index)`` alone, so run 7 is the same realization whether
it is simulated alone, serially after runs 0-6, or concurrently on another
process.  That makes fan-out trivially deterministic: each worker
reconstructs the platform + runtime from the (picklable) config and executes
single runs by index, and the parent reassembles records in run order.  The
output is therefore *bit-identical* to the serial :class:`Runner`.

:class:`Sweep` schedules configs through one
:class:`~repro.harness.backend.ExecutionBackend`, with an optional
:class:`~repro.harness.cache.ResultCache` consulted per config before any
simulation is scheduled.  It owns batch *policy* — cache lookups,
write-back, result ordering, telemetry — and delegates the *mechanism*
of simulating cache-missed configs to its backend
(:mod:`repro.harness.backend`): serial in-process or a shared process
pool interleaved round-robin by run index, run for the whole batch or
for one shard of a distributed partition.  A sharded sweep commits
its shard's results plus a shard manifest to the cache and then raises
:class:`~repro.harness.shard.ShardRunComplete` instead of returning — a
shard has no complete result set to hand back (see
:mod:`repro.harness.shard` and ``repro-omp gather``).

Pool workers keep a per-process table of constructed runners keyed by the
config's cache key, so a config's platform/runtime/benchmark stack is built
at most once per worker rather than once per run.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import HarnessError
from repro.harness.backend import (
    ExecutionBackend,
    ShardedBackend,
    resolve_jobs,
    select_backend,
)
from repro.harness.cache import ResultCache, cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult
from repro.harness.shard import ShardRunComplete, ShardSummary, write_shard_manifest
from repro.obs.metrics import MetricsRegistry

__all__ = ["Sweep", "resolve_jobs"]


class Sweep:
    """Batch executor: many configs, one execution backend, one cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` executes serially in-process (the
        degenerate case, no pool); ``None``/``0`` use every core.
        Ignored when an explicit *backend* is given.
    cache:
        Optional :class:`ResultCache`.  Each config is looked up before
        scheduling; finished results (cached or fresh) are written back.
        Mandatory for sharded backends — the shared cache directory *is*
        the channel shard workers communicate results through.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` (plane 2 of
        :mod:`repro.obs`).  When given, each :meth:`run` records config
        counts (total/cached/simulated), cache hit/miss/store deltas,
        per-run and per-config wall times, pool worker count and
        utilization, and queue-wait times.  Telemetry only — results are
        byte-identical with or without it.
    backend:
        Explicit :class:`~repro.harness.backend.ExecutionBackend`.  When
        ``None`` (the default), *jobs* picks one
        (:func:`~repro.harness.backend.select_backend`).
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        backend: ExecutionBackend | None = None,
    ):
        if backend is None:
            backend = select_backend(jobs)
        self.backend = backend
        self.jobs = backend.workers
        self.cache = cache
        self.metrics = metrics
        #: Wall seconds each config of the most recent :meth:`run` took
        #: (aligned with its ``configs`` argument; cache hits cost ~0).
        #: The Study layer aggregates these per axis value.
        self.last_config_walls: list[float] = []

    def run(self, configs: Sequence[ExperimentConfig]) -> list[ExperimentResult]:
        """Execute every config; results come back in input order.

        With a sharded backend this executes the shard's subset, writes
        the shard manifest, and raises
        :class:`~repro.harness.shard.ShardRunComplete` — see the module
        docstring.
        """
        configs = list(configs)
        if self.backend.is_sharded:
            self._run_shard(configs)  # raises ShardRunComplete
        results: list[ExperimentResult | None] = [None] * len(configs)
        walls = [0.0] * len(configs)
        cache = self.cache
        cache_before = (
            (cache.hits, cache.misses, cache.stores) if cache is not None else None
        )

        pending: list[tuple[int, ExperimentConfig, str]] = []
        for i, cfg in enumerate(configs):
            if cache is not None:
                hit = cache.get(cfg)
                if hit is not None:
                    results[i] = hit
                    continue
            pending.append((i, cfg, cache_key(cfg)))

        if pending:
            outcomes = self.backend.execute(
                [(cfg, key) for _i, cfg, key in pending], self.metrics
            )
            for (i, _cfg, _key), outcome in zip(pending, outcomes):
                result, wall = outcome
                results[i] = result
                walls[i] = wall
            if cache is not None:
                for i, _cfg, _key in pending:
                    cache.put(results[i])

        self.last_config_walls = walls
        if self.metrics is not None:
            self._record_metrics(
                self.metrics,
                len(configs),
                len(configs) - len(pending),
                [(results[i], walls[i]) for i, _cfg, _key in pending],
                cache_before,
            )
        return results  # type: ignore[return-value]

    def _run_shard(self, configs: list[ExperimentConfig]) -> None:
        """Execute this worker's shard of *configs*, then stop.

        Looks up the cache for assigned configs only, simulates the
        misses through the backend, writes everything back, records the
        manifest covering the *whole* assigned set (hits included — the
        manifest describes coverage, not work), and raises
        :class:`ShardRunComplete` with the summary.

        Everything that decides membership here is a pure function of the
        configs' cache keys (no wall clock, no pids — DET004), so every
        worker of the partition computes the identical split.
        """
        backend = self.backend
        assert isinstance(backend, ShardedBackend)
        cache = self.cache
        if cache is None:
            raise HarnessError(
                "sharded execution requires a shared cache (--cache-dir): "
                "the cache directory is how shard workers publish results "
                "for gather"
            )
        cache_before = (cache.hits, cache.misses, cache.stores)

        assigned: list[tuple[int, ExperimentConfig, str]] = []
        for i, cfg in enumerate(configs):
            key = cache_key(cfg)
            if backend.assigns(key):
                assigned.append((i, cfg, key))

        pending = [
            (cfg, key) for _i, cfg, key in assigned if cache.get(cfg) is None
        ]
        m = self.metrics
        outcomes = backend.inner.execute(pending, m) if pending else []
        for result, _wall in outcomes:
            cache.put(result)

        if m is not None:
            self._record_metrics(
                m, len(configs), len(assigned) - len(pending), outcomes,
                cache_before,
            )
            label = backend.label
            m.counter("shard_configs_assigned", shard=label).inc(len(assigned))
            m.counter("shard_configs_simulated", shard=label).inc(len(pending))
            m.counter("shard_configs_cached", shard=label).inc(
                len(assigned) - len(pending)
            )

        manifest = write_shard_manifest(
            cache,
            backend.shard_index,
            backend.shard_count,
            [cfg for _i, cfg, _key in assigned],
            telemetry=m.to_dict() if m is not None else None,
        )
        raise ShardRunComplete(ShardSummary(
            shard_index=backend.shard_index,
            shard_count=backend.shard_count,
            configs_total=len(configs),
            assigned=len(assigned),
            simulated=len(pending),
            cached=len(assigned) - len(pending),
            manifest_path=manifest,
        ))

    def _record_metrics(
        self,
        m: MetricsRegistry,
        n_configs: int,
        n_cached: int,
        simulated: list[tuple[ExperimentResult, float]],
        cache_before: tuple[int, int, int] | None,
    ) -> None:
        """Record one batch: config counts, the wall time of every
        simulated config and run, and the cache traffic since
        *cache_before*."""
        m.gauge("pool_workers").set(self.jobs)
        m.counter("configs_total").inc(n_configs)
        m.counter("configs_simulated").inc(len(simulated))
        m.counter("configs_cached").inc(n_cached)
        for result, wall in simulated:
            m.histogram("config_wall_seconds").observe(wall)
            for rec in result.records:
                if rec.wall_seconds is not None:
                    m.histogram("run_wall_seconds").observe(rec.wall_seconds)
        if cache_before is not None and self.cache is not None:
            h0, mi0, s0 = cache_before
            m.counter("cache_hits").inc(self.cache.hits - h0)
            m.counter("cache_misses").inc(self.cache.misses - mi0)
            m.counter("cache_stores").inc(self.cache.stores - s0)
