"""Pluggable execution backends for the sweep engine.

:class:`~repro.harness.parallel.Sweep` owns the *policy* of a batch run —
cache lookups, result ordering, telemetry — and delegates the *mechanism*
of simulating the configurations that missed the cache to an
:class:`ExecutionBackend`.  Three backends implement the protocol:

* :class:`SerialBackend` — simulate in-process, one config at a time;
* :class:`ProcessPoolBackend` — fan work out over a
  ``ProcessPoolExecutor``: a fused config as one whole-config task, the
  rest as individual runs interleaved round-robin by run index;
* :class:`ShardedBackend` — mark a sweep as one shard of a distributed
  run: the sweep executes only the configurations assigned to the shard,
  on an inner backend.  Every shard worker computes the same partition
  from the configs' cache keys alone (see :func:`shard_index_of`), so N
  workers on N hosts cover a study exactly once with no coordination
  beyond a shared cache directory (see :mod:`repro.harness.shard` and
  docs/distributed.md).

The job count alone picks between the first two (:func:`select_backend`);
a shard wraps that choice.

All backends produce results *bit-identical* to serial execution: a
backend only decides where and in what order runs simulate, never what
they compute (the named RNG streams derive every run from
``(master seed, run index)`` alone).  Which engine simulates a config is
decided by the config alone (:func:`fuses`): the fused rep-axis engine
(:mod:`repro.sim.fused`) evaluates all repetitions of an eligible
multi-run config as one batched array program, the scalar engine runs
everything else one run at a time, and both produce the same bytes.

Shard assignment is deliberately a pure function of the configuration's
cache key: it must not depend on wall-clock time, process ids, host
names or the order in which configs were expanded — otherwise two
workers could compute different partitions and silently skip or
duplicate work.  The DET004 lint rule enforces this statically.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError, HarnessError
from repro.harness.config import ExperimentConfig
from repro.harness.results import ExperimentResult, RunRecord
from repro.harness.runner import Runner

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ExecutionBackend",
    "FusedBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShardedBackend",
    "fuses",
    "parse_shard",
    "resolve_jobs",
    "select_backend",
    "shard_index_of",
]


def fuses(config: ExperimentConfig) -> bool:
    """Whether *config* simulates on the fused rep-axis engine.

    The one routing rule every backend applies: a config fuses iff the
    fused engine has a formulation for it
    (:func:`repro.sim.fused.fused_ineligibility`) and it has a rep axis
    to batch (``runs >= 2``).  The engine is looked up on its module at
    call time, never bound at import.
    """
    from repro.sim.fused import fused_ineligibility

    return fused_ineligibility(config) is None and config.runs >= 2


def _simulate_fused(
    runner: Runner, worker_id: str, t_started: float
) -> tuple[ExperimentResult, float]:
    """Simulate every run of ``runner.config`` on the fused engine.

    Returns the provenance-stamped result and the wall seconds since
    *t_started*; each record carries an equal share of them.
    """
    from repro.sim.fused import run_fused

    result = run_fused(runner)
    elapsed = time.time() - t_started
    per_run = elapsed / max(1, runner.config.runs)
    records = tuple(
        replace(rec, worker_id=worker_id, wall_seconds=per_run)
        for rec in result.records
    )
    return ExperimentResult(config=runner.config, records=records), elapsed


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a job-count request: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
    return jobs


#: Hex digits of the cache key consumed by shard assignment.  16 nibbles
#: = 64 bits, far beyond any realistic shard count, and cheap to parse.
_SHARD_KEY_NIBBLES = 16


def shard_index_of(key: str, shard_count: int) -> int:
    """Deterministic shard assignment for one cache *key*.

    A pure function of the key's leading 64 bits and the shard count:
    independent of config order, wall time, process and host, so every
    worker of an N-shard run computes the identical partition.  Because
    the cache key is itself a SHA-256 over the canonical config JSON,
    assignment is uniform across shards for any config family.
    """
    if shard_count <= 0:
        raise ConfigurationError(f"shard_count must be positive, got {shard_count}")
    return int(key[:_SHARD_KEY_NIBBLES], 16) % shard_count


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse an ``I/N`` shard spec into ``(shard_index, shard_count)``.

    ``I`` is zero-based and must satisfy ``0 <= I < N``.
    """
    index_text, sep, count_text = spec.partition("/")
    try:
        if not sep:
            raise ValueError("missing '/'")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ConfigurationError(
            f"bad shard spec {spec!r}: expected I/N with integers, "
            f"e.g. --shard 0/4"
        ) from None
    if count <= 0:
        raise ConfigurationError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index {index} out of range for {count} shard(s) "
            f"(zero-based: 0..{count - 1})"
        )
    return index, count


class ExecutionBackend:
    """Protocol: simulate a batch of cache-missed configurations.

    :meth:`execute` receives ``(config, cache_key)`` pairs and returns a
    list aligned with its input of ``(ExperimentResult, wall_seconds)``
    tuples.  ``wall_seconds`` is telemetry — the wall time the config's
    simulation consumed (summed across workers for pooled execution) —
    and never flows into results or cache keys.
    """

    #: Whether this backend marks a sweep as one shard of a partition.
    is_sharded: bool = False

    @property
    def workers(self) -> int:
        """Worker processes this backend occupies (1 for in-process)."""
        return 1

    def execute(
        self,
        pending: Sequence[tuple[ExperimentConfig, str]],
        metrics: "MetricsRegistry | None" = None,
    ) -> list[tuple[ExperimentResult, float]]:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Simulate every pending config in-process, in input order.

    Configs that :func:`fuses` routes to the fused engine evaluate all
    their runs as one batched array program (the records' ``worker_id``
    stamp reads ``fused``); the rest run the scalar per-run loop
    (``main``).  The stamp is provenance only (``compare=False``, never
    serialized): both engines produce byte-identical results.
    """

    def execute(
        self,
        pending: Sequence[tuple[ExperimentConfig, str]],
        metrics: "MetricsRegistry | None" = None,
    ) -> list[tuple[ExperimentResult, float]]:
        out: list[tuple[ExperimentResult, float]] = []
        for cfg, _key in pending:
            t_cfg = time.time()
            runner = Runner(cfg)
            if fuses(cfg):
                out.append(_simulate_fused(runner, "fused", t_cfg))
                continue
            records = []
            for run in range(cfg.runs):
                t_run = time.time()
                record = runner.run_one(run)
                records.append(replace(
                    record,
                    worker_id="main",
                    wall_seconds=time.time() - t_run,
                ))
            result = ExperimentResult(config=cfg, records=tuple(records))
            out.append((result, time.time() - t_cfg))
        return out


class FusedBackend(SerialBackend):
    """:class:`SerialBackend` under its former fused-mode name.

    Kept only because the end-to-end benchmark harness (``e2ebench/``)
    subclasses it as ``FusedBackend("auto")``; it is removed together
    with that call when the benchmark harness next changes.  ``"auto"``
    is the routing every backend now applies, so any other mode is an
    error.
    """

    def __init__(self, mode: str = "auto"):
        require_auto_fusion(mode)


def require_auto_fusion(mode: str) -> None:
    """Reject a fused mode other than ``"auto"``: the benchmark-harness
    spelling of the routing :func:`fuses` applies unconditionally."""
    if mode != "auto":
        raise ConfigurationError(
            f"fused mode {mode!r} no longer exists: eligible multi-run "
            f"configs always fuse (the only accepted value is 'auto')"
        )


#: Per-worker-process table of constructed runners (config key -> Runner).
_WORKER_RUNNERS: dict[str, Runner] = {}


def _execute_run(
    key: str, config: ExperimentConfig, run_index: int
) -> tuple[RunRecord, float]:
    """Worker entry point: simulate one run of *config* by index.

    Returns the record stamped with execution provenance (worker id + wall
    duration; both ``compare=False`` and never serialized, see
    :class:`~repro.harness.results.RunRecord`) alongside the wall time at
    which the worker actually started — the parent subtracts its submit time
    to measure queue wait.
    """
    t_started = time.time()
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = _WORKER_RUNNERS[key] = Runner(config)
    record = runner.run_one(run_index)
    stamped = replace(
        record,
        worker_id=f"pid{os.getpid()}",
        wall_seconds=time.time() - t_started,
    )
    return stamped, t_started


def _execute_config_fused(
    key: str, config: ExperimentConfig
) -> tuple[ExperimentResult, float, float]:
    """Worker entry point: simulate *all* runs of *config* fused.

    The fused engine batches the whole rep axis, so a fused config is one
    pool task rather than ``runs`` interleaved run tasks.  Records carry
    the same ``pid<N>`` stamp as run tasks, so distinct stamps count
    worker processes.  Returns the stamped result, the worker's start
    wall time (for queue-wait telemetry) and the elapsed simulation wall
    time.
    """
    t_started = time.time()
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = _WORKER_RUNNERS[key] = Runner(config)
    result, elapsed = _simulate_fused(runner, f"pid{os.getpid()}", t_started)
    return result, t_started, elapsed


class ProcessPoolBackend(ExecutionBackend):
    """Fan the runs of every pending config out over a process pool.

    Runs are interleaved round-robin by run index so every config makes
    progress from the start instead of whole configs queueing FIFO; the
    parent reassembles records in run order, so results are bit-identical
    to serial execution.

    With ``persistent=True`` the executor is created lazily on first use
    and reused across :meth:`execute` calls until :meth:`close` — the job
    service multiplexes every job over one such backend, so concurrent
    jobs share a single pool instead of each paying pool startup and
    oversubscribing the host.  ``submit`` on a ``ProcessPoolExecutor`` is
    thread-safe, so concurrent ``execute`` calls interleave safely; only
    the lazy construction and replacement need the lock.

    A worker that dies mid-batch (killed, e.g. by the OOM killer) breaks
    the whole executor.  The broken pool is replaced and the batch
    retried once — a run's result is a pure function of its config and
    index, so the retry produces the same bytes; a second break raises
    :class:`~repro.errors.HarnessError`.
    """

    def __init__(self, jobs: int | None = None, persistent: bool = False):
        self.jobs = resolve_jobs(jobs)
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self.jobs

    def _acquire_pool(self, task_count: int) -> tuple[ProcessPoolExecutor, bool]:
        """Executor for one batch plus whether the caller owns (must close) it."""
        if not self.persistent:
            return (
                ProcessPoolExecutor(max_workers=min(self.jobs, task_count)),
                True,
            )
        with self._pool_lock:
            if self._pool is None:
                # shared across batches, so size by the configured job
                # count rather than any one batch's task count
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return self._pool, False

    def _discard_pool(self, broken: ProcessPoolExecutor) -> None:
        """Drop a broken persistent executor so the next batch builds a
        fresh one.  Concurrent batches that hit the same break drop it
        once: a pool already replaced is left alone."""
        with self._pool_lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=True)

    def close(self) -> None:
        """Shut down the persistent executor (no-op for per-batch pools)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def execute(
        self,
        pending: Sequence[tuple[ExperimentConfig, str]],
        metrics: "MetricsRegistry | None" = None,
    ) -> list[tuple[ExperimentResult, float]]:
        if not pending:
            return []
        # fused-eligible configs batch their whole rep axis in one worker
        # task; the rest interleave round-robin by run index so every
        # config makes progress from the start instead of queueing FIFO
        fused_idx = {i for i, (cfg, _key) in enumerate(pending) if fuses(cfg)}
        tasks = sorted(
            (run, i, cfg, key)
            for i, (cfg, key) in enumerate(pending)
            if i not in fused_idx
            for run in range(cfg.runs)
        )
        n_tasks = len(tasks) + len(fused_idx)
        max_workers = min(self.jobs, n_tasks)
        t_pool = time.time()
        for attempt in (1, 2):
            pool, owned = self._acquire_pool(n_tasks)
            try:
                out, queue_waits = _run_batch(pool, pending, fused_idx, tasks)
                break
            except BrokenProcessPool as exc:
                if not owned:
                    self._discard_pool(pool)
                if attempt == 2:
                    raise HarnessError(
                        f"process pool broke twice on a batch of "
                        f"{len(pending)} config(s): a worker process died "
                        f"(killed or out of memory) in the replacement pool too"
                    ) from exc
            finally:
                if owned:
                    pool.shutdown(wait=True)
        m = metrics
        if m is not None:
            for wait in queue_waits:
                m.histogram("queue_wait_seconds").observe(wait)
            elapsed = time.time() - t_pool
            busy = sum(wall for _result, wall in out)
            m.gauge("pool_elapsed_seconds").set(elapsed)
            m.gauge("pool_utilization").set(
                min(1.0, busy / (elapsed * max_workers)) if elapsed > 0 else 0.0
            )
            used = {rec.worker_id for result, _wall in out for rec in result.records}
            m.gauge("pool_workers_used").set(len(used))
        return out


def _run_batch(
    pool: ProcessPoolExecutor,
    pending: Sequence[tuple[ExperimentConfig, str]],
    fused_idx: set[int],
    tasks: list[tuple[int, int, ExperimentConfig, str]],
) -> tuple[list[tuple[ExperimentResult, float]], list[float]]:
    """Submit one batch to *pool* and collect it in input order.

    Returns the per-config outcomes and every task's queue wait (worker
    start minus submit time), in collection order.
    """
    submits: dict[tuple[int, int], float] = {}
    futures = {}
    fused_submits: dict[int, float] = {}
    fused_futures = {}
    for i in sorted(fused_idx):
        cfg, key = pending[i]
        fused_submits[i] = time.time()
        fused_futures[i] = pool.submit(_execute_config_fused, key, cfg)
    for run, i, cfg, key in tasks:
        submits[(i, run)] = time.time()
        futures[(i, run)] = pool.submit(_execute_run, key, cfg, run)
    out: list[tuple[ExperimentResult, float]] = []
    queue_waits: list[float] = []
    for i, (cfg, _key) in enumerate(pending):
        if i in fused_idx:
            result, t_started, elapsed = fused_futures[i].result()
            queue_waits.append(max(0.0, t_started - fused_submits[i]))
            out.append((result, elapsed))
            continue
        records = []
        for run in range(cfg.runs):
            record, t_started = futures[(i, run)].result()
            records.append(record)
            queue_waits.append(max(0.0, t_started - submits[(i, run)]))
        result = ExperimentResult(config=cfg, records=tuple(records))
        # pooled configs report the CPU time their runs consumed
        # (run walls overlap across workers, so elapsed is not it)
        out.append((result, sum(r.wall_seconds or 0.0 for r in records)))
    return out, queue_waits


class ShardedBackend(ExecutionBackend):
    """Mark a sweep as shard ``shard_index`` of ``shard_count``.

    The sweep executes only the configs this shard :meth:`assigns`, on
    *inner*, then writes a shard manifest and stops instead of returning
    partial results (see :mod:`repro.harness.shard`).  Assignment is
    :func:`shard_index_of` over each config's cache key — a pure content
    hash, so independent workers running the same study with ``--shard
    0/N`` .. ``--shard N-1/N`` partition it exactly, in any order, on any
    host.
    """

    is_sharded = True

    def __init__(
        self,
        shard_index: int,
        shard_count: int,
        inner: ExecutionBackend | None = None,
    ):
        if shard_count <= 0:
            raise ConfigurationError(
                f"shard_count must be positive, got {shard_count}"
            )
        if not 0 <= shard_index < shard_count:
            raise ConfigurationError(
                f"shard index {shard_index} out of range for "
                f"{shard_count} shard(s)"
            )
        if inner is not None and inner.is_sharded:
            raise ConfigurationError("sharded backends do not nest")
        self.shard_index = shard_index
        self.shard_count = shard_count
        self.inner = inner if inner is not None else SerialBackend()

    @property
    def workers(self) -> int:
        return self.inner.workers

    @property
    def label(self) -> str:
        """Display form, e.g. ``"0/4"``."""
        return f"{self.shard_index}/{self.shard_count}"

    def assigns(self, key: str) -> bool:
        """Whether the config with cache *key* belongs to this shard."""
        return shard_index_of(key, self.shard_count) == self.shard_index


def select_backend(
    jobs: int | None = 1, *, persistent: bool = False
) -> ExecutionBackend:
    """The backend a job count asks for: :class:`SerialBackend` for one
    worker, a :class:`ProcessPoolBackend` (``persistent`` as given)
    otherwise.  ``None``/``0`` mean every core (:func:`resolve_jobs`)."""
    jobs = resolve_jobs(jobs)
    if jobs == 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs, persistent=persistent)
