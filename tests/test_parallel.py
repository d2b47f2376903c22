"""Tests for the parallel execution engine and the on-disk result cache."""

import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError, HarnessError
from repro.harness import (
    ExperimentConfig,
    ResultCache,
    Runner,
    Sweep,
    cache_key,
    experiments,
)
from repro.harness.backend import ProcessPoolBackend, SerialBackend, fuses
import repro.harness.backend as backend_mod
from repro.harness.parallel import resolve_jobs
from repro.obs.metrics import MetricsRegistry
import repro.harness.runner as runner_mod


QUICK = {"outer_reps": 6}


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        platform="toy", benchmark="syncbench", num_threads=4,
        runs=3, seed=17, benchmark_params=QUICK,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_auto(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)


class TestSweep:
    def test_single_config_jobs1_matches_runner(self):
        cfg = _cfg()
        assert Sweep(jobs=1).run([cfg])[0].to_dict() == Runner(cfg).run().to_dict()

    def test_single_config_jobs4_bit_identical_to_runner(self):
        """jobs=4 must reproduce the serial runner byte for byte."""
        cfg = _cfg(runs=4)
        serial = Runner(cfg).run().to_dict()
        parallel = Sweep(jobs=4).run([cfg])[0].to_dict()
        assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_bit_identical_with_freq_logging(self):
        cfg = _cfg(runs=2, freq_logging=True, logger_cpu=14)
        serial = Runner(cfg).run().to_dict()
        parallel = Sweep(jobs=2).run([cfg])[0].to_dict()
        assert parallel == serial

    def test_records_come_back_in_run_order(self):
        result = Sweep(jobs=3).run([_cfg(runs=5)])[0]
        assert [rec.run_index for rec in result.records] == list(range(5))

    def test_many_configs_match_individual_runs(self):
        configs = [_cfg(), _cfg(seed=18), _cfg(benchmark="babelstream",
                                               benchmark_params={"num_times": 3})]
        batched = Sweep(jobs=2).run(configs)
        for cfg, result in zip(configs, batched):
            assert result.to_dict() == Runner(cfg).run().to_dict()

    def test_results_in_input_order(self):
        configs = [_cfg(seed=s) for s in (5, 6, 7)]
        results = Sweep(jobs=2).run(configs)
        assert [r.config.seed for r in results] == [5, 6, 7]

    def test_empty_sweep(self):
        assert Sweep(jobs=2).run([]) == []

    def test_pool_workers_used_counts_processes(self):
        # fused configs go to the pool as whole-config tasks, the rest as
        # run tasks; one process may run both kinds and counts once
        configs = [
            _cfg(benchmark=bench, num_threads=t, runs=4)
            for bench in ("syncbench", "taskbench")
            for t in (2, 4)
        ]
        assert {fuses(cfg) for cfg in configs} == {True, False}
        metrics = MetricsRegistry()
        Sweep(jobs=2, metrics=metrics).run(configs)
        used = metrics.gauge("pool_workers_used").value
        assert 1 <= used <= metrics.gauge("pool_workers").value == 2


class _AlwaysBrokenPool:
    """Executor stand-in whose every submit finds the pool broken."""

    built = 0

    def __init__(self, max_workers):
        type(self).built += 1

    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("a worker process died")

    def shutdown(self, wait=True):
        pass


class TestBrokenPool:
    """A pool worker that dies mid-service ends in a correct retry, or
    in a named error when the replacement pool breaks too."""

    @staticmethod
    def _dumps(outcomes):
        return [json.dumps(r.to_dict(), sort_keys=True) for r, _wall in outcomes]

    def test_killed_worker_is_replaced_and_batch_matches_serial(self):
        # one fused (whole-config) task and one run-task config
        configs = [_cfg(runs=3), _cfg(num_threads=2, runs=1)]
        assert [fuses(cfg) for cfg in configs] == [True, False]
        pending = [(cfg, cache_key(cfg)) for cfg in configs]
        serial = self._dumps(SerialBackend().execute(pending))
        backend = ProcessPoolBackend(2, persistent=True)
        try:
            assert self._dumps(backend.execute(pending)) == serial
            pool = backend._pool
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            assert self._dumps(backend.execute(pending)) == serial
            assert backend._pool is not pool
            assert self._dumps(backend.execute(pending)) == serial
        finally:
            backend.close()

    @pytest.mark.parametrize("persistent", [True, False])
    def test_replacement_pool_breaking_too_is_a_named_error(
        self, monkeypatch, persistent
    ):
        monkeypatch.setattr(backend_mod, "ProcessPoolExecutor", _AlwaysBrokenPool)
        monkeypatch.setattr(_AlwaysBrokenPool, "built", 0)
        backend = ProcessPoolBackend(2, persistent=persistent)
        cfg = _cfg()
        with pytest.raises(HarnessError, match="process pool broke twice"):
            backend.execute([(cfg, cache_key(cfg))])
        assert _AlwaysBrokenPool.built == 2
        assert backend._pool is None


class TestCacheKey:
    def test_stable(self):
        assert cache_key(_cfg()) == cache_key(_cfg())

    def test_seed_changes_key(self):
        assert cache_key(_cfg(seed=1)) != cache_key(_cfg(seed=2))

    def test_any_config_field_changes_key(self):
        base = _cfg()
        assert cache_key(base) != cache_key(base.with_overrides(num_threads=2))
        assert cache_key(base) != cache_key(
            base.with_overrides(benchmark_params={"outer_reps": 7})
        )

    def test_unencodable_value_raises_instead_of_hashing_repr(self):
        """Regression: a non-JSON value used to be hashed via repr(), which
        can embed a memory address -> a different key every process."""
        from repro.errors import HarnessError

        class Opaque:
            pass

        cfg = _cfg(benchmark_params={"outer_reps": 3, "payload": Opaque()})
        with pytest.raises(HarnessError, match="not cacheable") as excinfo:
            cache_key(cfg)
        # the error must name the dotted path of the offending field, not
        # just say "something in to_dict() failed"
        assert "benchmark_params.payload" in str(excinfo.value)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = _cfg()
        assert cache.get(cfg) is None
        result = Runner(cfg).run()
        cache.put(result)
        again = cache.get(cfg)
        assert again is not None
        assert again.to_dict() == result.to_dict()
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_round_trip_with_tuple_params(self, tmp_path):
        """Tuple-valued benchmark params must survive the JSON round trip:
        a replayed result compares equal to the fresh one via to_dict()."""
        cache = ResultCache(tmp_path)
        cfg = _cfg(benchmark_params={"outer_reps": 3, "constructs": ("barrier",)})
        first = Runner(cfg).run()
        cache.put(first)
        again = cache.get(cfg)
        assert again is not None
        assert again.to_dict() == first.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = _cfg()
        cache.path_for(cfg).write_text("{not json")
        assert cache.get(cfg) is None
        assert not cache.path_for(cfg).exists()

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(Runner(_cfg()).run())
        cache.put(Runner(_cfg(seed=99)).run())
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_resets_counters(self, tmp_path):
        """Regression: hits/misses/stores survived clear(), so a test that
        cleared and re-ran read stale counts from before the clear."""
        cache = ResultCache(tmp_path)
        cfg = _cfg()
        assert cache.get(cfg) is None  # miss
        cache.put(Runner(cfg).run())  # store
        assert cache.get(cfg) is not None  # hit
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        cache.clear()
        assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
        # counters now describe only post-clear traffic
        assert cache.get(cfg) is None
        assert (cache.hits, cache.misses, cache.stores) == (0, 1, 0)

    def test_stale_tmp_swept_on_init(self, tmp_path):
        """Regression: tmp files from crashed writers leaked forever."""
        dead = (tmp_path / "abc.json.tmp.999999999")  # pid can't exist
        dead.write_text("{}")
        unparseable = tmp_path / "def.json.tmp.notapid"
        unparseable.write_text("{}")
        cache = ResultCache(tmp_path)
        assert not dead.exists()
        assert not unparseable.exists()
        assert len(cache) == 0

    def test_live_writer_tmp_never_deleted(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put(Runner(_cfg()).run())
        # a tmp owned by a live foreign writer (simulated with our parent's
        # pid) survives the sweep...
        live = tmp_path / f"ghi.json.tmp.{os.getppid()}"
        live.write_text("{}")
        dead = tmp_path / "jkl.json.tmp.999999999"
        dead.write_text("{}")
        assert cache.sweep_stale_tmp() == 1  # only the dead writer's tmp
        assert live.exists() and not dead.exists()
        assert len(cache) == 1  # tmp files never count as entries
        # clear() removes entries but spares the live writer's in-flight
        # tmp (deleting it would crash that writer's rename)
        assert cache.clear() == 1
        assert live.exists()
        assert len(cache) == 0

    def test_counters_exact_under_thread_contention(self, tmp_path):
        """The job service drives one shared ResultCache from several
        worker threads at once; hit/miss/store counts must stay exact
        (the bare ``+= 1`` they replaced loses updates under the very
        interleaving this hammers)."""
        import threading

        cache = ResultCache(tmp_path)
        cfgs = [_cfg(seed=s) for s in range(4)]
        results = {cache_key(c): Runner(c).run() for c in cfgs}
        threads_per_cfg, rounds = 4, 25
        barrier = threading.Barrier(len(cfgs) * threads_per_cfg)
        failures = []

        def hammer(cfg):
            try:
                barrier.wait()
                for _ in range(rounds):
                    cache.get(cfg)  # miss until stored, hit after
                    cache.put(results[cache_key(cfg)])
                    assert cache.get(cfg) is not None
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(cfg,))
            for cfg in cfgs
            for _ in range(threads_per_cfg)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not failures
        total_gets = len(workers) * rounds * 2
        assert cache.hits + cache.misses == total_gets
        assert cache.stores == len(workers) * rounds
        # every first-round pre-store get can miss, everything else hits
        assert cache.misses <= len(workers)

    def test_second_invocation_served_without_simulation(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cfg = _cfg()
        first = Sweep(cache=cache).run([cfg])[0]

        def boom(self, run_index):
            raise AssertionError("simulated despite warm cache")

        monkeypatch.setattr(runner_mod.Runner, "run_one", boom)
        second = Sweep(cache=cache).run([cfg])[0]
        assert second.to_dict() == first.to_dict()
        assert cache.hits == 1 and cache.stores == 1


class TestExperimentsThroughParallelPath:
    def test_table2_parallel_matches_serial(self):
        serial = experiments.table2(runs=2, outer_reps=3, seed=3, jobs=1)
        parallel = experiments.table2(runs=2, outer_reps=3, seed=3, jobs=2)
        for column in serial.data["run_means"]:
            assert (
                parallel.data["run_means"][column].tolist()
                == serial.data["run_means"][column].tolist()
            )

    def test_table2_repeat_performs_zero_new_runs(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        first = experiments.table2(runs=2, outer_reps=3, seed=3, jobs=1, cache=cache)
        assert cache.stores == 4  # one entry per column config

        def boom(self, run_index):
            raise AssertionError("simulated despite warm cache")

        monkeypatch.setattr(runner_mod.Runner, "run_one", boom)
        again = experiments.table2(runs=2, outer_reps=3, seed=3, jobs=1, cache=cache)
        assert cache.hits == 4 and cache.stores == 4
        for column in first.data["run_means"]:
            assert (
                again.data["run_means"][column].tolist()
                == first.data["run_means"][column].tolist()
            )

    def test_figure6_through_parallel_path(self):
        serial = experiments.figure6(runs=2, outer_reps=6, seed=3, jobs=1)
        parallel = experiments.figure6(runs=2, outer_reps=6, seed=3, jobs=2)
        assert parallel.data == serial.data

    #: Tiny-scale kwargs: every driver must at least execute end to end.
    TINY = {
        "table2": dict(runs=1, outer_reps=2),
        "figure1": dict(runs=1, outer_reps=2,
                        dardel_threads=(2,), vera_threads=(2,)),
        "figure2": dict(runs=1, num_times=2,
                        dardel_threads=(2,), vera_threads=(2,)),
        "figure3": dict(runs=1, outer_reps=2, num_times=2,
                        dardel_threads=(2,), vera_threads=(2,)),
        "figure4": dict(runs=1, outer_reps=2, num_times=2),
        "figure5": dict(runs=1, outer_reps=2, num_times=2),
        "figure6": dict(runs=1, outer_reps=2),
        "figure7": dict(runs=1, outer_reps=2),
        "figure8": dict(runs=1, outer_reps=2, threads=(2, 4), grainsizes=(4,),
                        noise_profiles=("default",), total_iters=64),
        "runtime_compare": dict(runs=1, outer_reps=2,
                                dardel_threads=(2,), vera_threads=(2,),
                                runtimes=("gnu", "llvm"),
                                wait_policies=("active",)),
    }

    @pytest.mark.parametrize("name", sorted(experiments.ALL_EXPERIMENTS))
    def test_every_driver_runs_through_parallel_path(self, name, tmp_path):
        cache = ResultCache(tmp_path)
        driver = experiments.ALL_EXPERIMENTS[name]
        art = driver(seed=2, jobs=2, cache=cache, **self.TINY[name])
        assert art.name == name
        assert art.render()
        assert cache.stores > 0 and cache.hits == 0
        again = driver(seed=2, jobs=2, cache=cache, **self.TINY[name])
        assert cache.hits == cache.stores  # replayed entirely from disk
        assert again.data.keys() == art.data.keys()
