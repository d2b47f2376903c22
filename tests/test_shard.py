"""Tests for sharded execution: backends, manifests, gather, cache tools.

The distributed-execution contract under test is the determinism
contract extended across hosts: the union of N shard runs, gathered,
must be **byte-identical** to the unsharded serial artifact — and every
failure mode (missing shard, tampered entry, mixed partitions) must be
an actionable error, never silently partial data.
"""

import json

import pytest

from repro.errors import ConfigurationError, HarnessError
from repro.harness import (
    ExperimentConfig,
    ProcessPoolBackend,
    ReplayCache,
    ResultCache,
    SerialBackend,
    ShardRunComplete,
    ShardedBackend,
    Study,
    Sweep,
    cache_key,
    experiments,
    parse_shard,
    select_backend,
    shard_index_of,
)
from repro.harness.shard import (
    ShardSummary,
    load_manifests,
    manifest_path,
    verify_manifest_entries,
    write_shard_manifest,
)
from repro.obs.metrics import MetricsRegistry

QUICK = {"outer_reps": 6}


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        platform="toy", benchmark="syncbench", num_threads=4,
        runs=2, seed=17, benchmark_params=QUICK,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _study(threads=(2, 4, 8), runs=2) -> Study:
    return Study(
        _cfg(runs=runs), name="shard-test", description="sharding fixtures"
    ).grid(num_threads=list(threads))


def _run_all_shards(study: Study, cache: ResultCache, n: int) -> list[ShardSummary]:
    summaries = []
    for i in range(n):
        with pytest.raises(ShardRunComplete) as exc_info:
            study.run(cache=cache, backend=ShardedBackend(i, n))
        summaries.append(exc_info.value.summary)
    return summaries


def _dumps(result) -> str:
    return json.dumps(
        [r.to_dict() for r in result.results], sort_keys=True
    )


# ---------------------------------------------------------------------------
# Shard assignment and spec parsing
# ---------------------------------------------------------------------------


class TestShardAssignment:
    def test_pure_function_of_key(self):
        key = cache_key(_cfg())
        assert shard_index_of(key, 4) == shard_index_of(key, 4)
        assert 0 <= shard_index_of(key, 4) < 4

    def test_independent_of_config_order(self):
        """Assignment derives from content hashes, not list positions."""
        configs = [_cfg(num_threads=t) for t in (2, 4, 8, 16)]
        forward = {cache_key(c): shard_index_of(cache_key(c), 3) for c in configs}
        backward = {
            cache_key(c): shard_index_of(cache_key(c), 3)
            for c in reversed(configs)
        }
        assert forward == backward

    def test_partition_is_exact(self):
        """Every config lands in exactly one shard; shards are disjoint."""
        configs = [_cfg(num_threads=t) for t in (2, 4, 8, 16)]
        n = 3
        backends = [ShardedBackend(i, n) for i in range(n)]
        for cfg in configs:
            key = cache_key(cfg)
            owners = [b.shard_index for b in backends if b.assigns(key)]
            assert owners == [shard_index_of(key, n)]

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            shard_index_of("ab" * 32, 0)

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)

    @pytest.mark.parametrize("spec", ["4/4", "-1/4", "0/0", "1", "a/b", "1/"])
    def test_parse_shard_rejects(self, spec):
        with pytest.raises(ConfigurationError):
            parse_shard(spec)

    def test_sharded_backend_validates(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend(2, 2)
        with pytest.raises(ConfigurationError):
            ShardedBackend(0, 2, inner=ShardedBackend(0, 2))


class TestSelectBackend:
    """The job count alone picks the backend; a shard wraps the pick."""

    def test_one_job_is_serial(self):
        assert type(select_backend(1)) is SerialBackend
        assert type(Sweep(jobs=1).backend) is SerialBackend

    def test_more_jobs_build_a_pool(self):
        pool = select_backend(3)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 3 and not pool.persistent
        assert select_backend(3, persistent=True).persistent
        assert Sweep(jobs=3).backend.workers == 3

    def test_shard_wraps_the_selected_backend(self, tmp_path):
        import argparse

        from repro.cli import _execution_backend
        from repro.serve import JobService

        backend = _execution_backend(argparse.Namespace(jobs=1, shard="1/2"))
        assert isinstance(backend, ShardedBackend)
        assert type(backend.inner) is SerialBackend
        assert backend.label == "1/2"
        pooled = _execution_backend(argparse.Namespace(jobs=2, shard="0/2"))
        assert isinstance(pooled.inner, ProcessPoolBackend)
        assert pooled.workers == 2
        svc = JobService(tmp_path)  # governor never started
        job_backend = svc._job_backend({"shard": "1/3"})
        assert job_backend.inner is svc.backend and job_backend.label == "1/3"
        assert svc._job_backend({}) is svc.backend

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            select_backend(-1)


# ---------------------------------------------------------------------------
# Backend extraction keeps the engine bit-identical
# ---------------------------------------------------------------------------


class TestBackendRefactor:
    def test_explicit_serial_backend_matches_jobs1(self):
        configs = [_cfg(num_threads=t) for t in (2, 4)]
        via_jobs = Sweep(jobs=1).run(configs)
        via_backend = Sweep(backend=SerialBackend()).run(configs)
        assert [r.to_dict() for r in via_backend] == [
            r.to_dict() for r in via_jobs
        ]

    def test_explicit_pool_backend_matches_serial(self):
        configs = [_cfg(num_threads=t, runs=3) for t in (2, 4)]
        serial = Sweep(jobs=1).run(configs)
        pooled = Sweep(backend=ProcessPoolBackend(2)).run(configs)
        assert json.dumps([r.to_dict() for r in pooled], sort_keys=True) == (
            json.dumps([r.to_dict() for r in serial], sort_keys=True)
        )

    def test_sweep_reports_backend_workers(self):
        assert Sweep(backend=ProcessPoolBackend(5)).jobs == 5
        assert Sweep(backend=SerialBackend()).jobs == 1


# ---------------------------------------------------------------------------
# Sharded runs + gather
# ---------------------------------------------------------------------------


class TestShardedRun:
    def test_requires_cache(self):
        with pytest.raises(HarnessError, match="shared cache"):
            _study().run(backend=ShardedBackend(0, 2))

    def test_raises_shard_run_complete_with_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        with pytest.raises(ShardRunComplete) as exc_info:
            study.run(cache=cache, backend=ShardedBackend(0, 2))
        summary = exc_info.value.summary
        assert summary.label == "0/2"
        assert summary.manifest_path.exists()
        assert summary.assigned == summary.simulated + summary.cached
        payload = json.loads(summary.manifest_path.read_text())
        assert payload["kind"] == "repro-omp-shard-manifest"
        assert len(payload["entries"]) == summary.assigned

    def test_manifest_covers_cache_hits_too(self, tmp_path):
        """Re-running a shard over a warm cache still records coverage."""
        cache = ResultCache(tmp_path)
        study = _study()
        first = _run_all_shards(study, cache, 2)
        again = _run_all_shards(study, cache, 2)
        for before, after in zip(first, again):
            assert after.assigned == before.assigned
            assert after.simulated == 0
            assert after.cached == before.assigned

    def test_shards_partition_the_study(self, tmp_path):
        summaries = _run_all_shards(_study(), ResultCache(tmp_path), 2)
        assert sum(s.assigned for s in summaries) == len(_study())

    def test_per_shard_metrics(self, tmp_path):
        cache = ResultCache(tmp_path)
        metrics = MetricsRegistry()
        with pytest.raises(ShardRunComplete) as exc_info:
            _study().run(cache=cache, backend=ShardedBackend(0, 2), metrics=metrics)
        assigned = exc_info.value.summary.assigned
        counter = metrics.counter("shard_configs_assigned", shard="0/2")
        assert counter.value == assigned

    def test_shard_telemetry_counts_only_assigned_configs(self, tmp_path):
        study = _study()
        cache = ResultCache(tmp_path)
        for simulated in (True, False):  # cold, then replayed from cache
            metrics = MetricsRegistry()
            with pytest.raises(ShardRunComplete) as exc_info:
                study.run(cache=cache, backend=ShardedBackend(0, 2),
                          metrics=metrics)
            summary = exc_info.value.summary
            assigned = summary.assigned
            assert 0 < assigned < len(study)
            n_sim = assigned if simulated else 0
            counters = {
                (c["name"], c["labels"].get("shard")): c["value"]
                for c in metrics.to_dict()["counters"]
            }
            assert counters == {
                ("configs_total", None): len(study),
                ("configs_simulated", None): n_sim,
                ("configs_cached", None): assigned - n_sim,
                ("shard_configs_assigned", "0/2"): assigned,
                ("shard_configs_simulated", "0/2"): n_sim,
                ("shard_configs_cached", "0/2"): assigned - n_sim,
                ("cache_hits", None): assigned - n_sim,
                ("cache_misses", None): n_sim,
                ("cache_stores", None): n_sim,
            }
            assert metrics.gauge("pool_workers").value == 1
            histograms = {
                h["name"]: h["count"] for h in metrics.to_dict()["histograms"]
            }
            assert histograms == (
                {"config_wall_seconds": n_sim, "run_wall_seconds": 2 * n_sim}
                if simulated else {}
            )


class TestGather:
    def test_gather_equals_serial(self, tmp_path):
        study = _study()
        serial = study.run(jobs=1)
        cache = ResultCache(tmp_path)
        _run_all_shards(study, cache, 2)
        gathered = study.gather(cache)
        assert _dumps(gathered) == _dumps(serial)

    def test_gathered_export_byte_identical(self, tmp_path):
        study = _study()
        serial_path = tmp_path / "serial.json"
        merged_path = tmp_path / "merged.json"
        study.run(jobs=1).to_json(serial_path)
        cache = ResultCache(tmp_path / "cache")
        _run_all_shards(study, cache, 2)
        study.gather(cache).to_json(merged_path)
        assert serial_path.read_bytes() == merged_path.read_bytes()

    def test_single_shard_equals_unsharded(self, tmp_path):
        """N=1: the degenerate partition is just a sharded serial run."""
        study = _study()
        cache = ResultCache(tmp_path)
        (summary,) = _run_all_shards(study, cache, 1)
        assert summary.assigned == len(study)
        assert _dumps(study.gather(cache)) == _dumps(study.run(jobs=1))

    def test_more_shards_than_configs(self, tmp_path):
        """Empty shards write (empty) manifests and gather cleanly."""
        study = _study(threads=(2, 4))  # 2 configs
        cache = ResultCache(tmp_path)
        summaries = _run_all_shards(study, cache, 5)
        assert sum(s.assigned for s in summaries) == 2
        assert sum(1 for s in summaries if s.assigned == 0) == 3
        assert _dumps(study.gather(cache)) == _dumps(study.run(jobs=1))

    def test_uneven_split(self, tmp_path):
        """A partition never loses configs, however lopsided it falls."""
        study = _study(threads=(1, 2, 4, 8, 16), runs=1)
        cache = ResultCache(tmp_path)
        summaries = _run_all_shards(study, cache, 3)
        sizes = sorted(s.assigned for s in summaries)
        assert sum(sizes) == 5
        assert _dumps(study.gather(cache)) == _dumps(study.run(jobs=1))

    def test_gather_merges_shard_telemetry(self, tmp_path):
        study = _study()
        cache = ResultCache(tmp_path)
        for i in range(2):
            with pytest.raises(ShardRunComplete):
                study.run(
                    cache=cache, backend=ShardedBackend(i, 2),
                    metrics=MetricsRegistry(),
                )
        metrics = MetricsRegistry()
        study.gather(cache, metrics=metrics)
        assert metrics.gauge("manifest_shards").value == 2
        assert metrics.gauge("manifest_entries").value == len(study)
        assert metrics.gauge("manifest_total_bytes").value > 0
        # the shards' own simulated-config counters merged in
        simulated = sum(
            metrics.counter("shard_configs_simulated", shard=f"{i}/2").value
            for i in range(2)
        )
        assert simulated == len(study)

    def test_expected_shards_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        with pytest.raises(HarnessError, match="--expect-shards"):
            study.gather(cache, expected_shards=3)


class TestGatherFailureModes:
    def test_no_manifests(self, tmp_path):
        with pytest.raises(HarnessError, match="no shard manifests"):
            _study().gather(ResultCache(tmp_path))

    def test_missing_shard_names_the_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, backend=ShardedBackend(0, 2))
        with pytest.raises(HarnessError, match=r"--shard 1/2"):
            study.gather(cache)

    def test_mixed_partitions_detected(self, tmp_path):
        """Manifests from two different --shard I/N partitions in one dir."""
        cache = ResultCache(tmp_path)
        study = _study()
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, backend=ShardedBackend(0, 2))
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, backend=ShardedBackend(1, 3))
        with pytest.raises(HarnessError, match="disagree on the partition"):
            study.gather(cache)

    def test_stale_partition_duplicate_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        with pytest.raises(ShardRunComplete):
            study.run(cache=cache, backend=ShardedBackend(0, 3))
        with pytest.raises(HarnessError, match="duplicate manifests"):
            study.gather(cache)

    def test_tampered_entry_is_integrity_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        entry = next(
            p for p in cache.cache_dir.glob("*.json")
            if "manifest" not in p.name
        )
        data = json.loads(entry.read_text())
        data["records"][0]["series"] = {
            k: [v * 1.5 for v in vals]
            for k, vals in data["records"][0]["series"].items()
        }
        entry.write_text(json.dumps(data))
        with pytest.raises(HarnessError, match="integrity failure"):
            study.gather(cache)

    def test_tampered_manifest_digest_is_integrity_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        target = next(
            p for p in cache.cache_dir.glob("shard-*.manifest.json")
            if json.loads(p.read_text())["entries"]
        )
        payload = json.loads(target.read_text())
        payload["entries"][0]["sha256"] = "0" * 64
        target.write_text(json.dumps(payload))
        with pytest.raises(HarnessError, match="integrity failure"):
            study.gather(cache)

    def test_deleted_entry_is_integrity_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        entry = next(
            p for p in cache.cache_dir.glob("*.json")
            if "manifest" not in p.name
        )
        entry.unlink()
        with pytest.raises(HarnessError, match="missing"):
            study.gather(cache)

    def test_foreign_shard_claim_detected(self, tmp_path):
        """A manifest claiming a key the partition assigns elsewhere."""
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 2)
        manifests = {
            i: json.loads(manifest_path(cache, i, 2).read_text())
            for i in range(2)
        }
        donor = next(i for i, p in manifests.items() if p["entries"])
        thief = 1 - donor
        manifests[thief]["entries"].append(manifests[donor]["entries"][0])
        manifest_path(cache, thief, 2).write_text(
            json.dumps(manifests[thief])
        )
        with pytest.raises(HarnessError, match="assigns to shard"):
            load_manifests(cache)

    def test_uncovered_config_names_owning_shard(self, tmp_path):
        """Shards ran a *different* study: gather must say which shard to
        re-run for the uncovered config, not replay a partial union."""
        cache = ResultCache(tmp_path)
        narrow = _study(threads=(2, 4))
        _run_all_shards(narrow, cache, 2)
        wide = _study(threads=(2, 4, 8))
        with pytest.raises(HarnessError, match="not in any shard manifest"):
            wide.gather(cache)

    def test_replay_cache_refuses_miss_and_put(self, tmp_path):
        replay = ReplayCache(tmp_path)
        with pytest.raises(HarnessError, match="no cache entry"):
            replay.get(_cfg())
        result = Sweep(jobs=1).run([_cfg()])[0]
        with pytest.raises(HarnessError, match="never simulates"):
            replay.put(result)


class TestManifestWriting:
    def test_write_requires_committed_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(HarnessError, match="missing from"):
            write_shard_manifest(cache, 0, 2, [_cfg()])

    def test_entries_sorted_by_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        study = _study()
        _run_all_shards(study, cache, 1)
        payload = json.loads(manifest_path(cache, 0, 1).read_text())
        keys = [e["key"] for e in payload["entries"]]
        assert keys == sorted(keys)
        assert verify_manifest_entries(cache, {0: payload}) == len(keys)


# ---------------------------------------------------------------------------
# Registered experiments: sharded == serial, byte for byte
# ---------------------------------------------------------------------------


class TestShardedExperiments:
    @pytest.mark.parametrize(
        "driver,kwargs",
        [
            (experiments.table2, dict(runs=2, outer_reps=5)),
            (
                experiments.figure1,
                dict(
                    runs=2, outer_reps=5,
                    dardel_threads=[2, 4], vera_threads=[2, 4],
                ),
            ),
        ],
        ids=["table2", "figure1"],
    )
    def test_gathered_artifact_byte_identical(self, tmp_path, driver, kwargs):
        serial = driver(**kwargs).render()
        cache = ResultCache(tmp_path)
        for i in range(2):
            with pytest.raises(ShardRunComplete):
                driver(**kwargs, cache=cache, backend=ShardedBackend(i, 2))
        manifests = load_manifests(cache, expected_shards=2)
        verify_manifest_entries(cache, manifests)
        gathered = driver(**kwargs, cache=ReplayCache(tmp_path)).render()
        assert gathered.encode() == serial.encode()
        # the replay never simulated: every config came from the shards
        replay_misses = ReplayCache(tmp_path).misses
        assert replay_misses == 0


# ---------------------------------------------------------------------------
# Cache stats / gc
# ---------------------------------------------------------------------------


class TestCacheStatsGc:
    def test_stats_counts_entries_and_versions(self, tmp_path):
        cache = ResultCache(tmp_path)
        Sweep(jobs=1, cache=cache).run([_cfg(num_threads=t) for t in (2, 4)])
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert sum(stats["by_version"].values()) == 2
        assert "unknown" not in stats["by_version"]

    def test_stats_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = Sweep(jobs=1, cache=cache)
        sweep.run([_cfg()])
        sweep.run([_cfg()])
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_stats_ignores_manifests(self, tmp_path):
        cache = ResultCache(tmp_path)
        _run_all_shards(_study(), cache, 2)
        assert cache.stats()["entries"] == len(_study())
        assert len(cache) == len(_study())

    def test_gc_keeps_current_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        Sweep(jobs=1, cache=cache).run([_cfg()])
        counts = cache.gc()
        assert counts == {
            "kept": 1, "removed_stale": 0,
            "removed_corrupt": 0, "removed_tmp": 0,
        }
        assert len(cache) == 1

    def test_gc_prunes_stale_version_entries(self, tmp_path):
        """An entry filed under a key the current version can't recompute
        is dead weight — exactly what a code-version bump leaves behind."""
        cache = ResultCache(tmp_path)
        path = Sweep(jobs=1, cache=cache).run([_cfg()])
        entry = next(iter(cache._entry_files()))
        stale = entry.with_name(("0" * 64) + ".json")
        stale.write_text(entry.read_text())
        counts = cache.gc()
        assert counts["kept"] == 1
        assert counts["removed_stale"] == 1
        assert not stale.exists() and entry.exists()

    def test_gc_prunes_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        bad = cache.cache_dir / (("ab" * 32) + ".json")
        bad.write_text("{not json")
        counts = cache.gc()
        assert counts["removed_corrupt"] == 1
        assert not bad.exists()

    def test_entry_carries_cache_meta(self, tmp_path):
        from repro import __version__

        cache = ResultCache(tmp_path)
        Sweep(jobs=1, cache=cache).run([_cfg()])
        entry = next(iter(cache._entry_files()))
        meta = json.loads(entry.read_text())["cache_meta"]
        assert meta["code_version"] == __version__

    def test_cache_meta_invisible_to_results(self, tmp_path):
        """Entries with provenance replay identically to entries without."""
        cache = ResultCache(tmp_path)
        (fresh,) = Sweep(jobs=1, cache=cache).run([_cfg()])
        (replayed,) = Sweep(jobs=1, cache=cache).run([_cfg()])
        assert replayed.to_dict() == fresh.to_dict()


# ---------------------------------------------------------------------------
# Metrics merge (gather's telemetry accumulation)
# ---------------------------------------------------------------------------


class TestMetricsMerge:
    def test_counters_add_gauges_last_win(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(7)
        a.merge(b)
        assert a.counter("n").value == 5
        assert a.gauge("g").value == 7

    def test_histograms_combine(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        h = a.histogram("h")
        assert (h.count, h.total, h.minimum, h.maximum) == (3, 9.0, 1.0, 5.0)
