"""Tests for runtime-vendor profiles (libgomp vs libomp) and wait policies."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, HarnessError
from repro.harness import ExperimentConfig, ResultCache, Runner, cache_key
from repro.harness import experiments
from repro.omp import OMPEnvironment, OpenMPRuntime
from repro.omp.constructs import SyncCostModel, SyncCostParams
from repro.omp.vendor import (
    BarrierAlgorithm,
    RuntimeProfile,
    WaitPolicy,
    available_runtimes,
    default_profile,
    get_runtime_profile,
)
from repro.platform import dardel, toy, vera
from repro.sched.model import wakeup_path_cost
from repro.sched.params import SchedParams
from repro.stats import summarize
from repro.types import ProcBind


def team_on(machine, cpus):
    from repro.omp.team import Team

    return Team(machine, tuple(cpus), bound=True)


class TestRegistry:
    def test_available(self):
        assert available_runtimes() == ("gnu", "llvm")

    def test_lookup_case_insensitive(self):
        assert get_runtime_profile("GNU").name == "gnu"
        assert get_runtime_profile("llvm").vendor == "LLVM libomp"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_runtime_profile("icc")

    def test_default_is_gnu(self):
        assert default_profile().name == "gnu"
        assert default_profile().barrier_algorithm is BarrierAlgorithm.GATHER_RELEASE
        assert default_profile().wait_policy is WaitPolicy.ACTIVE

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RuntimeProfile("x", "X", barrier_branching=1)
        with pytest.raises(ConfigurationError):
            RuntimeProfile("x", "X", spin_before_sleep=-1.0)
        with pytest.raises(ConfigurationError):
            RuntimeProfile("x", "X", fork_scale=0.0)


class TestBarrierSpan:
    def test_gather_release_matches_seed_formula(self):
        p = default_profile()
        for n in (2, 4, 16, 64, 254):
            assert p.barrier_span(n) == 2 * math.ceil(math.log2(n))

    def test_single_thread_free(self):
        for name in available_runtimes():
            assert get_runtime_profile(name).barrier_span(1) == 0.0

    def test_hyper_needs_fewer_rounds_at_scale(self):
        gnu = get_runtime_profile("gnu")
        llvm = get_runtime_profile("llvm")
        for n in (64, 128, 254):
            assert llvm.barrier_span(n) < gnu.barrier_span(n)

    def test_hyper_branching_configurable(self):
        from dataclasses import replace

        llvm = get_runtime_profile("llvm")
        # a binary tree needs more rounds than the default 4-way hypercube,
        # so the default branching factor is the sweet spot the real
        # runtime ships with
        binary = replace(llvm, barrier_branching=2)
        assert binary.barrier_span(256) > llvm.barrier_span(256)
        assert replace(llvm, barrier_branching=8).barrier_span(256) != \
            llvm.barrier_span(256)

    def test_hyper_round_count_exact_at_tree_powers(self):
        """Regression: float log-division overcounted a round at exact
        powers of non-power-of-2 branching factors (b=5, n=125)."""
        from dataclasses import replace

        llvm = get_runtime_profile("llvm")
        b5 = replace(llvm, barrier_branching=5)
        # n=125 = 5^3 -> exactly 3 rounds per phase
        assert b5.barrier_span(125) == pytest.approx(2 * 3 * (1 + 0.1 * 4))
        assert b5.barrier_span(126) == pytest.approx(2 * 4 * (1 + 0.1 * 4))

    def test_centralized_linear_in_team_size(self):
        p = RuntimeProfile("c", "C", barrier_algorithm=BarrierAlgorithm.CENTRALIZED)
        assert p.barrier_span(128) > 4 * p.barrier_span(16)
        assert p.barrier_span(64) > get_runtime_profile("gnu").barrier_span(64)


class TestWaitPolicy:
    def test_active_never_sleeps(self):
        assert default_profile().sleep_share() == 0.0
        assert default_profile().sleep_share(expected_gap=1e9) == 0.0

    def test_passive_blocktime_zero_always_sleeps(self):
        p = RuntimeProfile("x", "X", wait_policy=WaitPolicy.PASSIVE,
                           spin_before_sleep=0.0)
        assert p.sleep_share() == 1.0

    def test_blocktime_grades_sleepiness(self):
        p = RuntimeProfile("x", "X", wait_policy=WaitPolicy.PASSIVE,
                           spin_before_sleep=0.2)
        assert p.sleep_share(expected_gap=0.1) == 0.0  # still spinning
        assert p.sleep_share(expected_gap=0.8) == pytest.approx(0.75)
        assert p.sleep_share() == 1.0  # infinite gap

    def test_passive_infinite_blocktime_spins_forever(self):
        p = RuntimeProfile("x", "X", wait_policy=WaitPolicy.PASSIVE,
                           spin_before_sleep=math.inf)
        assert p.sleep_share() == 0.0

    def test_with_env_overrides(self):
        llvm = get_runtime_profile("llvm")
        env = OMPEnvironment(num_threads=4, wait_policy=WaitPolicy.PASSIVE)
        over = llvm.with_env(env)
        assert over.wait_policy is WaitPolicy.PASSIVE
        assert over.spin_before_sleep == 0.0  # explicit passive sleeps promptly
        env2 = OMPEnvironment(num_threads=4, wait_policy=WaitPolicy.PASSIVE,
                              blocktime=0.05)
        assert llvm.with_env(env2).spin_before_sleep == 0.05
        assert llvm.with_env(OMPEnvironment(num_threads=4)) is llvm


class TestEnvParsing:
    def test_wait_policy_parsed(self):
        e = OMPEnvironment.from_env({"OMP_NUM_THREADS": "4",
                                     "OMP_WAIT_POLICY": "PASSIVE"})
        assert e.wait_policy is WaitPolicy.PASSIVE
        assert OMPEnvironment.from_env({}).wait_policy is None

    def test_bad_wait_policy(self):
        with pytest.raises(ConfigurationError):
            OMPEnvironment.from_env({"OMP_WAIT_POLICY": "sometimes"})

    def test_blocktime_parsed_from_ms(self):
        e = OMPEnvironment.from_env({"KMP_BLOCKTIME": "200"})
        assert e.blocktime == pytest.approx(0.2)
        assert math.isinf(
            OMPEnvironment.from_env({"KMP_BLOCKTIME": "infinite"}).blocktime
        )

    def test_bad_blocktime(self):
        with pytest.raises(ConfigurationError):
            OMPEnvironment.from_env({"KMP_BLOCKTIME": "soon"})

    def test_describe_includes_wait_settings(self):
        e = OMPEnvironment(num_threads=4, wait_policy=WaitPolicy.PASSIVE,
                           blocktime=0.2)
        text = e.describe()
        assert "OMP_WAIT_POLICY=passive" in text
        assert "KMP_BLOCKTIME=200" in text
        assert "OMP_WAIT_POLICY" not in OMPEnvironment(num_threads=4).describe()

    def test_negative_blocktime_rejected(self):
        with pytest.raises(ConfigurationError):
            OMPEnvironment(num_threads=4, blocktime=-0.1)


class TestSyncCostModelProfiles:
    def test_default_profile_is_backward_compatible(self):
        """SyncCostModel without a profile == explicit gnu profile."""
        machine = dardel().machine
        legacy = SyncCostModel(SyncCostParams())
        gnu = SyncCostModel(SyncCostParams(), get_runtime_profile("gnu"))
        for cpus in ((0, 1), tuple(range(64)), tuple(range(128))):
            team = team_on(machine, cpus)
            assert legacy.barrier_cost(team) == gnu.barrier_cost(team)
            assert legacy.fork_cost(team) == gnu.fork_cost(team)
            assert legacy.jitter_sigma(team) == gnu.jitter_sigma(team)
            assert legacy.lock_handoff(team) == gnu.lock_handoff(team)

    def test_vendors_differ_at_64_threads(self):
        """The acceptance criterion: measurably different barrier cost and
        jitter (CV driver) for gnu vs llvm at >= 64 threads."""
        machine = dardel().machine
        params = dardel().sync_params
        gnu = SyncCostModel(params, get_runtime_profile("gnu"))
        llvm = SyncCostModel(params, get_runtime_profile("llvm"))
        for n in (64, 128):
            team = team_on(machine, tuple(range(n)))
            g, l = gnu.barrier_cost(team), llvm.barrier_cost(team)
            assert l < 0.9 * g  # hyper barrier measurably cheaper
            assert llvm.jitter_sigma(team) < gnu.jitter_sigma(team)

    def test_passive_pays_wakeup_path(self):
        machine = vera().machine
        params = vera().sync_params
        sched = vera().sched_params
        active = SyncCostModel(params, get_runtime_profile("gnu"), sched)
        passive_profile = RuntimeProfile(
            "gnu-passive", "GCC libgomp", wait_policy=WaitPolicy.PASSIVE,
            spin_before_sleep=0.0,
        )
        passive = SyncCostModel(params, passive_profile, sched)
        team = team_on(machine, tuple(range(16)))
        assert passive.sleep_share == 1.0
        # barrier release wakes log2(n) tree levels of sleepers
        assert passive.barrier_cost(team) == pytest.approx(
            active.barrier_cost(team) + wakeup_path_cost(sched, 4)
        )
        # fork wakes every sleeping pool worker
        assert passive.fork_cost(team) == pytest.approx(
            active.fork_cost(team) + wakeup_path_cost(sched, 15)
        )

    def test_passive_waiters_do_not_burn_smt(self):
        """Sleeping waiters neither inflate line latency nor jitter on SMT."""
        machine = toy().machine
        params = SyncCostParams()
        mt_team = team_on(machine, (0, 8, 1, 9))  # SMT siblings share cores
        active = SyncCostModel(params, default_profile())
        passive = SyncCostModel(
            params,
            RuntimeProfile("p", "P", wait_policy=WaitPolicy.PASSIVE,
                           spin_before_sleep=0.0),
        )
        assert passive.effective_line_latency(mt_team) == pytest.approx(
            active.effective_line_latency(mt_team) / params.smt_sync_factor
        )
        assert passive.jitter_sigma(mt_team) == pytest.approx(
            active.jitter_sigma(mt_team) - params.smt_jitter_boost
        )

    def test_wakeup_path_cost(self):
        p = SchedParams()
        assert wakeup_path_cost(p, 0) == 0.0
        assert wakeup_path_cost(p, 3) == pytest.approx(3 * p.wake_ipi_cost)

    def test_blocktime_grades_the_cost_model(self):
        """KMP_BLOCKTIME must actually change costs: the sleep decision is
        evaluated against the benchmarks' ~1 ms re-entry cadence."""
        from repro.omp.constructs import TYPICAL_REGION_GAP

        machine = vera().machine
        params = vera().sync_params

        def model(spin):
            return SyncCostModel(params, RuntimeProfile(
                "p", "P", wait_policy=WaitPolicy.PASSIVE,
                spin_before_sleep=spin,
            ))

        team = team_on(machine, tuple(range(16)))
        sleepy = model(0.0)
        half = model(TYPICAL_REGION_GAP / 2)
        spinny = model(2 * TYPICAL_REGION_GAP)  # blocktime above the cadence
        assert sleepy.sleep_share == 1.0
        assert half.sleep_share == pytest.approx(0.5)
        assert spinny.sleep_share == 0.0
        assert (
            spinny.fork_cost(team)
            < half.fork_cost(team)
            < sleepy.fork_cost(team)
        )


class TestRuntimeThreading:
    def test_runtime_resolves_platform_profile(self):
        rt = OpenMPRuntime(
            vera().with_runtime("llvm"),
            OMPEnvironment(num_threads=4, places="cores",
                           proc_bind=ProcBind.CLOSE),
        )
        assert rt.profile.name == "llvm"
        assert rt.sync_cost.profile.name == "llvm"

    def test_explicit_profile_wins(self):
        rt = OpenMPRuntime(
            vera(),
            OMPEnvironment(num_threads=4, places="cores",
                           proc_bind=ProcBind.CLOSE),
            profile=get_runtime_profile("llvm"),
        )
        assert rt.profile.name == "llvm"

    def test_env_wait_policy_overrides_profile(self):
        rt = OpenMPRuntime(
            vera(),
            OMPEnvironment(num_threads=4, places="cores",
                           proc_bind=ProcBind.CLOSE,
                           wait_policy=WaitPolicy.PASSIVE),
        )
        assert rt.profile.passive
        assert rt.sync_cost.sleep_share == 1.0

    def test_platform_with_runtime_describe(self):
        assert "libomp" in vera().with_runtime("llvm").describe()


class TestConfigRuntimeField:
    def _cfg(self, **kw):
        base = dict(platform="toy", benchmark="syncbench", num_threads=4,
                    runs=2, seed=7, benchmark_params={"outer_reps": 4})
        base.update(kw)
        return ExperimentConfig(**base)

    def test_default_runtime_is_gnu(self):
        cfg = self._cfg()
        assert cfg.runtime == "gnu" and cfg.wait_policy is None
        assert cfg.to_dict()["runtime"] == "gnu"

    def test_bad_runtime_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cfg(runtime="icc")
        with pytest.raises(ConfigurationError):
            self._cfg(wait_policy="sometimes")

    def test_runtime_in_cache_key(self):
        assert cache_key(self._cfg()) != cache_key(self._cfg(runtime="llvm"))
        assert cache_key(self._cfg()) != cache_key(self._cfg(wait_policy="passive"))

    def test_round_trip(self):
        cfg = self._cfg(runtime="llvm", wait_policy="passive")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_case_normalized_into_cache_key(self):
        """'GNU' and 'gnu' are the same config — and the same cache key."""
        assert self._cfg(runtime="GNU") == self._cfg(runtime="gnu")
        assert cache_key(self._cfg(runtime="LLVM")) == cache_key(
            self._cfg(runtime="llvm")
        )
        assert self._cfg(wait_policy="PASSIVE").wait_policy == "passive"
        assert "rt=" not in self._cfg(runtime="GNU").display_label

    def test_display_label_shows_non_defaults(self):
        assert "rt=llvm" in self._cfg(runtime="llvm").display_label
        assert "wait=passive" in self._cfg(wait_policy="passive").display_label
        assert "rt=" not in self._cfg().display_label

    def test_runs_differ_between_vendors(self):
        gnu = Runner(self._cfg(benchmark_params={
            "outer_reps": 4, "constructs": ("barrier",)})).run()
        llvm = Runner(self._cfg(runtime="llvm", benchmark_params={
            "outer_reps": 4, "constructs": ("barrier",)})).run()
        assert not np.array_equal(
            gnu.runs_matrix("barrier"), llvm.runs_matrix("barrier")
        )

    def test_passive_slower_than_active(self):
        """Passive waiting pays the wakeup path on every fork/barrier.

        EPCC's adaptive inner-repetition count holds the *total* test time
        near its target, so the vendor effect shows in the per-construct
        overhead, not the raw repetition time.
        """
        active = Runner(self._cfg(benchmark_params={
            "outer_reps": 5, "constructs": ("parallel",)})).run()
        passive = Runner(self._cfg(wait_policy="passive", benchmark_params={
            "outer_reps": 5, "constructs": ("parallel",)})).run()
        assert (
            passive.runs_matrix("parallel.overhead").mean()
            > 2 * active.runs_matrix("parallel.overhead").mean()
        )


class TestVendorRunLevelDifferences:
    """Acceptance: gnu vs llvm differ in barrier cost/CV at >= 64 threads."""

    def _run(self, runtime):
        cfg = ExperimentConfig(
            platform="dardel", benchmark="syncbench", num_threads=64,
            places="cores", proc_bind="close", runs=2, seed=5,
            noise="quiet", runtime=runtime,
            benchmark_params={"outer_reps": 30, "constructs": ("barrier",)},
        )
        return Runner(cfg).run().runs_matrix("barrier.overhead")

    def test_barrier_cost_and_cv_differ_at_64_threads(self):
        gnu = self._run("gnu")
        llvm = self._run("llvm")
        # the hyper barrier is measurably cheaper...
        assert llvm.mean() < 0.95 * gnu.mean()
        # ...and its spread-out contention jitters less (same rng draws,
        # smaller sigma -> strictly smaller sample CV)
        assert summarize(llvm.ravel()).cv < summarize(gnu.ravel()).cv


class TestRuntimeCompareExperiment:
    TINY = dict(runs=2, outer_reps=3, seed=11,
                dardel_threads=(4,), vera_threads=(4,),
                runtimes=("gnu", "llvm"), wait_policies=("active", "passive"))

    def test_serial_parallel_and_cached_identical(self, tmp_path):
        """Acceptance: bit-identical serial / jobs=4 / warmed-cache replay."""
        serial = experiments.runtime_compare(jobs=1, **self.TINY)
        parallel = experiments.runtime_compare(jobs=4, **self.TINY)
        assert parallel.data == serial.data

        cache = ResultCache(tmp_path)
        first = experiments.runtime_compare(jobs=1, cache=cache, **self.TINY)
        assert cache.stores > 0
        replay = experiments.runtime_compare(jobs=1, cache=cache, **self.TINY)
        assert cache.hits == cache.stores
        assert replay.data == first.data == serial.data

    def test_report_sections(self):
        art = experiments.runtime_compare(**self.TINY)
        text = art.render()
        assert "OMP_WAIT_POLICY=active" in text
        assert "vendor gap" in text
        assert "dardel/llvm/passive/n4" in art.data
