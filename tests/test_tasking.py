"""Tests for the explicit-tasking subsystem.

Covers the runtime pieces (cost model, deques, workload generators, the
work-stealing scheduler), the taskbench benchmark, the harness integration
(determinism across serial / process-pool execution, cache round-trips with
tasking parameters in the key), and the figure8 experiment driver.
"""

import json

import numpy as np
import pytest

from repro.errors import (
    BenchmarkError,
    ConfigurationError,
    HarnessError,
    SimulationError,
)
from repro.freq.dvfs import FrequencyModel
from repro.freq.governor import make_governor
from repro.harness import (
    ExperimentConfig,
    ResultCache,
    Runner,
    Sweep,
    cache_key,
    experiments,
)
from repro.harness.report import render_tasking_summary, split_tasking_labels
import repro.harness.runner as runner_mod
from repro.bench.taskbench import Taskbench, TaskbenchParams
from repro.omp.tasking import (
    Task,
    TaskCostModel,
    TaskCostParams,
    TaskDeque,
    WorkStealingScheduler,
    fib_tasks,
    taskloop_tasks,
    uniform_tasks,
)
from repro.omp.team import Team
from repro.osnoise.model import NoiseModel
from repro.platform import toy, vera
from repro.rng import RngFactory


# ---------------------------------------------------------------------------
# Cost parameters
# ---------------------------------------------------------------------------

class TestTaskCostParams:
    def test_defaults_validate(self):
        TaskCostParams()

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskCostParams(deque_push=-1e-9)

    def test_failed_steal_cheaper_than_success(self):
        with pytest.raises(ConfigurationError):
            TaskCostParams(steal_attempt=1e-6, steal_success=1e-7)

    def test_backoff_grows_and_caps(self):
        model = TaskCostModel(TaskCostParams(
            steal_backoff_base=1e-6, steal_backoff_factor=2.0,
            steal_backoff_max=5e-6,
        ))
        delays = [model.backoff(k) for k in range(1, 6)]
        assert delays[0] == pytest.approx(1e-6)
        assert delays[1] == pytest.approx(2e-6)
        assert delays == sorted(delays)
        assert max(delays) == pytest.approx(5e-6)
        assert model.backoff(0) == 0.0

    def test_cross_numa_team_steals_slower(self):
        plat = vera()
        model = TaskCostModel(TaskCostParams(), None)
        one_numa = Team(plat.machine, tuple(range(8)), bound=True)
        two_socket = Team(plat.machine, tuple(range(4)) + tuple(range(16, 20)),
                          bound=True)
        assert model.steal_cost(two_socket) > model.steal_cost(one_numa)
        assert model.failed_steal_cost(two_socket) > model.failed_steal_cost(one_numa)


# ---------------------------------------------------------------------------
# Deques
# ---------------------------------------------------------------------------

class TestTaskDeque:
    def test_owner_lifo_thief_fifo(self):
        d = TaskDeque(owner=0)
        for tag in "abc":
            d.push(Task(work=0.0, tag=tag))
        assert d.pop().tag == "c"        # owner: freshest
        assert d.steal().tag == "a"      # thief: oldest
        assert d.pop().tag == "b"
        assert len(d) == 0 and not d

    def test_empty_operations_raise(self):
        d = TaskDeque(owner=1)
        with pytest.raises(SimulationError):
            d.pop()
        with pytest.raises(SimulationError):
            d.steal()
        assert d.peek_steal() is None

    def test_counters(self):
        d = TaskDeque(owner=0)
        d.push(Task(work=0.0))
        d.push(Task(work=0.0))
        d.pop()
        d.steal()
        assert (d.pushes, d.pops, d.steals_taken) == (2, 1, 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class TestTaskloopChunking:
    def test_grainsize_chunk_bounds(self):
        tasks = taskloop_tasks(100, 1e-6, grainsize=8)
        sizes = [t.work / 1e-6 for t in tasks]
        assert sum(sizes) == pytest.approx(100)
        assert all(8 <= s < 16 for s in sizes)  # OpenMP spec guarantee

    def test_num_tasks_near_equal(self):
        tasks = taskloop_tasks(10, 1e-6, num_tasks=4)
        sizes = sorted(round(t.work / 1e-6) for t in tasks)
        assert sizes == [2, 2, 3, 3]

    def test_num_tasks_clamped_to_iterations(self):
        assert len(taskloop_tasks(3, 1e-6, num_tasks=10)) == 3

    def test_exactly_one_sizing_clause(self):
        with pytest.raises(ConfigurationError):
            taskloop_tasks(10, 1e-6)
        with pytest.raises(ConfigurationError):
            taskloop_tasks(10, 1e-6, grainsize=2, num_tasks=2)

    def test_imbalance_ramps_but_preserves_total(self):
        flat = taskloop_tasks(64, 1e-6, num_tasks=8)
        ramped = taskloop_tasks(64, 1e-6, num_tasks=8, imbalance=0.8)
        assert sum(t.work for t in ramped) == pytest.approx(
            sum(t.work for t in flat)
        )
        works = [t.work for t in ramped]
        assert works == sorted(works)          # linear ramp: ascending chunks
        assert works[-1] > 2.0 * works[0]      # and genuinely imbalanced

    def test_determinism(self):
        a = taskloop_tasks(50, 2e-6, grainsize=4, imbalance=0.3)
        b = taskloop_tasks(50, 2e-6, grainsize=4, imbalance=0.3)
        assert a == b


class TestTreeWorkloads:
    def test_fib_counts_follow_fibonacci(self):
        # tasks(n) = 1 + tasks(n-1) + tasks(n-2), tasks(<2) = 1
        counts = {n: fib_tasks(n, 1e-6, 1e-7).count() for n in range(8)}
        for n in range(2, 8):
            assert counts[n] == 1 + counts[n - 1] + counts[n - 2]

    def test_fib_unbalanced(self):
        root = fib_tasks(8, 1e-6, 1e-7)
        first, second = root.children
        assert first.count() > second.count()

    def test_fib_cutoff(self):
        assert fib_tasks(5, 1e-6, 1e-7, cutoff=6).count() == 1

    def test_uniform(self):
        tasks = uniform_tasks(5, 3e-6)
        assert len(tasks) == 5
        assert all(t.work == 3e-6 and not t.children for t in tasks)

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            Task(work=-1.0)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def _scheduler(team, seed=3, platform=None, params=None):
    plat = platform if platform is not None else toy()
    f = RngFactory(seed)
    fm = FrequencyModel(plat.machine, plat.freq_spec)
    plan = fm.plan(0.0, 5.0, list(team.cpus),
                   make_governor(plat.default_governor), f.stream("freq"))
    noise = NoiseModel(plat.machine, plat.noise_profile.sources).realize(
        0.0, 5.0, list(team.cpus), f.stream("noise")
    )
    streams = [f.stream("thief", i) for i in range(team.n_threads)]
    model = TaskCostModel(params if params is not None else TaskCostParams())
    return WorkStealingScheduler(team, model, plan, noise, streams)


class TestWorkStealingScheduler:
    def test_every_task_executes_exactly_once(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(128, 2e-6, grainsize=2, imbalance=0.5)
        stats = _scheduler(team).run(tasks)
        assert int(stats.tasks_executed.sum()) == stats.total_tasks == len(tasks)

    def test_recursive_tree_executes_fully(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        root = fib_tasks(10, 4e-6, 4e-7)
        stats = _scheduler(team).run(root)
        assert int(stats.tasks_executed.sum()) == root.count()
        assert stats.total_steals > 0  # the tree cannot stay on one deque

    def test_deterministic_replay(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(64, 2e-6, grainsize=2, imbalance=0.5)
        a = _scheduler(team, seed=11).run(tasks)
        b = _scheduler(team, seed=11).run(tasks)
        assert a.makespan == b.makespan
        assert np.array_equal(a.steals, b.steals)
        assert np.array_equal(a.failed_steals, b.failed_steals)
        assert np.array_equal(a.tasks_executed, b.tasks_executed)

    def test_figure8_smoke_event_count_is_deterministic(self):
        """The figure8 shape on a real Vera run context (frequency plan,
        OS noise, 16 threads, grainsize 8): the engine events a run of
        work-stealing taskloop repetitions executes are part of the
        determinism contract — a repeat executes exactly as many."""

        def smoke_events(reps=5, threads=16, grainsize=8):
            params = TaskbenchParams(outer_reps=reps, grainsize=grainsize)
            runner = Runner(ExperimentConfig(
                platform="vera", benchmark="taskbench", num_threads=threads,
                places="cores", proc_bind="close", runs=1, seed=42,
                benchmark_params={"outer_reps": reps, "grainsize": grainsize},
            ))
            horizon = Taskbench(params).horizon_estimate(threads) * 1.5
            ctx = runner.runtime.start_run(0, runner.rng_factory, horizon)
            workload = params.build_workload(threads)
            label = params.label(threads)
            events = 0
            for rep in range(reps):
                streams = [
                    ctx.stream("taskbench", label, "rep", rep, "thread", i)
                    for i in range(ctx.team.n_threads)
                ]
                scheduler = WorkStealingScheduler(
                    ctx.team, ctx.runtime.task_cost, ctx.freq_plan,
                    ctx.noise, streams,
                )
                fork = ctx.sync_cost.fork_cost(ctx.team)
                stats = scheduler.run(workload, t_start=ctx.t + fork)
                events += stats.events_executed
                ctx.advance(fork + stats.makespan + params.rep_gap)
            return events

        first = smoke_events()
        assert first > 0
        assert smoke_events() == first

    def test_seed_changes_schedule(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(64, 2e-6, grainsize=2, imbalance=0.5)
        a = _scheduler(team, seed=11).run(tasks)
        b = _scheduler(team, seed=12).run(tasks)
        assert a.makespan != b.makespan

    def test_single_thread_never_steals(self):
        team = Team(toy().machine, (0,), bound=True)
        tasks = taskloop_tasks(32, 2e-6, grainsize=4)
        stats = _scheduler(team).run(tasks)
        assert stats.total_steals == 0
        assert stats.total_failed_steals == 0
        assert int(stats.tasks_executed[0]) == len(tasks)

    def test_parallelism_speeds_up_quiet_platform(self):
        plat = toy().quiet()
        tasks = taskloop_tasks(256, 5e-6, grainsize=4)
        t1 = Team(plat.machine, (0,), bound=True)
        t4 = Team(plat.machine, (0, 2, 4, 6), bound=True)
        serial = _scheduler(t1, platform=plat).run(tasks)
        parallel = _scheduler(t4, platform=plat).run(tasks)
        assert parallel.makespan < serial.makespan

    def test_imbalanced_grainsize_forces_steals(self):
        """The acceptance-criteria scenario: imbalanced taskloop -> steals."""
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        tasks = taskloop_tasks(256, 2e-6, grainsize=4, imbalance=0.6)
        stats = _scheduler(team).run(tasks)
        assert stats.total_steals > 0
        assert 0.0 <= stats.failed_steal_rate <= 1.0
        assert 0.0 <= stats.idle_fraction < 1.0

    def test_stats_accounting(self):
        team = Team(toy().machine, (0, 2), bound=True)
        tasks = uniform_tasks(16, 3e-6)
        stats = _scheduler(team).run(tasks, t_start=1.5)
        assert stats.t_start == 1.5
        assert stats.t_end > 1.5
        assert stats.makespan == pytest.approx(stats.t_end - 1.5)
        assert stats.events_executed > 0
        assert np.all(stats.busy_time >= 0) and np.all(stats.idle_time >= 0)

    def test_stream_count_must_match_team(self):
        team = Team(toy().machine, (0, 2), bound=True)
        sched = _scheduler(team)
        with pytest.raises(ConfigurationError):
            WorkStealingScheduler(
                team, sched.cost_model, sched.freq_plan, sched.noise,
                sched.streams[:1],
            )

    def test_empty_graph_rejected(self):
        team = Team(toy().machine, (0,), bound=True)
        with pytest.raises(ConfigurationError):
            _scheduler(team).run(())

    def test_runaway_guard_trips(self):
        team = Team(toy().machine, (0, 2, 4, 6), bound=True)
        sched = _scheduler(team)
        sched.max_events = 10  # far too small for 64 tasks
        with pytest.raises(SimulationError, match="event cap"):
            sched.run(taskloop_tasks(64, 2e-6, grainsize=1))


# ---------------------------------------------------------------------------
# Taskbench
# ---------------------------------------------------------------------------

class TestTaskbenchParams:
    def test_pattern_validated(self):
        with pytest.raises(BenchmarkError):
            TaskbenchParams(pattern="quicksort")

    def test_grainsize_num_tasks_exclusive(self):
        with pytest.raises(BenchmarkError):
            TaskbenchParams(grainsize=4, num_tasks=8)

    def test_labels(self):
        assert TaskbenchParams(grainsize=8).label(4) == "taskloop_g8"
        assert TaskbenchParams(num_tasks=32).label(4) == "taskloop_nt32"
        assert TaskbenchParams().label(4) == "taskloop_nt8"  # 2 x team size
        assert TaskbenchParams(pattern="fib", fib_n=12).label(4) == "fib_12"
        assert TaskbenchParams(pattern="uniform", n_tasks=64).label(4) == "uniform_64"


QUICK_TASK = {
    "outer_reps": 4, "pattern": "taskloop", "grainsize": 4,
    "total_iters": 128, "imbalance": 0.6,
}


def _task_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        platform="toy", benchmark="taskbench", num_threads=4,
        runs=3, seed=17, benchmark_params=QUICK_TASK,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTaskbenchThroughHarness:
    def test_series_layout(self):
        result = Runner(_task_cfg()).run()
        assert set(result.labels()) == {
            "taskloop_g4", "taskloop_g4.steals",
            "taskloop_g4.failed_steals", "taskloop_g4.idle_frac",
        }
        times = result.runs_matrix("taskloop_g4")
        assert times.shape == (3, 4)
        assert np.all(times > 0)
        assert np.all(result.runs_matrix("taskloop_g4.steals") >= 0)

    def test_nonzero_steals_under_imbalance(self):
        result = Runner(_task_cfg()).run()
        assert result.runs_matrix("taskloop_g4.steals").sum() > 0

    def test_fib_pattern(self):
        cfg = _task_cfg(benchmark_params={
            "outer_reps": 2, "pattern": "fib", "fib_n": 8,
            "fib_leaf_work": 4e-6, "fib_node_work": 4e-7,
        })
        result = Runner(cfg).run()
        assert "fib_8" in result.labels()

    def test_unbound_team_runs(self):
        cfg = _task_cfg(places=None, proc_bind="false", runs=2)
        result = Runner(cfg).run()
        assert result.runs_matrix("taskloop_g4").shape == (2, 4)

    def test_parallel_bit_identical_to_serial(self):
        cfg = _task_cfg(runs=4)
        serial = Runner(cfg).run().to_dict()
        parallel = Sweep(jobs=4).run([cfg])[0].to_dict()
        assert json.dumps(parallel, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_json_round_trip(self):
        from repro.harness.results import ExperimentResult

        result = Runner(_task_cfg(runs=2)).run()
        again = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert again.to_dict() == result.to_dict()


class TestTaskingCache:
    def test_tasking_params_participate_in_key(self):
        base = _task_cfg()
        assert cache_key(base) != cache_key(
            base.with_overrides(benchmark_params={**QUICK_TASK, "grainsize": 8})
        )
        assert cache_key(base) != cache_key(
            base.with_overrides(benchmark_params={**QUICK_TASK, "imbalance": 0.2})
        )
        assert cache_key(base) != cache_key(base.with_overrides(noise="quiet"))

    def test_cache_round_trip_serves_without_simulation(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cfg = _task_cfg()
        first = Sweep(cache=cache).run([cfg])[0]
        assert cache.stores == 1

        def boom(self, run_index):
            raise AssertionError("simulated despite warm cache")

        monkeypatch.setattr(runner_mod.Runner, "run_one", boom)
        second = Sweep(cache=cache).run([cfg])[0]
        assert second.to_dict() == first.to_dict()
        assert cache.hits == 1


class TestNoiseProfileKnob:
    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(noise="loud")

    def test_quiet_is_deterministically_leq_default(self):
        noisy = Runner(_task_cfg()).run().runs_matrix("taskloop_g4")
        quiet = Runner(_task_cfg(noise="quiet")).run().runs_matrix("taskloop_g4")
        assert quiet.mean() <= noisy.mean()

    def test_noise_survives_round_trip(self):
        cfg = _task_cfg(noise="quiet")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

class TestTaskingReport:
    def test_split_labels(self):
        labels = (
            "taskloop_g4", "taskloop_g4.steals", "taskloop_g4.failed_steals",
            "taskloop_g4.idle_frac", "reduction",
        )
        times, metrics = split_tasking_labels(labels)
        assert times == ["taskloop_g4", "reduction"]
        assert set(metrics) == set(labels) - {"taskloop_g4", "reduction"}

    def test_split_requires_all_companions(self):
        times, metrics = split_tasking_labels(("x", "x.steals"))
        assert times == ["x", "x.steals"] and metrics == []

    def test_render_summary(self):
        steals = np.array([[4.0, 6.0], [5.0, 5.0]])
        failed = np.array([[1.0, 3.0], [2.0, 2.0]])
        idle = np.array([[0.1, 0.2], [0.15, 0.15]])
        text = render_tasking_summary("taskloop_g4", steals, failed, idle)
        assert "taskloop_g4" in text
        assert "fail rate" in text
        assert "all" in text

    def test_render_summary_shape_mismatch(self):
        with pytest.raises(ValueError):
            render_tasking_summary(
                "x", np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))
            )


# ---------------------------------------------------------------------------
# Experiment registry + figure8
# ---------------------------------------------------------------------------

class TestExperimentRegistry:
    def test_all_drivers_registered(self):
        names = experiments.available_experiments()
        assert "table2" in names and "figure8" in names
        assert set(names) == set(experiments.ALL_EXPERIMENTS)

    def test_spec_carries_description_and_rep_params(self):
        spec = experiments.get_experiment("figure8")
        assert spec.driver is experiments.figure8
        assert spec.rep_params == ("outer_reps",)
        assert "work-stealing" in spec.description

    def test_unknown_experiment_raises(self):
        with pytest.raises(HarnessError):
            experiments.get_experiment("figure99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(HarnessError):
            experiments.experiment("dup", name="figure8")(lambda: None)


FIGURE8_TINY = dict(
    runs=2, outer_reps=3, seed=5, threads=(2, 4), grainsizes=(2,),
    noise_profiles=("default", "quiet"), total_iters=64,
)


class TestFigure8:
    def test_serial_jobs_and_replay_bit_identical(self, tmp_path):
        """Acceptance criteria: serial == --jobs N == cached replay."""
        serial = experiments.figure8(jobs=1, **FIGURE8_TINY)
        parallel = experiments.figure8(jobs=2, **FIGURE8_TINY)
        assert parallel.data == serial.data

        cache = ResultCache(tmp_path)
        warmed = experiments.figure8(jobs=2, cache=cache, **FIGURE8_TINY)
        assert warmed.data == serial.data
        replayed = experiments.figure8(jobs=1, cache=cache, **FIGURE8_TINY)
        assert cache.hits == cache.stores > 0
        assert replayed.data == serial.data

    def test_reports_nonzero_steals_under_imbalance(self):
        art = experiments.figure8(jobs=1, **FIGURE8_TINY)
        assert art.data["default/n4/g2"]["mean_steals"] > 0
        assert 0.0 <= art.data["default/n4/g2"]["failed_steal_rate"] <= 1.0
        assert "scheduler internals" in art.render()

    def test_noise_ablation_keys_present(self):
        art = experiments.figure8(jobs=1, **FIGURE8_TINY)
        for noise in ("default", "quiet"):
            for n in (2, 4):
                assert f"{noise}/n{n}/g2" in art.data
