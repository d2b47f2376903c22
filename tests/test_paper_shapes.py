"""The paper's artifact shapes at the reduced benchmark scale.

Each test regenerates one table, figure or ablation at 3 runs x 15
repetitions (seed 42) and asserts its qualitative shape: who wins, and
roughly by how much.  ``tests/test_integration_paper_claims.py`` checks
the same findings on hand-picked single configurations; these tests
check them on the rendered artifacts the drivers produce.
"""

import dataclasses

import numpy as np
import pytest

from repro.harness import ExperimentConfig, Runner, Study, experiments
from repro.omp.runtime import OpenMPRuntime
from repro.osnoise import noisy_profile, quiet_profile
from repro.units import ms

RUNS = 3
REPS = 15
SEED = 42

ONE_NUMA = "one-numa (cpus 0-15)"
TWO_NUMA = "two-numa (cpus 0-7,16-23)"


def test_table2():
    art = experiments.table2(runs=RUNS, outer_reps=REPS, seed=SEED)
    means = art.data["run_means"]

    # magnitudes; the run *minimum* is the clean-run value (the paper's
    # Table 2 also contains one +9.5% derated run, its run #9)
    assert np.median(means["dardel@4"]) == pytest.approx(ms(124.0), rel=0.02)
    assert np.median(means["vera@4"]) == pytest.approx(ms(136.5), rel=0.02)
    assert np.min(means["vera@30"]) == pytest.approx(ms(164.7), rel=0.03)
    assert ms(150) < np.min(means["dardel@254"]) < ms(162)

    # column ordering matches the paper (clean-run values)
    assert (
        np.min(means["dardel@4"])
        < np.min(means["vera@4"])
        < np.min(means["dardel@254"])
        < np.min(means["vera@30"])
    )

    # derated runs, when they occur, sit ~7-12% above the clean level —
    # the shape of the paper's run #9 (154.2 -> 168.8 ms)
    col = means["dardel@254"]
    clean = np.min(col)
    for value in col:
        assert value < 1.15 * clean


def test_figure1():
    art = experiments.figure1(
        runs=RUNS, outer_reps=REPS, seed=SEED,
        dardel_threads=(4, 32, 64, 128, 254),
        vera_threads=(2, 8, 16, 30),
    )
    vera = art.data["vera"]
    dardel = art.data["dardel"]

    # monotone growth with thread count
    assert vera["mean_us"] == sorted(vera["mean_us"])
    assert dardel["mean_us"] == sorted(dardel["mean_us"])

    # socket-crossing jump on Vera: 30 threads vs 16
    i16 = vera["threads"].index(16)
    i30 = vera["threads"].index(30)
    assert vera["mean_us"][i30] > 1.4 * vera["mean_us"][i16]

    # socket-crossing on Dardel: 128 cores vs 64
    i64 = dardel["threads"].index(64)
    i128 = dardel["threads"].index(128)
    assert dardel["mean_us"][i128] > 1.2 * dardel["mean_us"][i64]

    # SMT jump on Dardel: 254 (SMT siblings) vs 128 (one per core)
    i254 = dardel["threads"].index(254)
    assert dardel["mean_us"][i254] > 1.3 * dardel["mean_us"][i128]


def test_figure2():
    art = experiments.figure2(
        runs=RUNS - 1, num_times=REPS, seed=SEED,
        dardel_threads=(2, 16, 64, 128), vera_threads=(2, 8, 30),
    )
    for platform in ("dardel", "vera"):
        series = art.data[platform]["mean_ms"]
        # time falls from the first to the last thread count for every kernel
        for kernel, values in series.items():
            assert values[-1] < values[0], (platform, kernel, values)
        # 3-array kernels slower than 2-array kernels at the largest count
        assert series["triad"][-1] > series["copy"][-1]
        assert series["add"][-1] > series["mul"][-1]


def test_figure3():
    art = experiments.figure3(
        runs=RUNS, outer_reps=REPS, num_times=REPS, seed=SEED,
        dardel_threads=(16, 128, 254), vera_threads=(8, 30),
    )
    # normalized min/max bracket 1 everywhere
    for panel in art.data.values():
        for entry in panel.values():
            assert min(entry["norm_min"]) <= 1.0 + 1e-9
            assert max(entry["norm_max"]) >= 1.0 - 1e-9

    # variability grows toward saturation for syncbench on Dardel
    sync = art.data["dardel/syncbench"]
    assert max(sync[254]["norm_max"]) > max(sync[16]["norm_max"])


def test_figure4():
    art = experiments.figure4(
        runs=RUNS, outer_reps=REPS, num_times=REPS, seed=SEED
    )
    sync = art.data["syncbench@128"]
    assert sync["unpinned"]["pooled_max_over_min"] > 50.0
    assert (
        sync["unpinned"]["pooled_max_over_min"]
        > 10 * sync["pinned"]["pooled_max_over_min"]
    )

    stream = art.data["babelstream@128"]
    assert (
        stream["unpinned"]["pooled_max_over_min"]
        > 1.5 * stream["pinned"]["pooled_max_over_min"]
    )

    # schedbench@16 shows the weakest pinning effect in the paper too
    # (Figure 4a vs 4d differ only in a few runs); require same ballpark
    sched = art.data["schedbench@16"]
    assert (
        sched["unpinned"]["pooled_max_over_min"]
        >= 0.95 * sched["pinned"]["pooled_max_over_min"]
    )


def test_figure5():
    art = experiments.figure5(
        runs=RUNS, outer_reps=REPS, num_times=REPS, seed=SEED
    )
    sched = art.data["schedbench@128"]
    assert np.mean(sched["MT"]["run_cv"]) > 2 * np.mean(sched["ST"]["run_cv"])

    sync = art.data["syncbench@32"]
    for construct in ("for", "single", "ordered", "reduction"):
        st_cv = np.mean(sync["ST"][construct])
        mt_cv = np.mean(sync["MT"][construct])
        assert mt_cv > st_cv, construct


def test_figure6():
    art = experiments.figure6(runs=RUNS, outer_reps=REPS, seed=SEED)
    one, two = art.data[ONE_NUMA], art.data[TWO_NUMA]
    assert two["dip_occupancy"] > 5 * max(one["dip_occupancy"], 1e-6)
    assert two["pooled_cv"] > one["pooled_cv"]
    assert np.mean(two["run_means"]) > np.mean(one["run_means"])
    assert two["freq_min_ghz"] < one["freq_min_ghz"] + 1e-9


def test_figure7():
    art = experiments.figure7(runs=RUNS, outer_reps=REPS, seed=SEED)
    one, two = art.data[ONE_NUMA], art.data[TWO_NUMA]
    assert two["dip_occupancy"] > max(one["dip_occupancy"], 1e-6)
    assert np.mean(two["run_means"]) > 1.1 * np.mean(one["run_means"])


def test_figure8():
    art = experiments.figure8(
        runs=RUNS, outer_reps=REPS, seed=SEED,
        threads=(2, 8, 16, 30), grainsizes=(1, 8, 64),
        noise_profiles=("default", "quiet"),
    )
    d = art.data

    # stealing happens in every imbalanced configuration
    for noise in ("default", "quiet"):
        for n in (2, 8, 16, 30):
            for g in (1, 8, 64):
                assert d[f"{noise}/n{n}/g{g}"]["mean_steals"] > 0

    # fine grain is overhead-bound at scale: slower than moderate grain,
    # with a failed-steal-dominated scheduler
    assert d["default/n30/g1"]["mean_us"] > d["default/n30/g8"]["mean_us"]
    assert d["default/n30/g1"]["failed_steal_rate"] > 0.5

    # parallelism still wins at moderate grain
    assert d["default/n30/g8"]["mean_us"] < d["default/n2/g8"]["mean_us"]

    # quieting the OS never slows a configuration down
    for n in (2, 8, 16, 30):
        for g in (1, 8, 64):
            assert (
                d[f"quiet/n{n}/g{g}"]["mean_us"]
                <= d[f"default/n{n}/g{g}"]["mean_us"] * 1.001
            )


def test_runtime_compare():
    dardel_threads = (16, 64, 128)
    vera_threads = (8, 16, 30)
    art = experiments.runtime_compare(
        runs=RUNS, outer_reps=REPS, seed=SEED,
        dardel_threads=dardel_threads, vera_threads=vera_threads,
        runtimes=("gnu", "llvm"), wait_policies=("active", "passive"),
    )
    d = art.data

    # the vendors' barrier algorithms diverge with the team size: at >= 64
    # threads the hyper barrier is measurably cheaper and steadier
    for n in (64, 128):
        gnu = d[f"dardel/gnu/active/n{n}"]
        llvm = d[f"dardel/llvm/active/n{n}"]
        assert llvm["barrier_us"] < 0.95 * gnu["barrier_us"]
        assert llvm["barrier_cv"] < gnu["barrier_cv"]

    # the gap widens with the team (rounds saved grow with log n)
    gap = {
        n: d[f"dardel/gnu/active/n{n}"]["barrier_us"]
        - d[f"dardel/llvm/active/n{n}"]["barrier_us"]
        for n in dardel_threads
    }
    assert gap[128] > gap[16]

    # passive waiting pays the wakeup path on every fork/barrier: slower
    # than active spinning in every configuration, for both vendors
    for platform, threads in (("dardel", dardel_threads), ("vera", vera_threads)):
        for rt in ("gnu", "llvm"):
            for n in threads:
                active = d[f"{platform}/{rt}/active/n{n}"]
                passive = d[f"{platform}/{rt}/passive/n{n}"]
                assert passive["barrier_us"] > 2 * active["barrier_us"]
                assert passive["parallel_us"] > active["parallel_us"]


def test_study_sweep():
    threads = (2, 8, 16, 30)
    res = (
        Study(
            ExperimentConfig(
                platform="vera", benchmark="syncbench", places="cores",
                proc_bind="close", runs=RUNS, seed=SEED,
                benchmark_params={"outer_reps": REPS,
                                  "constructs": ("barrier",)},
            ),
            name="shape-study",
            description="barrier vs threads x vendor on Vera",
        )
        .grid(num_threads=list(threads), runtime=["gnu", "llvm"])
        .run()
    )

    # barrier *overhead* grows with the team size (pooled over both
    # vendors); the raw test time is held near the target time by EPCC's
    # inner-repetition doubling, so the overhead series is the one that
    # scales
    groups = res.group_summaries("num_threads", label="barrier.overhead")
    means = [groups[n].mean for n in threads]
    assert means == sorted(means)

    # the hyper barrier never loses to centralized gather-release at the
    # widest team
    widest = max(threads)
    gnu = res.get(num_threads=widest, runtime="gnu").runs_matrix(
        "barrier.overhead"
    )
    llvm = res.get(num_threads=widest, runtime="llvm").runs_matrix(
        "barrier.overhead"
    )
    assert llvm.mean() <= gnu.mean()

    # tidy export: one record per config x run x label
    labels = res.results[0].labels()
    assert len(res.to_records()) == len(res) * RUNS * len(labels)


# ---------------------------------------------------------------------------
# Ablations: switch one mechanism off and watch its effect disappear
# ---------------------------------------------------------------------------


def _barrier_mean_with_noise(profile) -> float:
    """Mean barrier rep time at 254 Dardel threads with the platform's
    noise swapped to *profile* (``None`` keeps the stock profile).

    The Runner is built for the stock platform and then its platform is
    replaced, so the config — and every RNG stream derived from it —
    stays identical across variants.
    """
    runner = Runner(ExperimentConfig(
        platform="dardel", benchmark="syncbench", num_threads=254,
        places="threads", proc_bind="close", runs=RUNS, seed=SEED,
        benchmark_params={"outer_reps": REPS, "constructs": ("barrier",)},
    ))
    if profile is not None:
        runner.platform = runner.platform.with_noise(profile())
        runner.runtime = OpenMPRuntime(runner.platform, runner.env)
    return float(runner.run().runs_matrix("barrier").mean())


def test_noise_ablation():
    quiet = _barrier_mean_with_noise(quiet_profile)
    baseline = _barrier_mean_with_noise(None)
    noisy = _barrier_mean_with_noise(noisy_profile)
    # noise adds time monotonically; with identical rng streams the
    # ordering is deterministic
    assert quiet < baseline < noisy
    # tick amplification at 254 threads is a visible fraction of the rep
    assert baseline > 1.05 * quiet


def _schedbench_mean(schedule, chunk) -> float:
    cfg = ExperimentConfig(
        platform="vera", benchmark="schedbench", num_threads=30,
        places="cores", proc_bind="close", schedule=schedule,
        schedule_chunk=chunk, runs=max(2, RUNS - 1), seed=SEED,
        benchmark_params={"outer_reps": max(5, REPS // 3)},
    )
    label = f"{schedule}_{chunk}" if chunk is not None else schedule
    return float(Runner(cfg).run().runs_matrix(label).mean())


def test_queue_contention_ablation():
    static = _schedbench_mean("static", None)
    dynamic_1 = _schedbench_mean("dynamic", 1)
    dynamic_8 = _schedbench_mean("dynamic", 8)
    dynamic_64 = _schedbench_mean("dynamic", 64)
    # chunk=1 pays the most queue overhead (dynamic_8 vs dynamic_64 differ
    # by less than the run jitter, so only the strong orderings are asserted)
    assert dynamic_1 > dynamic_8
    assert dynamic_1 > dynamic_64
    # large chunks approach static (within 1.5%)
    assert dynamic_64 < static * 1.015
    # chunk=1 overhead is clearly visible (paper: ~2% at 30 threads)
    assert dynamic_1 > static * 1.005


def test_sched_hazard_ablation(monkeypatch):
    import repro.platform as platform_module

    def spread(platform_name):
        matrix = Runner(ExperimentConfig(
            platform=platform_name, benchmark="syncbench", num_threads=128,
            places=None, proc_bind="false", runs=RUNS, seed=SEED,
            benchmark_params={"outer_reps": REPS,
                              "constructs": ("reduction",)},
        )).run().runs_matrix("reduction")
        return float(matrix.max() / matrix.min())

    plat = platform_module.dardel()
    no_hazard = dataclasses.replace(
        plat,
        sched_params=dataclasses.replace(
            plat.sched_params, stacking_prob_per_thread=0.0
        ),
    )
    monkeypatch.setitem(
        platform_module._PLATFORMS, "_abl_nohazard", lambda: no_hazard
    )
    # unpinned threads stacking on one core is what spreads the runs
    assert spread("dardel") > 5 * spread("_abl_nohazard")
