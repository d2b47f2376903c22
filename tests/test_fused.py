"""The fused rep-axis execution plane: golden-locked to the scalar engine.

The contract under test (docs/performance.md): for every eligible
configuration, ``run_fused(Runner(cfg))`` is **byte-identical** to
``Runner(cfg).run()`` — same records, same samples, same serialized
bytes — because the fused plane is a reformulation of the same
arithmetic, not an approximation.  The lock is enforced at three levels:

* primitives — :class:`~repro.rng.RepStreams` rows are bit-equal to the
  scalar per-run streams, and :class:`~repro.sim.intervals.IntervalBatch`
  row sums are bit-equal to per-set scalar overlap;
* whole runs — ``run_fused`` vs ``Runner.run`` across benchmark shapes,
  plus the registered-experiment golden files and the CLI sweep exports
  rendered through the default execution path, which fuses every config
  :func:`~repro.harness.backend.fuses` routes to the fused engine;
* plumbing — eligibility refusals, the one routing rule and its
  provenance stamps, and the benchmark-harness ``FusedBackend`` shim.
"""

from pathlib import Path

import numpy as np
import pytest

from golden_kwargs import GOLDEN_KWARGS
from repro.cli import _build_parser, _build_sweep_study, main
from repro.errors import ConfigurationError
from repro.harness import ExperimentConfig, Study
from repro.harness.backend import (
    FusedBackend,
    SerialBackend,
    fuses,
    select_backend,
)
from repro.harness.experiments import EXPERIMENTS
from repro.harness.parallel import Sweep
from repro.harness.runner import Runner
from repro.obs.tracer import SpanTracer
from repro.rng import RngFactory
from repro.sim.fused import FUSED_BENCHMARKS, fused_ineligibility, run_fused
from scalar_reference import ScalarReferenceBackend
from repro.sim.intervals import IntervalBatch, IntervalSet


class TestRepStreams:
    """Rep-axis RNG fan-out: row r == the scalar engine's run-r stream."""

    def test_rows_bit_equal_scalar_run_streams(self):
        reps = RngFactory(42).rep_streams(5, "noise", "cpu", 3)
        batched = reps.random(8)
        assert batched.shape == (5, 8)
        for r in range(5):
            scalar = RngFactory(42).stream("run", r, "noise", "cpu", 3)
            # bit-equality, not closeness: same generator, same draw order
            assert np.array_equal(batched[r], scalar.random(8))

    @pytest.mark.parametrize(
        "method, kwargs",
        [
            ("random", {}),
            ("uniform", dict(low=0.25, high=4.0)),
            ("lognormal", dict(mean=-1.0, sigma=0.5)),
            ("normal", dict(loc=2.0, scale=0.125)),
        ],
    )
    def test_every_distribution_preserves_draw_order(self, method, kwargs):
        reps = RngFactory(7).rep_streams(3, "span")
        batched = getattr(reps, method)(size=4, **kwargs)
        for r in range(3):
            g = RngFactory(7).stream("run", r, "span")
            assert np.array_equal(batched[r], getattr(g, method)(size=4, **kwargs))

    def test_consuming_a_draw_advances_every_row_in_lockstep(self):
        reps = RngFactory(9).rep_streams(2, "x")
        reps.random(3)  # discarded, but each row advanced by 3 variates
        second = reps.random(2)
        for r in range(2):
            g = RngFactory(9).stream("run", r, "x")
            g.random(3)
            assert np.array_equal(second[r], g.random(2))


class TestIntervalBatch:
    """Length-grouped batched overlap == per-set scalar overlap, bitwise."""

    def _sets(self):
        rng = np.random.default_rng(11)
        sets = [IntervalSet.empty()]
        for n in (1, 2, 7, 7, 40):  # mixed lengths, including a shared group
            starts = np.sort(rng.random(n) * 100.0)
            sets.append(IntervalSet.from_events(starts, rng.random(n) * 0.5))
        return sets

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, 100.0), (13.0, 13.5), (50.0, 50.0), (60.0, 40.0), (-5.0, 0.0)],
    )
    def test_overlap_fused_bitwise_equals_scalar(self, a, b):
        sets = self._sets()
        batch = IntervalBatch(sets)
        fused = batch.overlap_fused(
            np.full(len(sets), a), np.full(len(sets), b)
        )
        for k, s in enumerate(sets):
            assert fused[k] == s.overlap(a, b)  # exact, not approx

    def test_per_row_windows(self):
        sets = self._sets()
        batch = IntervalBatch(sets)
        a = np.linspace(0.0, 90.0, len(sets))
        b = a + np.linspace(0.5, 30.0, len(sets))
        fused = batch.overlap_fused(a, b)
        for k, s in enumerate(sets):
            assert fused[k] == s.overlap(float(a[k]), float(b[k]))

    def test_len(self):
        assert len(IntervalBatch(self._sets())) == 6


class TestEligibility:
    def test_taskbench_is_rep_coupled(self):
        cfg = ExperimentConfig(benchmark="taskbench")
        assert "rep-coupled" in fused_ineligibility(cfg)

    def test_unknown_benchmark_has_no_formulation(self):
        cfg = ExperimentConfig(benchmark="mystery")
        assert "no fused formulation" in fused_ineligibility(cfg)

    def test_unbound_teams_are_ineligible(self):
        cfg = ExperimentConfig(proc_bind="false", places=None)
        assert "unbound" in fused_ineligibility(cfg)

    @pytest.mark.parametrize("name", sorted(FUSED_BENCHMARKS))
    def test_bound_fused_benchmarks_are_eligible(self, name):
        assert fused_ineligibility(ExperimentConfig(benchmark=name)) is None

    def test_run_fused_refuses_ineligible_config(self):
        runner = Runner(ExperimentConfig(benchmark="taskbench", runs=1))
        with pytest.raises(ConfigurationError, match="not fused-eligible"):
            run_fused(runner)

    def test_run_fused_refuses_enabled_tracer(self):
        runner = Runner(ExperimentConfig(runs=1), tracer=SpanTracer())
        with pytest.raises(ConfigurationError, match="scalar engine"):
            run_fused(runner)


#: Byte-identity shapes: one per fused benchmark, plus the wrinkles that
#: exercise distinct code paths (freq logging, llvm/passive wait spinning,
#: SMT sibling pressure, quiet platforms, non-static schedules).
IDENTITY_SHAPES = {
    "syncbench": dict(
        benchmark="syncbench", platform="vera", num_threads=4, runs=3,
        benchmark_params={"outer_reps": 4},
    ),
    "syncbench-llvm-passive": dict(
        benchmark="syncbench", platform="vera", num_threads=4, runs=3,
        runtime="llvm", wait_policy="passive",
        benchmark_params={"outer_reps": 3},
    ),
    "syncbench-freqlog": dict(
        benchmark="syncbench", platform="vera", num_threads=2, runs=2,
        freq_logging=True, benchmark_params={"outer_reps": 3},
    ),
    "schedbench-dynamic": dict(
        benchmark="schedbench", platform="vera", num_threads=4, runs=3,
        schedule="dynamic", schedule_chunk=1,
        benchmark_params={"outer_reps": 3},
    ),
    "babelstream-smt": dict(
        benchmark="babelstream", platform="dardel", num_threads=16, runs=2,
        places="threads", benchmark_params={"num_times": 4},
    ),
}


class TestRunFusedByteIdentity:
    @pytest.mark.parametrize("shape", sorted(IDENTITY_SHAPES))
    def test_fused_equals_scalar(self, shape):
        kwargs = IDENTITY_SHAPES[shape]
        scalar = Runner(ExperimentConfig(**kwargs)).run()
        fused = run_fused(Runner(ExperimentConfig(**kwargs)))
        assert fused.to_dict() == scalar.to_dict()

    def test_single_run_fused_equals_scalar(self):
        # the routing rule never fuses runs=1 (no rep axis to batch), but
        # the engine itself must still agree on a one-row plane
        cfg = ExperimentConfig(runs=1, benchmark_params={"outer_reps": 2})
        assert not fuses(cfg)
        scalar = Runner(cfg).run()
        assert run_fused(Runner(cfg)).to_dict() == scalar.to_dict()

    def test_fused_outruns_scalar_on_a_multi_run_syncbench(self):
        """The fused plane exists for speed: on 6 runs x 8 reps of Vera
        syncbench (16 threads) it beats the scalar run loop, with
        byte-identical output.  Best of three wall times per engine."""
        import time

        cfg = ExperimentConfig(
            platform="vera", benchmark="syncbench", num_threads=16, runs=6,
            seed=42, benchmark_params={"outer_reps": 8},
        )
        scalar_walls, fused_walls = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            scalar = Runner(cfg).run()
            scalar_walls.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            fused = run_fused(Runner(cfg))
            fused_walls.append(time.perf_counter() - t0)
            assert fused.to_dict() == scalar.to_dict()
        assert min(scalar_walls) / min(fused_walls) > 1.0


def _worker_ids(result):
    return {rec.worker_id for res in result.results for rec in res.records}


class TestBackends:
    BASE = ExperimentConfig(
        platform="vera", num_threads=2, runs=2,
        benchmark_params={"outer_reps": 3},
    )

    def test_fused_backend_matches_serial_and_stamps_provenance(self):
        study = Study(self.BASE).grid(num_threads=[2, 4])
        fused = study.run()
        reference = study.run(backend=ScalarReferenceBackend())
        assert [r.to_dict() for r in fused.results] == [
            r.to_dict() for r in reference.results
        ]
        # eligible multi-run configs take the fused engine by default
        assert _worker_ids(fused) == {"fused"}

    def test_ineligible_configs_fall_back_to_scalar(self):
        cfg = ExperimentConfig(benchmark="taskbench", runs=2)
        study = Study(cfg)
        default = study.run()
        reference = study.run(backend=ScalarReferenceBackend())
        assert [r.to_dict() for r in default.results] == [
            r.to_dict() for r in reference.results
        ]
        # provenance says the scalar engine ran it
        assert _worker_ids(default) == {"main"}

    def test_auto_mode_skips_single_run_configs(self):
        # the routing rule (the former "auto" mode) never fuses runs=1
        study = Study(ExperimentConfig(runs=1, benchmark_params={"outer_reps": 2}))
        assert _worker_ids(study.run()) == {"main"}

    def test_routing_is_one_rule_of_the_config(self):
        assert fuses(self.BASE)
        assert not fuses(ExperimentConfig(runs=1))
        assert not fuses(ExperimentConfig(benchmark="taskbench", runs=2))
        assert not fuses(ExperimentConfig(proc_bind="false", places=None, runs=2))

    def test_study_run_fused_knob(self):
        # Study.run keeps accepting the benchmark harness's "auto"
        # spelling; the routing is the default either way
        study = Study(self.BASE).grid(num_threads=[2, 4])
        assert [r.to_dict() for r in study.run(fused="auto").results] == [
            r.to_dict() for r in study.run().results
        ]
        for mode in ("on", "off"):
            with pytest.raises(ConfigurationError, match="no longer exists"):
                study.run(fused=mode)

    def test_selected_backend_routes_fused(self):
        assert type(select_backend(1)) is SerialBackend
        assert type(Sweep(jobs=1).backend) is SerialBackend
        # the default backends fuse: no option is needed to get there
        for backend in (select_backend(1), Sweep().backend):
            (result, _wall), = backend.execute([(self.BASE, "key")])
            assert {rec.worker_id for rec in result.records} == {"fused"}

    def test_fused_backend_rejects_off(self):
        assert isinstance(FusedBackend("auto"), SerialBackend)
        for mode in ("off", "on", None):
            with pytest.raises(ConfigurationError, match="no longer exists"):
                FusedBackend(mode)


class TestGoldenLockFused:
    """Every registered experiment, rendered through the default
    execution path (which fuses eligible configs), reproduces the
    committed pre-Study golden files byte-for-byte — the same lock the
    scalar reference backend answers to in test_study.py."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_KWARGS))
    def test_driver_matches_golden_under_fused_backend(self, name):
        golden = (Path(__file__).parent / "golden" / f"{name}.txt").read_text()
        artifact = EXPERIMENTS[name].driver(jobs=1, **GOLDEN_KWARGS[name])
        assert artifact.render() + "\n" == golden

    def test_lock_covers_every_registered_driver(self):
        assert set(GOLDEN_KWARGS) == set(EXPERIMENTS)


#: The CLI sweep the byte-identity checks below run.
SWEEP_ARGV = [
    "sweep", "--platform", "vera", "--grid", "num_threads=2,4",
    "--runs", "4", "--reps", "5",
]


class TestDefaultPathByteIdentity:
    """The default execution path exports the same bytes as the scalar
    reference engine, for a fully fused sweep and for a study that mixes
    eligible and ineligible configs."""

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_cli_sweep_export_matches_scalar_reference(
        self, tmp_path, capsys, suffix
    ):
        study = _build_sweep_study(_build_parser().parse_args(SWEEP_ARGV))
        assert all(fuses(cfg) for cfg in study.configs())
        reference = study.run(backend=ScalarReferenceBackend())
        out = tmp_path / f"sweep{suffix}"
        assert main(SWEEP_ARGV + ["--out", str(out)]) == 0
        expected = (
            reference.to_json_text() if suffix == ".json"
            else reference.to_csv_text()
        )
        assert out.read_bytes() == expected.encode()
        default = study.run()
        assert _worker_ids(default) == {"fused"}
        assert default.to_json_text() == reference.to_json_text()
        assert default.to_csv_text() == reference.to_csv_text()

    def test_figure8_fallback_render_matches_scalar_reference(self, capsys):
        # figure8 is all taskbench, which never fuses: the whole render
        # takes the scalar fallback of the default path
        spec = EXPERIMENTS["figure8"]
        kwargs = dict(runs=2, seed=42, **{k: 3 for k in spec.rep_params})
        assert not any(fuses(cfg) for cfg in spec.build_study(**kwargs).configs())
        reference = spec.driver(backend=ScalarReferenceBackend(), **kwargs)
        assert main(["experiment", "figure8", "--runs", "2", "--reps", "3"]) == 0
        assert capsys.readouterr().out == reference.render() + "\n"

    def test_mixed_eligibility_study_matches_scalar_reference(self):
        study = Study(
            ExperimentConfig(
                platform="vera", num_threads=2, runs=2,
                benchmark_params={"outer_reps": 3},
            )
        ).grid(benchmark=["syncbench", "taskbench"])
        assert [fuses(cfg) for cfg in study.configs()] == [True, False]
        default = study.run()
        reference = study.run(backend=ScalarReferenceBackend())
        assert default.to_json_text() == reference.to_json_text()
        assert default.to_csv_text() == reference.to_csv_text()
