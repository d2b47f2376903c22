"""Tests for the declarative Study API (repro.harness.study).

Covers axis composition and ordering, execution equality across the
serial / parallel / cached paths, tidy-record export round-trips, the
Study-driven report renderers, and — crucially — a byte-identity
regression for every registered experiment driver against renders
captured from the pre-Study hand-rolled drivers (``tests/golden/``).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from golden_kwargs import GOLDEN_KWARGS
from scalar_reference import ScalarReferenceBackend
from repro.errors import HarnessError
from repro.harness import ExperimentConfig, ResultCache, Study
from repro.harness.experiments import EXPERIMENTS
from repro.harness.report import (
    render_group_summaries,
    render_pivot,
    render_series,
    render_study_overview,
    sparkline,
)
from repro.harness.study import config_value, load_records

BASE = ExperimentConfig(
    platform="toy",
    benchmark="syncbench",
    num_threads=2,
    runs=2,
    seed=7,
    benchmark_params={"outer_reps": 4, "constructs": ("barrier",)},
)


class TestComposition:
    def test_no_axes_is_the_base_config(self):
        assert Study(BASE).configs() == (BASE,)

    def test_grid_single_axis_order(self):
        configs = Study(BASE).grid(num_threads=[2, 4, 8]).configs()
        assert [c.num_threads for c in configs] == [2, 4, 8]

    def test_grid_multi_key_product_first_key_outermost(self):
        configs = Study(BASE).grid(num_threads=[2, 4], runtime=["gnu", "llvm"]).configs()
        assert [(c.num_threads, c.runtime) for c in configs] == [
            (2, "gnu"), (2, "llvm"), (4, "gnu"), (4, "llvm"),
        ]

    def test_successive_grids_multiply_first_call_outermost(self):
        configs = Study(BASE).grid(runtime=["gnu", "llvm"]).grid(num_threads=[2, 4]).configs()
        assert [(c.runtime, c.num_threads) for c in configs] == [
            ("gnu", 2), ("gnu", 4), ("llvm", 2), ("llvm", 4),
        ]

    def test_zip_ties_values_positionally(self):
        configs = Study(BASE).zip(num_threads=[2, 4], schedule=["static", "dynamic"]).configs()
        assert [(c.num_threads, c.schedule) for c in configs] == [
            (2, "static"), (4, "dynamic"),
        ]

    def test_zip_length_mismatch_raises(self):
        with pytest.raises(HarnessError, match="share a length"):
            Study(BASE).zip(num_threads=[2, 4], schedule=["static"])

    def test_cases_allow_irregular_points(self):
        configs = Study(BASE).cases(
            {"platform": "toy", "num_threads": 2},
            {"platform": "vera", "num_threads": 8, "schedule": "dynamic"},
        ).configs()
        assert [(c.platform, c.num_threads, c.schedule) for c in configs] == [
            ("toy", 2, "static"), ("vera", 8, "dynamic"),
        ]

    def test_unknown_key_falls_through_to_benchmark_params(self):
        configs = Study(BASE).grid(outer_reps=[3, 9]).configs()
        assert [c.benchmark_params["outer_reps"] for c in configs] == [3, 9]
        # untouched base params survive the merge
        assert all(c.benchmark_params["constructs"] == ("barrier",) for c in configs)

    def test_benchmark_params_point_merges_instead_of_replacing(self):
        configs = Study(BASE).cases({"benchmark_params": {"outer_reps": 11}}).configs()
        assert configs[0].benchmark_params == {
            "outer_reps": 11, "constructs": ("barrier",),
        }

    def test_derive_computes_fields_from_the_expanded_config(self):
        configs = (
            Study(BASE)
            .grid(num_threads=[2, 4])
            .derive(places=lambda cfg: f"{{0:{cfg.num_threads}}}")
            .configs()
        )
        assert [c.places for c in configs] == ["{0:2}", "{0:4}"]

    def test_derive_into_benchmark_params(self):
        configs = (
            Study(BASE)
            .grid(num_threads=[2, 4])
            .derive(outer_reps=lambda cfg: 2 * cfg.num_threads)
            .configs()
        )
        assert [c.benchmark_params["outer_reps"] for c in configs] == [4, 8]

    def test_where_filters_after_derive(self):
        configs = (
            Study(BASE)
            .grid(num_threads=[2, 4, 8])
            .where(lambda cfg: cfg.num_threads < 8)
            .configs()
        )
        assert [c.num_threads for c in configs] == [2, 4]

    def test_later_axis_overrides_earlier_key(self):
        configs = Study(BASE).grid(num_threads=[2, 4]).grid(num_threads=[8]).configs()
        assert [c.num_threads for c in configs] == [8, 8]

    def test_axis_names_ordered_and_deduplicated(self):
        study = Study(BASE).grid(num_threads=[2]).zip(runtime=["gnu"], num_threads=[4])
        assert study.axis_names() == ("num_threads", "runtime")

    def test_studies_are_immutable(self):
        base = Study(BASE).grid(num_threads=[2, 4])
        widened = base.grid(runtime=["gnu", "llvm"])
        assert len(base) == 2
        assert len(widened) == 4

    def test_scalar_axis_value_rejected(self):
        with pytest.raises(HarnessError, match="sequence of values"):
            Study(BASE).grid(num_threads=4)

    def test_string_axis_value_rejected(self):
        with pytest.raises(HarnessError, match="sequence of values"):
            Study(BASE).grid(runtime="gnu")

    def test_empty_axis_rejected(self):
        with pytest.raises(HarnessError, match="no values"):
            Study(BASE).grid(num_threads=[])

    def test_config_value_resolves_fields_and_params(self):
        assert config_value(BASE, "num_threads") == 2
        assert config_value(BASE, "outer_reps") == 4
        with pytest.raises(HarnessError, match="no axis"):
            config_value(BASE, "does_not_exist")


class TestExecution:
    @pytest.fixture(scope="class")
    def study(self):
        return Study(BASE, name="exec").grid(num_threads=[2, 4], runtime=["gnu", "llvm"])

    def test_empty_study_refuses_to_run(self):
        with pytest.raises(HarnessError, match="no configurations"):
            Study(BASE).where(lambda cfg: False).run()

    def test_serial_equals_parallel_equals_cached_replay(self, study, tmp_path):
        serial = study.run(jobs=1)
        parallel = study.run(jobs=4)
        cache = ResultCache(tmp_path / "cache")
        warmed = study.run(jobs=4, cache=cache)
        assert cache.stores == len(study)
        replayed = study.run(jobs=1, cache=cache)
        assert cache.hits == len(study)
        baseline = [r.to_dict() for r in serial.results]
        for other in (parallel, warmed, replayed):
            assert [r.to_dict() for r in other.results] == baseline

    def test_results_align_with_configs(self, study):
        res = study.run(jobs=1)
        assert res.configs == study.configs()
        assert all(cfg == r.config for cfg, r in res)

    def test_by_and_get_and_values(self, study):
        res = study.run(jobs=1)
        by = res.by("num_threads", "runtime")
        assert set(by) == {(2, "gnu"), (2, "llvm"), (4, "gnu"), (4, "llvm")}
        assert by[(4, "llvm")] is res.get(num_threads=4, runtime="llvm")
        assert res.values("num_threads") == (2, 4)
        assert res.values("runtime") == ("gnu", "llvm")

    def test_by_duplicate_key_raises(self, study):
        res = study.run(jobs=1)
        with pytest.raises(HarnessError, match="uniquely"):
            res.by("num_threads")

    def test_get_without_unique_match_raises(self, study):
        res = study.run(jobs=1)
        with pytest.raises(HarnessError, match="need exactly 1"):
            res.get(num_threads=2)
        with pytest.raises(HarnessError, match="need exactly 1"):
            res.get(num_threads=999, runtime="gnu")


class TestRecordsAndExport:
    @pytest.fixture(scope="class")
    def result(self):
        return Study(BASE, name="export").grid(num_threads=[2, 4]).run(jobs=1)

    def test_record_axes_prepend_identity(self, result):
        assert result.record_axes() == ("platform", "benchmark", "num_threads")

    def test_experiment_result_to_records(self, result):
        rows = result.results[0].to_records()
        labels = result.results[0].labels()
        assert len(rows) == BASE.runs * len(labels)
        assert [r["label"] for r in rows[: BASE.runs]] == [labels[0]] * BASE.runs
        assert [r["run"] for r in rows[: BASE.runs]] == list(range(BASE.runs))
        assert all(r["min"] <= r["median"] <= r["max"] for r in rows)

    def test_one_record_per_config_run_label(self, result):
        records = result.to_records()
        labels = result.results[0].labels()
        assert len(records) == 2 * BASE.runs * len(labels)
        first = records[0]
        assert first["platform"] == "toy"
        assert first["num_threads"] == 2
        assert first["n"] == 4
        assert 0 < first["mean"] and first["min"] <= first["mean"] <= first["max"]
        assert math.isclose(first["norm_max"], first["max"] / first["mean"])

    def test_group_summaries_pool_all_repetitions(self, result):
        groups = result.group_summaries("num_threads", label="barrier")
        assert set(groups) == {2, 4}
        for n, stats in groups.items():
            matrix = result.get(num_threads=n).runs_matrix("barrier")
            assert stats.n == matrix.size
            assert math.isclose(stats.mean, float(matrix.mean()))

    def test_group_summaries_callable_label(self, result):
        groups = result.group_summaries(
            "num_threads", label=lambda cfg: "barrier.overhead"
        )
        assert all(s.n == 2 * 4 for s in groups.values())

    def test_csv_round_trip(self, result, tmp_path):
        path = tmp_path / "records.csv"
        result.to_csv(path)
        loaded = load_records(path)
        records = result.to_records()
        assert len(loaded) == len(records)
        for got, want in zip(loaded, records):
            assert set(got) == set(want)
            for key, value in want.items():
                if isinstance(value, float):
                    assert math.isclose(got[key], value, rel_tol=1e-12)
                else:
                    assert got[key] == value

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "records.json"
        result.to_json(path)
        assert load_records(path) == result.to_records()


class TestStudyRenderers:
    def test_render_pivot_headers_and_cells(self):
        text = render_pivot(
            "threads", [2, 4], ["a", "b"], ("x", "y"),
            lambda r, c: [f"{r}{c}x", f"{r}{c}y"],
            col_label=lambda c: f"col-{c}",
        )
        lines = text.splitlines()
        assert lines[0].split() == [
            "threads", "col-a", "x", "col-a", "y", "col-b", "x", "col-b", "y",
        ]
        assert "2ax" in lines[2] and "4by" in lines[3]

    def test_render_pivot_cell_arity_checked(self):
        with pytest.raises(HarnessError, match="pivot cell"):
            render_pivot("r", [1], [1], ("x", "y"), lambda r, c: ["only-one"])

    def test_render_study_overview_and_groups(self):
        res = Study(BASE).grid(num_threads=[2, 4]).run(jobs=1)
        overview = render_study_overview(res, label="barrier")
        assert "num_threads" in overview and "norm max" in overview
        assert len(overview.splitlines()) == 2 + len(res)
        grouped = render_group_summaries(
            "num_threads", res.group_summaries("num_threads", label="barrier")
        )
        assert len(grouped.splitlines()) == 2 + 2


class TestReportSatellites:
    def test_sparkline_nan_renders_blank_glyph(self):
        assert sparkline([1.0, float("nan"), 3.0]) == "▁·█"

    def test_sparkline_all_nan(self):
        assert sparkline([float("nan")] * 3) == "···"

    def test_sparkline_nan_with_flat_finite_values(self):
        assert sparkline([2.0, float("nan"), 2.0]) == "▁·▁"

    def test_sparkline_inf_treated_as_blank(self):
        assert sparkline([1.0, float("inf"), 3.0]) == "▁·█"

    def test_sparkline_still_fine_without_nan(self):
        assert sparkline([1, 2, 3]) == "▁▅█"
        assert sparkline([]) == ""

    def test_render_series_length_mismatch_raises(self):
        with pytest.raises(HarnessError, match="3 x values but 2 y values"):
            render_series("s", [1, 2, 3], [1.0, 2.0])

    def test_render_series_nan_cell_does_not_crash(self):
        line = render_series("s", [1, 2], [1.0, float("nan")])
        assert "·" in line and "nan" in line


class TestGoldenArtifacts:
    """Every rewritten driver renders byte-identically to the pre-Study
    drivers (renders captured in tests/golden/ before the refactor).

    Rendered through the scalar reference backend, so the scalar engine
    stays golden-locked on its own; ``test_fused.py`` locks the default
    path, which fuses eligible configs, to the same files."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_KWARGS))
    def test_driver_matches_pre_refactor_render(self, name):
        golden = (Path(__file__).parent / "golden" / f"{name}.txt").read_text()
        artifact = EXPERIMENTS[name].driver(
            jobs=1, backend=ScalarReferenceBackend(), **GOLDEN_KWARGS[name]
        )
        assert artifact.render() + "\n" == golden

    def test_goldens_cover_every_registered_driver(self):
        assert set(GOLDEN_KWARGS) == set(EXPERIMENTS)
