"""Tests of the benchmark's own machinery: span arithmetic, percentile
naming, wrapper removal, output checks and the metric catalogue.

Run with ``PYTHONPATH=src python -m pytest e2ebench``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from e2ebench import run, serving, spans, studies

ROOT = Path(__file__).resolve().parents[1]


# -- self time and coverage ------------------------------------------------------


def test_self_time_is_duration_minus_child_coverage():
    spans_ = [
        ["outer", 0.0, 10.0, None, "op"],
        ["child", 1.0, 3.0, 0, "op"],
        ["child", 2.0, 4.0, 0, "op"],  # overlaps its sibling: covered once
        ["child", 8.0, 12.0, 0, "op"],  # runs past its parent: clipped
        ["grandchild", 1.5, 2.5, 1, "op"],
    ]
    times = spans.layer_times(spans_)
    assert times["outer"] == pytest.approx((10.0, 10.0 - 3.0 - 2.0))
    assert times["child"] == pytest.approx((2.0 + 2.0 + 4.0, 1.0 + 2.0 + 4.0))
    assert times["grandchild"] == pytest.approx((1.0, 1.0))


def test_nested_same_name_spans_count_once_inclusive():
    spans_ = [
        ["render", 0.0, 4.0, None, None],
        ["render", 1.0, 2.0, 0, None],
    ]
    incl, self_ = spans.layer_times(spans_)["render"]
    assert incl == pytest.approx(4.0)
    assert self_ == pytest.approx(3.0 + 1.0)


def test_outside_counts_window_time_in_no_span():
    spans_ = [["a", 1.0, 3.0, None, None], ["b", 2.0, 5.0, None, None],
              ["c", 9.0, 12.0, None, None]]
    assert spans.outside(spans_, 0.0, 10.0) == pytest.approx(10.0 - 4.0 - 1.0)
    assert spans.covered([], 0.0, 1.0) == 0.0


# -- percentile naming -------------------------------------------------------------


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, enough):
    values = [float(i) for i in range(enough)]
    run.percentile(values, q)
    with pytest.raises(ValueError, match=f"p{q}"):
        run.percentile(values[:-1], q)


def test_p90_of_uniform_samples():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 90) == pytest.approx(90.1)
    assert run.percentile(values, 50) == pytest.approx(50.5)


# -- wrappers ----------------------------------------------------------------------


def test_wrappers_are_removed_after_a_traced_run():
    targets = spans.targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr in targets]
    rec = spans.Recorder()
    with spans.instrument(rec):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
        from repro.harness.experiments import get_experiment

        study = get_experiment("table2").build_study(runs=2, outer_reps=2)
        study.run(fused="auto").to_csv_text()
    after = [(owner, attr, vars(owner).get(attr)) for owner, attr in targets]
    assert after == before
    names = {span[0] for span in rec.spans}
    assert {"study.configs", "study.render", "runner.init", "runtime.start_run",
            "freq.plan", "osnoise.realize", "fused.schedbench"} <= names
    assert rec.counts["fused.eligible"] == len(study.configs())


def test_wrappers_are_removed_when_the_block_raises():
    targets = spans.targets()
    before = [vars(owner).get(attr) for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Recorder()):
            raise RuntimeError("boom")
    assert [vars(owner).get(attr) for owner, attr in targets] == before


# -- output checks -----------------------------------------------------------------


def _rounds(digests):
    result = studies.RoundsResult(configs={"s": 4})
    result.digests = [{"s": d} for d in digests]
    return result


def test_study_check_passes_identical_rounds_and_flags_a_corrupted_one():
    assert studies.failed_jobs(_rounds(["a", "a"]), None) == (0, [])
    failed, problems = studies.failed_jobs(_rounds(["a", "b"]), None)
    assert failed == 4 and "round 1" in problems[0]
    assert studies.failed_jobs(_rounds(["a", "a"]), {"s": "x"})[0] == 8
    assert studies.failed_jobs(_rounds([None]), None)[0] == 4


def test_served_csv_check_flags_a_corrupted_output():
    spec = serving.fresh_spec(0, random.Random(1))
    spec["reps"] = 2
    csv_text, _json_text = serving.local_outputs(spec)
    good = serving.Job(index=0, spec=spec, ok=True, csv_sha=serving.sha(csv_text))
    corrupted = serving.Job(
        index=1, spec=spec, ok=True,
        csv_sha=serving.sha(csv_text.replace("syncbench", "schedbench", 1)),
    )
    load = serving.LoadResult(jobs=[good, corrupted])
    failed, problems = serving.failed_jobs(load, [(spec, "u")], None)
    assert failed == 1 and "job 1" in problems[0]
    assert serving.failed_jobs(serving.LoadResult(jobs=[good]), [(spec, "u")], None) == (0, [])


def test_job_sequence_is_a_pure_function_of_the_seed():
    assert serving.job_sequence(7, 300) == serving.job_sequence(7, 300)
    assert serving.job_sequence(7, 300) != serving.job_sequence(8, 300)
    seq = serving.job_sequence(7, 300)
    distinct = serving.distinct_specs(seq, 1000)
    assert len(distinct) < len(seq)  # warm resubmissions
    assert {len(s["axes"][1]["axes"]["runtime"]) for s in distinct} == {1, 2}


# -- the catalogue -----------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    layer = run.layer_metrics({}, {}, jobs=1, window_s=1.0, outside_s=0.0)
    assert set(layer) | {
        "serve.rejected", "serve.sse_reconnects", "serve.dedup_ratio",
        "serve.warm_ratio", "trace.overhead_runs_per_s",
        "trace.overhead_job_ms_p50",
    } == set(run.PER_LAYER)


def test_reference_covers_every_study():
    reference = json.loads(run.REFERENCE_PATH.read_text())
    assert reference["seed"] == run.REFERENCE_SEED
    for workload in ("paper-cold", "tasking-cold"):
        names = {s.name for s in studies.build_studies(workload, run.REFERENCE_SEED)}
        assert set(reference[workload]) == names
    assert len(reference["serve-mixed"]) == run.SERVE_REFERENCE_SPECS
