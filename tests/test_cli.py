"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dardel" in out and "vera" in out
        assert "syncbench" in out and "taskbench" in out
        assert "table2" in out and "figure7" in out and "figure8" in out
        # the registry's one-line description is shown next to each name
        assert "work-stealing" in out


class TestPlatform:
    def test_describe_dardel(self, capsys):
        assert main(["platform", "dardel"]) == 0
        out = capsys.readouterr().out
        assert "256 hardware threads" in out

    def test_unknown_platform_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["platform", "cray-1"])


class TestExperiment:
    def test_table2_quick(self, capsys):
        assert main(["experiment", "table2", "--runs", "2", "--reps", "5",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "dardel@4" in out
        assert "vera@30" in out

    def test_figure6_quick(self, capsys):
        assert main(["experiment", "figure6", "--runs", "2", "--reps", "6"]) == 0
        out = capsys.readouterr().out
        assert "one-numa" in out and "two-numa" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


class TestRun:
    def test_run_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "r.json"
        rc = main([
            "run", "--platform", "toy", "--benchmark", "syncbench",
            "--threads", "4", "--runs", "2", "--reps", "5",
            "--out", str(out_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        data = json.loads(out_file.read_text())
        assert data["config"]["platform"] == "toy"
        assert len(data["records"]) == 2

    def test_run_babelstream(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "babelstream",
            "--threads", "4", "--runs", "1", "--reps", "3",
        ])
        assert rc == 0
        assert "triad" in capsys.readouterr().out

    def test_run_unbound(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "schedbench",
            "--threads", "4", "--proc-bind", "false", "--schedule", "dynamic",
            "--chunk", "1", "--runs", "1", "--reps", "3",
        ])
        assert rc == 0
        assert "dynamic_1" in capsys.readouterr().out

    def test_error_path_returns_one(self, capsys):
        # more threads than the toy machine's 16 cpus
        rc = main([
            "run", "--platform", "toy", "--benchmark", "syncbench",
            "--threads", "999", "--runs", "1",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_run_taskbench_with_params(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "taskbench",
            "--threads", "4", "--runs", "2", "--reps", "3",
            "--noise", "quiet",
            "--param", "grainsize=4", "--param", "total_iters=64",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "taskloop_g4" in out
        assert "work-stealing scheduler metrics" in out
        assert "fail rate" in out

    def test_bad_param_returns_one(self, capsys):
        rc = main([
            "run", "--platform", "toy", "--benchmark", "taskbench",
            "--threads", "2", "--runs", "1", "--param", "grainsize",
        ])
        assert rc == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_backend_flag_is_rejected(self, capsys):
        # --jobs alone picks the backend
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--platform", "toy", "--benchmark", "syncbench",
                "--threads", "4", "--runs", "1", "--backend", "serial",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_bench_command_is_rejected(self, capsys):
        # e2ebench/ is the one benchmark
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestParamCoercion:
    """--param / --grid values coerce numbers, booleans and None."""

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("7", 7),
            ("2.5", 2.5),
            ("true", True),
            ("True", True),
            ("FALSE", False),
            ("none", None),
            ("None", None),
            ("fib", "fib"),
        ],
    )
    def test_coercions(self, raw, expected):
        from repro.cli import _parse_param

        key, value = _parse_param(f"k={raw}")
        assert key == "k"
        assert value == expected and type(value) is type(expected)


class TestSweep:
    def test_grid_sweep_report_and_csv_export(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--platform", "toy", "--runs", "2", "--reps", "4",
            "--grid", "num_threads=2,4", "--grid", "runtime=gnu,llvm",
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "4 configuration(s)" in text
        assert "swept axes: num_threads, runtime" in text
        assert "pooled variability by num_threads" in text
        assert "pooled variability by runtime" in text
        lines = out.read_text().splitlines()
        assert lines[0].startswith("platform,benchmark,num_threads,runtime,label")
        assert len(lines) > 1  # non-empty tidy export

    def test_zip_sweep_and_json_export(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--zip", "num_threads=2,4", "--zip", "schedule=static,dynamic",
            "--out", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["axes"] == ["platform", "benchmark", "num_threads", "schedule"]
        assert data["records"]
        swept = {(r["num_threads"], r["schedule"]) for r in data["records"]}
        assert swept == {(2, "static"), (4, "dynamic")}

    def test_group_by_and_label_selection(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4",
            "--group-by", "num_threads", "--label", "reduction.overhead",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "reduction.overhead" in text
        assert "pooled variability by num_threads" in text

    def test_benchmark_param_axis_falls_through(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--benchmark", "taskbench",
            "--threads", "2", "--runs", "1", "--reps", "2",
            "--param", "total_iters=32", "--grid", "grainsize=1,4",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "taskloop_g1" in text and "taskloop_g4" in text

    def test_reps_follows_swept_benchmark_axis(self, capsys):
        # --reps must map to num_times for babelstream configs and to
        # outer_reps for the others, even when benchmark is a swept axis
        rc = main([
            "sweep", "--platform", "toy", "--threads", "2", "--runs", "1",
            "--reps", "3", "--grid", "benchmark=syncbench,babelstream",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 configuration(s)" in text
        assert "reduction" in text and "copy" in text

    def test_proc_bind_axis_keeps_false_as_string(self, capsys):
        # proc_bind="false" is a legal string value (OS placement), not a
        # boolean — the figure-4-style pinning sweep must work from the CLI
        rc = main([
            "sweep", "--platform", "toy", "--threads", "2", "--runs", "1",
            "--reps", "3",
            "--zip", "proc_bind=false,close", "--zip", "places=none,cores",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 configuration(s)" in text
        assert "pooled variability by proc_bind" in text

    def test_mismatched_zip_returns_one(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1",
            "--zip", "num_threads=2,4", "--zip", "schedule=static",
        ])
        assert rc == 1
        assert "share a length" in capsys.readouterr().err

    def test_bad_axis_returns_one(self, capsys):
        rc = main(["sweep", "--platform", "toy", "--grid", "num_threads"])
        assert rc == 1
        assert "KEY=V1,V2" in capsys.readouterr().err

    def test_unknown_benchmark_param_axis_returns_one(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "bogus_param=1,2",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "bogus_param" in err


class TestSweepDryRun:
    def test_prints_configs_with_cache_keys(self, capsys, tmp_path):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4", "--dry-run",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 2
        assert [row["index"] for row in data["configs"]] == [0, 1]
        for row in data["configs"]:
            assert set(row) == {"index", "label", "config", "cache_key",
                                "cached"}
            assert len(row["cache_key"]) == 64
            assert row["cached"] is False
        assert [r["config"]["num_threads"] for r in data["configs"]] == [2, 4]

    def test_dry_run_simulates_nothing_and_reports_warm_entries(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4", "--cache-dir", cache,
        ]
        assert main([*argv, "--dry-run"]) == 0
        capsys.readouterr()
        assert main(argv) == 0  # real run warms the cache
        capsys.readouterr()
        assert main([*argv, "--dry-run"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(row["cached"] for row in data["configs"])

    def test_dry_run_without_cache_marks_all_cold(self, capsys):
        rc = main([
            "sweep", "--platform", "toy", "--runs", "1", "--reps", "3",
            "--grid", "num_threads=2,4", "--dry-run",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["cached"] for row in data["configs"]] == [False, False]
