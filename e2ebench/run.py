"""The repository's end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload paper-cold --seed 42 --seconds 20 --trace 0

Runs one workload under a workload seed for about ``--seconds`` seconds,
checks the outputs, prints every metric by name and unit, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run (run-time wrappers around each layer's
public callables, see ``e2ebench/spans.py``) and the tracing overhead.

``--write-reference`` regenerates ``e2ebench/reference.json``, the
digests of every workload's outputs under the default seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("paper-cold", "tasking-cold", "serve-mixed")

#: The seed whose outputs ``reference.json`` records.
REFERENCE_SEED = 42

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Jobs the percentiles and rates are taken over, at least:
#: ``job_ms_p90`` needs ten beyond it.
MIN_JOBS = 100

#: Distinct serve-mixed specs whose exports the reference records.
SERVE_REFERENCE_SPECS = 8

END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
}

_BENCHES = ("syncbench", "schedbench", "babelstream")

PER_LAYER = {
    "study.configs_ms": "ms/job",
    "study.render_ms": "ms/job",
    "study.render.self_ms": "ms/job",
    "stats.summarize_ms": "ms/job",
    "runner.init_ms": "ms/job",
    "runner.inits": "count",
    "runtime.start_run_ms": "ms/job",
    "runtime.start_run.self_ms": "ms/job",
    "runtime.start_runs": "count",
    "freq.plan_ms": "ms/job",
    "osnoise.realize_ms": "ms/job",
    **{f"bench.{b}_ms": "ms/job" for b in _BENCHES},
    "fused.run_ms": "ms/job",
    "fused.run.self_ms": "ms/job",
    "fused.configs": "count",
    "fused.eligible_ratio": "fraction",
    **{f"fused.{b}.run_ms": "ms/job" for b in _BENCHES},
    **{f"fused.{b}.eligible_ratio": "fraction" for b in _BENCHES},
    "tasking.run_ms": "ms/job",
    "tasking.events": "count",
    "tasking.events_per_s": "1/s",
    "tasking.steal_hit_ratio": "fraction",
    "cache.get_ms": "ms/job",
    "cache.put_ms": "ms/job",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.hit_ratio": "fraction",
    "cache.bytes_written": "bytes",
    "serve.submit_ms": "ms/job",
    "serve.wait_ms": "ms/job",
    "serve.records_ms": "ms/job",
    "serve.rejected": "count",
    "serve.sse_reconnects": "count",
    "serve.dedup_ratio": "fraction",
    "serve.warm_ratio": "fraction",
    "trace.jobs": "count",
    "trace.window_ms": "ms",
    "trace.outside_ms": "ms/job",
    "trace.outside_share": "fraction",
    "trace.overhead_runs_per_s": "fraction",
    "trace.overhead_job_ms_p50": "fraction",
}


def percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile, refused unless ten samples lie beyond it."""
    if len(values) * (100 - q) < 1000:
        raise ValueError(
            f"p{q} of {len(values)} samples has fewer than ten beyond it"
        )
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def own_peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def load_reference(workload: str, seed: int):
    """The committed output digests, for the default seed only."""
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE_PATH.read_text())[workload]


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    problems: list[str]


def layer_metrics(
    times: dict[str, tuple[float, float]],
    counts: dict[str, float],
    jobs: int,
    window_s: float,
    outside_s: float,
) -> dict[str, float]:
    """Per-layer metrics from span times (inclusive, self seconds per span
    name) and counters: times in ms per job, counts as totals."""

    def per_job_ms(*names: str, index: int = 0) -> float:
        return ratio(sum(times.get(n, (0.0, 0.0))[index] for n in names) * 1e3, jobs)

    fused_spans = [f"fused.{b}" for b in _BENCHES]
    out = {
        "study.configs_ms": per_job_ms("study.configs"),
        "study.render_ms": per_job_ms("study.render"),
        "study.render.self_ms": per_job_ms("study.render", index=1),
        "stats.summarize_ms": per_job_ms("stats.summarize"),
        "runner.init_ms": per_job_ms("runner.init"),
        "runner.inits": counts.get("runner.inits", 0),
        "runtime.start_run_ms": per_job_ms("runtime.start_run"),
        "runtime.start_run.self_ms": per_job_ms("runtime.start_run", index=1),
        "runtime.start_runs": counts.get("runtime.start_runs", 0),
        "freq.plan_ms": per_job_ms("freq.plan"),
        "osnoise.realize_ms": per_job_ms("osnoise.realize"),
        "fused.run_ms": per_job_ms(*fused_spans),
        "fused.run.self_ms": per_job_ms(*fused_spans, index=1),
        "fused.configs": counts.get("fused.configs", 0),
        "fused.eligible_ratio": ratio(
            counts.get("fused.eligible", 0),
            counts.get("fused.eligible", 0) + counts.get("fused.ineligible", 0),
        ),
    }
    for b in _BENCHES:
        eligible = counts.get(f"fused.{b}.eligible", 0)
        ineligible = counts.get(f"fused.{b}.ineligible", 0)
        out[f"bench.{b}_ms"] = per_job_ms(f"bench.{b}")
        out[f"fused.{b}.run_ms"] = per_job_ms(f"fused.{b}")
        out[f"fused.{b}.eligible_ratio"] = ratio(eligible, eligible + ineligible)
    steals = counts.get("tasking.steals", 0)
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    out.update({
        "tasking.run_ms": per_job_ms("tasking.run"),
        "tasking.events": counts.get("tasking.events", 0),
        "tasking.events_per_s": ratio(
            counts.get("tasking.events", 0), times.get("tasking.run", (0.0, 0.0))[0]
        ),
        "tasking.steal_hit_ratio": ratio(
            steals, steals + counts.get("tasking.failed_steals", 0)
        ),
        "cache.get_ms": per_job_ms("cache.get"),
        "cache.put_ms": per_job_ms("cache.put"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": counts.get("cache.stores", 0),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.bytes_written": counts.get("cache.bytes_written", 0),
        "serve.submit_ms": per_job_ms("serve.submit"),
        "serve.wait_ms": per_job_ms("serve.wait"),
        "serve.records_ms": per_job_ms("serve.records"),
        "trace.jobs": jobs,
        "trace.window_ms": window_s * 1e3,
        "trace.outside_ms": ratio(outside_s * 1e3, jobs),
        "trace.outside_share": ratio(outside_s, window_s),
    })
    return out


# -- cold-study workloads --------------------------------------------------------


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from launching a fresh process until it is ready for the
    first operation (see ``studies.setup_probe``)."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--setup-probe", str(workdir),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line!r}")
    return ready


def run_studies(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    from e2ebench import spans, studies

    reference = load_reference(workload, seed)
    if not trace:
        setups = [
            probe_setup(workload, seed, workdir / f"probe-{i}")
            for i in range(SETUP_REPEATS)
        ]
        built = studies.build_studies(workload, seed)
        res = studies.run_rounds(built, workdir / "run", seconds, MIN_JOBS)
        failed, problems = studies.failed_jobs(res, reference)
        # p50 over each config's fastest simulation; p90 needs at least
        # 100 samples, more than a round has configs, so it takes the
        # fastest rounds that hold them
        fastest_ms = [wall * 1e3 for wall in res.fastest_config_walls()]
        rounds_ms = [wall * 1e3 for wall in res.fastest_rounds_walls(MIN_JOBS)]
        metrics = {
            "setup_s": statistics.median(setups),
            "runs_per_s": res.runs / res.rounds / res.round_seconds(),
            "job_ms_p50": percentile(fastest_ms, 50),
            "job_ms_p90": percentile(rounds_ms, 90),
            "jobs_per_s": len(res.job_walls_s) / res.rounds / res.round_seconds(),
            "peak_rss_mb": own_peak_rss_mb(),
        }
        return Outcome(metrics, res.attempted, failed, problems)

    built = studies.build_studies(workload, seed)
    plain = studies.run_rounds(built, workdir / "plain", seconds / 2, 0)
    rec = spans.Recorder()
    with spans.instrument(rec):
        lo = time.perf_counter()
        traced = studies.run_rounds(built, workdir / "traced", seconds / 2, 0)
        hi = time.perf_counter()
    failed, problems = 0, []
    for res in (plain, traced):
        n, why = studies.failed_jobs(res, reference)
        failed, problems = failed + n, problems + why
    metrics = layer_metrics(
        spans.layer_times(rec.spans), rec.counts, len(traced.job_walls_s), hi - lo,
        spans.outside(rec.spans, lo, hi),
    )
    metrics.update({
        "serve.rejected": 0, "serve.sse_reconnects": 0,
        "serve.dedup_ratio": 0.0, "serve.warm_ratio": 0.0,
    })
    plain_p50 = percentile([w * 1e3 for w in plain.job_walls_s], 50)
    traced_p50 = percentile([w * 1e3 for w in traced.job_walls_s], 50)
    plain_rps = plain.runs / plain.window_s
    traced_rps = traced.runs / traced.window_s
    metrics["trace.overhead_runs_per_s"] = (plain_rps - traced_rps) / plain_rps
    metrics["trace.overhead_job_ms_p50"] = (traced_p50 - plain_p50) / plain_p50
    return Outcome(metrics, plain.attempted + traced.attempted, failed, problems)


# -- serve-mixed -------------------------------------------------------------------


def _load_summary(load, min_jobs: int) -> dict:
    jobs, seconds = load.fastest_groups(min_jobs)
    return {
        "runs_per_s": sum(job.configs * job.spec["base"]["runs"] for job in jobs) / seconds,
        "jobs_per_s": len(jobs) / seconds,
        "ms": [job.ms for job in jobs],
    }


def run_serve(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    from e2ebench import serving, spans

    reference = load_reference("serve-mixed", seed)
    sequence = serving.job_sequence(seed)

    def serve_window(name: str, window: float, min_jobs: int, spans_path=None, rec=None):
        server = serving.Server(ROOT, workdir / name, spans_path)
        try:
            setup = server.start()
            load = serving.drive(server.url, sequence, window, min_jobs, rec)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        n, why = serving.failed_jobs(load, sequence, reference)
        return setup, load, rss, n, why

    if not trace:
        setups = []
        for i in range(SETUP_REPEATS - 1):
            server = serving.Server(ROOT, workdir / f"probe-{i}")
            try:
                setups.append(server.start())
            finally:
                server.stop()
        # whole groups holding MIN_JOBS jobs
        groups_jobs = -(-MIN_JOBS // serving.GROUP_JOBS) * serving.GROUP_JOBS
        setup, load, rss, failed, problems = serve_window("serve", seconds, groups_jobs)
        setups.append(setup)
        summary = _load_summary(load, MIN_JOBS)
        metrics = {
            "setup_s": statistics.median(setups),
            "runs_per_s": summary["runs_per_s"],
            "job_ms_p50": percentile(summary["ms"], 50),
            "job_ms_p90": percentile(summary["ms"], 90),
            "jobs_per_s": summary["jobs_per_s"],
            "peak_rss_mb": rss,
        }
        return Outcome(metrics, len(load.jobs), failed, problems)

    _, plain, _, failed_a, problems_a = serve_window("plain", seconds / 2, 0)
    spans_path = workdir / "server-spans.json"
    client = spans.Recorder()
    _, traced, _, failed_b, problems_b = serve_window(
        "traced", seconds / 2, 0, spans_path, client
    )
    server = spans.Recorder.load(spans_path)
    lo, hi = traced.window
    times = {**spans.layer_times(server.spans), **spans.layer_times(client.spans)}
    done = traced.done
    metrics = layer_metrics(
        times, server.counts, len(done), hi - lo, spans.outside(server.spans, lo, hi)
    )
    metrics.update({
        "serve.rejected": sum(job.rejected for job in traced.jobs),
        "serve.sse_reconnects": sum(job.reconnects for job in traced.jobs),
        "serve.dedup_ratio": ratio(sum(job.deduped for job in done), len(done)),
        "serve.warm_ratio": ratio(
            sum(job.cached for job in done), sum(job.configs for job in done)
        ),
    })
    a, b = _load_summary(plain, 0), _load_summary(traced, 0)
    plain_p50 = percentile(a["ms"], 50)
    metrics["trace.overhead_runs_per_s"] = (a["runs_per_s"] - b["runs_per_s"]) / a["runs_per_s"]
    metrics["trace.overhead_job_ms_p50"] = (percentile(b["ms"], 50) - plain_p50) / plain_p50
    return Outcome(
        metrics, len(plain.jobs) + len(traced.jobs), failed_a + failed_b,
        problems_a + problems_b,
    )


# -- reference -------------------------------------------------------------------


def write_reference(workdir: Path) -> None:
    from e2ebench import serving, studies

    payload: dict = {"seed": REFERENCE_SEED}
    for workload in ("paper-cold", "tasking-cold"):
        built = studies.build_studies(workload, REFERENCE_SEED)
        res = studies.run_rounds(built, workdir / workload, 0.0, 0)
        payload[workload] = res.digests[0]
    sequence = serving.job_sequence(REFERENCE_SEED)
    payload["serve-mixed"] = [
        serving.sha(serving.local_outputs(spec)[1])
        for spec in serving.distinct_specs(sequence, SERVE_REFERENCE_SPECS)
    ]
    REFERENCE_PATH.write_text(json.dumps(payload, indent=2) + "\n")


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="paper-cold")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run the "
            f"benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # replace this directory on the path, so its modules never shadow
    # the standard library's
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    if args.setup_probe:
        from e2ebench import studies

        studies.setup_probe(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    work_root = ROOT / ".e2ebench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.write_reference:
            write_reference(workdir)
            print(f"wrote {REFERENCE_PATH}")
            return 0
        if args.workload == "serve-mixed":
            outcome = run_serve(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            outcome = run_studies(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:32s} {outcome.metrics[name]:>16.6g} {unit}")
    print(
        f"  {'error_rate':32s} {ratio(outcome.failed, outcome.attempted):>16.6g} "
        f"fraction ({outcome.failed} of {outcome.attempted} operations failed)"
    )
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
