"""The ``serve-mixed`` workload: a closed loop of callers against a
``repro-omp serve`` subprocess.

The server runs with its defaults (``--workers 2 --jobs 1``).  Each of
:data:`CALLERS` callers submits a job, follows its SSE progress stream to
the terminal event and fetches the CSV records, then takes the next job
from one shared seeded sequence.  Timing follows the SSE terminal event,
not ``ServiceClient.wait``, whose 0.2 s poll would quantize job times
that are ~15 ms when warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.serve.client import ServiceClient
from repro.serve.jobspec import spec_to_study, validate_spec

from e2ebench.spans import Recorder

#: Concurrent closed-loop callers (at most the container's two CPUs).
CALLERS = 2

#: Jobs drawn per sequence; far more than a run completes.
SEQUENCE_LENGTH = 5000

TERMINAL = ("done", "failed", "cancelled")

#: SSE reconnects per job before the job counts as failed.
MAX_RECONNECTS = 100

#: Seconds after which the loop stops even short of its job minimum.
HARD_CAP_S = 100.0

#: Completions per group of the job mix (four blocks).
GROUP_JOBS = 40

#: Distinct client ids.  At ~50 jobs/s spread over 256 ids no client
#: comes near the service's per-client token bucket (20 burst, 5/s).
USERS = 256

#: Thread ladders per platform.
_THREADS = {"toy": [2, 4, 8, 16], "vera": [4, 8, 16, 30]}

#: Fresh specs cycle through these (platform, benchmark, runtimes)
#: templates, so every seed's sequence has the same mix of work: 4
#: configs with one runtime, 8 with the gnu/llvm axis.
TEMPLATES = [
    (platform, benchmark, runtimes)
    for platform in ("toy", "vera")
    for benchmark in ("syncbench", "schedbench")
    for runtimes in (["gnu"], ["gnu", "llvm"])
]

#: The kinds of a block of ten jobs, repeated for the whole sequence so
#: every seed gets the same mix: "fresh" simulates cold, a "dup" pair
#: submits one fresh spec twice in a row (the second usually lands while
#: the first is in flight: a dedup follower), "warm" resubmits a finished
#: spec (a replay from the cache).  With seven warm jobs in ten, the
#: median job is a warm replay and the p90 job simulates.
BLOCK = ("fresh", "warm", "warm", "warm", "dup", "dup", "warm", "warm", "warm", "warm")


def fresh_spec(index: int, rng: random.Random) -> dict:
    """The *index*-th fresh spec: the next template with a new seed."""
    platform, benchmark, runtimes = TEMPLATES[index % len(TEMPLATES)]
    return {
        "kind": "sweep",
        "name": "serve-mixed",
        "base": {
            "platform": platform,
            "benchmark": benchmark,
            "runs": 3,
            "seed": rng.randrange(1, 2**31),
        },
        "axes": [
            {"kind": "grid", "axes": {"num_threads": _THREADS[platform]}},
            {"kind": "grid", "axes": {"runtime": runtimes}},
        ],
        "reps": 8,
    }


def job_sequence(seed: int, length: int = SEQUENCE_LENGTH) -> list[tuple[dict, str]]:
    """``(spec, client id)`` pairs following :data:`BLOCK`; the seed picks
    the fresh specs' seeds, which finished spec a warm job resubmits, and
    the client ids."""
    rng = random.Random(seed)
    issued: list[dict] = []
    out: list[tuple[dict, str]] = []
    while len(out) < length:
        previous = None
        for kind in BLOCK:
            if kind == "dup" and previous == "dup":
                spec = issued[-1]
            elif kind == "warm" and len(issued) > 2:
                # skip the two newest specs, which may still be in flight
                spec = rng.choice(issued[:-2])
            else:
                spec = fresh_spec(len(issued), rng)
                issued.append(spec)
            previous = kind
            out.append((spec, f"user{rng.randrange(USERS)}"))
    return out[:length]


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def local_outputs(spec: dict) -> tuple[str, str]:
    """The spec's records rendered locally (CSV, JSON), never served."""
    result = spec_to_study(validate_spec(spec)).run()
    return result.to_csv_text(), result.to_json_text()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the server process --------------------------------------------------------


class Server:
    """One ``repro-omp serve`` subprocess on a free port.

    With *spans_path*, the server runs under ``e2ebench/serve_traced.py``,
    which wraps the layers' callables and writes its spans there on exit.
    """

    def __init__(self, root: Path, state_dir: Path, spans_path: Path | None = None):
        self.root = root
        self.state_dir = state_dir
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; returns seconds until ``/healthz`` answered."""
        self.state_dir.mkdir(parents=True)
        log_path = self.state_dir.with_suffix(".log")
        serve = ["serve", "--port", "0", "--state-dir", str(self.state_dir)]
        if self.spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = self.root / "e2ebench" / "serve_traced.py"
            argv = [sys.executable, str(launcher), str(self.spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=self.root
            )
        deadline = start + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{log_path.read_text(errors='replace')}"
                )
            if not self.url:
                for line in log_path.read_text(errors="replace").splitlines():
                    if "http://" in line:
                        self.url = line[line.index("http://"):].strip()
            if self.url and self._healthy():
                return time.perf_counter() - start
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy after {timeout:.0f}s")

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(f"{self.url}/healthz", timeout=5) as resp:
                return resp.status == 200
        except OSError:  # refused, reset or timed out: not up yet
            return False

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM) of the server process."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Terminate the server and wait for it to end; kill it if it does
        not.  SIGTERM, not SIGINT: a process started in the background
        inherits SIGINT ignored."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- the load ------------------------------------------------------------------


@dataclass
class Job:
    index: int
    spec: dict
    ok: bool = False
    rejected: bool = False
    ms: float = 0.0
    csv_sha: str = ""
    configs: int = 0
    cached: int = 0
    deduped: bool = False
    reconnects: int = 0
    finished_at: float = 0.0
    error: str = ""


@dataclass
class LoadResult:
    window_s: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    jobs: list[Job] = field(default_factory=list)

    @property
    def done(self) -> list[Job]:
        return [job for job in self.jobs if job.ok]

    def fastest_groups(self, min_jobs: int) -> tuple[list[Job], float]:
        """The jobs of the run's fastest groups of :data:`GROUP_JOBS`
        consecutive completions, as few groups as hold *min_jobs* jobs,
        and the seconds those groups spanned.

        A group spans from the completion that ended the group before it
        (or the window start) to its own last completion.  Groups of
        whole blocks carry the same mix of work, and load from elsewhere
        on the host only ever slows a group down, so the fastest groups
        are the steadiest sample of the service's own speed.
        """
        done = sorted(self.done, key=lambda job: job.finished_at)
        groups: list[tuple[float, list[Job]]] = []
        previous = self.window[0]
        for first in range(0, len(done) - GROUP_JOBS + 1, GROUP_JOBS):
            group = done[first:first + GROUP_JOBS]
            groups.append((group[-1].finished_at - previous, group))
            previous = group[-1].finished_at
        if not groups:  # too few completions for one group
            return done, self.window_s
        jobs: list[Job] = []
        seconds = 0.0
        for span, group in sorted(groups, key=lambda g: g[0]):
            jobs += group
            seconds += span
            if len(jobs) >= min_jobs:
                break
        return jobs, seconds


def _one_job(url: str, index: int, spec: dict, client_id: str, rec: Recorder | None) -> Job:
    job = Job(index=index, spec=spec)
    client = ServiceClient(url, client_id=client_id, timeout=60.0)
    t0 = time.perf_counter()
    try:
        t_submit = time.perf_counter()
        snapshot = client.submit(spec)
        t_wait = time.perf_counter()
        job_id = snapshot["job_id"]
        job.deduped = snapshot.get("dedup_of") is not None
        terminal: dict = {}
        while not terminal:
            for event in client.events(job_id):
                if event["event"] in TERMINAL:
                    terminal = event
                    break
            else:
                # The stream closed before the terminal event reached it.
                # Like an EventSource client, reconnect: the stream replays
                # the job's events from the start.
                job.reconnects += 1
                if job.reconnects > MAX_RECONNECTS:
                    raise ServiceError(f"no terminal event for {job_id}")
                time.sleep(0.001)
        t_records = time.perf_counter()
        if terminal["event"] != "done":
            job.error = f"job {job_id} ended {terminal.get('event')}: {terminal.get('data')}"
            return job
        csv_text = client.records(job_id, "csv")
        t_end = time.perf_counter()
    except (ServiceError, OSError, ValueError, KeyError) as exc:
        job.rejected = "(429)" in str(exc)
        job.error = f"{type(exc).__name__}: {exc}"
        return job
    job.ms = (t_end - t0) * 1e3
    job.finished_at = t_end
    job.csv_sha = sha(csv_text)
    job.configs = terminal["data"]["total"]
    job.cached = terminal["data"]["cached"]
    job.ok = True
    if rec is not None:
        for name, lo, hi in (
            ("serve.submit", t_submit, t_wait),
            ("serve.wait", t_wait, t_records),
            ("serve.records", t_records, t_end),
        ):
            rec.record(name, lo, hi, job_id)
    return job


def drive(
    url: str,
    sequence: list[tuple[dict, str]],
    seconds: float,
    min_jobs: int,
    rec: Recorder | None = None,
) -> LoadResult:
    """Run the closed loop until *seconds* have passed and at least
    *min_jobs* jobs were attempted, or the sequence or :data:`HARD_CAP_S`
    runs out."""
    out = LoadResult()
    lock = threading.Lock()
    cursor = iter(enumerate(sequence))
    start = time.perf_counter()

    def caller() -> None:
        while True:
            with lock:
                elapsed = time.perf_counter() - start
                if elapsed >= HARD_CAP_S or (
                    elapsed >= seconds and len(out.jobs) >= min_jobs
                ):
                    return
                entry = next(cursor, None)
            if entry is None:
                return
            index, (spec, client_id) = entry
            job = _one_job(url, index, spec, client_id, rec)
            with lock:
                out.jobs.append(job)

    threads = [threading.Thread(target=caller) for _ in range(CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    out.window = (start, end)
    out.window_s = end - start
    out.jobs.sort(key=lambda job: job.index)
    return out


def failed_jobs(
    result: LoadResult,
    sequence: list[tuple[dict, str]],
    reference: list[str] | None,
) -> tuple[int, list[str]]:
    """Jobs that failed, or whose served CSV differs from a local render
    of the same spec.  With a committed *reference* (the default seed),
    the local JSON exports of the sequence's first distinct specs must
    also hash to it, or every job of that spec counts as failed.  Runs
    outside the timed window."""
    problems = [f"job {job.index}: {job.error}" for job in result.jobs if not job.ok]
    failed = len(problems)
    by_spec: dict[str, list[Job]] = {}
    for job in result.done:
        by_spec.setdefault(spec_key(job.spec), []).append(job)
    rendered: dict[str, tuple[str, str]] = {}

    def local(spec: dict) -> tuple[str, str]:
        key = spec_key(spec)
        if key not in rendered:
            rendered[key] = local_outputs(spec)
        return rendered[key]

    for key, jobs in by_spec.items():
        csv_text, _json_text = local(jobs[0].spec)
        for job in jobs:
            if job.csv_sha != sha(csv_text):
                failed += 1
                problems.append(f"job {job.index}: served CSV differs from the local render")
    if reference is not None:
        specs = distinct_specs(sequence, len(reference))
        for spec, expected in zip(specs, reference):
            if sha(local(spec)[1]) != expected:
                jobs = by_spec.get(spec_key(spec), [])
                failed += max(1, len(jobs))
                problems.append(f"spec {spec_key(spec)}: export differs from the reference")
    return failed, problems


def distinct_specs(sequence: list[tuple[dict, str]], count: int) -> list[dict]:
    """The first *count* distinct specs of *sequence*, in order."""
    seen: dict[str, dict] = {}
    for spec, _client in sequence:
        seen.setdefault(spec_key(spec), spec)
        if len(seen) == count:
            break
    return list(seen.values())
