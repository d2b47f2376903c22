"""The cold-study workloads: ``paper-cold`` and ``tasking-cold``.

A *round* runs every study of the workload through ``Study.run`` into a
fresh result cache (so every config simulates and the cache is only
written, apart from the few configs a study shares with an earlier study
of the round, which replay from it) and renders each result with ``StudyResult.to_json_text``, the
export a user reproducing the paper keeps.  A run measures whole rounds
until its time is up, so every round does the same work and the
per-config timing distribution is not cut mid-round.

Execution uses the CLI defaults, ``jobs=1`` and ``fused="auto"``: the
backend that ``Study.run(jobs=1, fused="auto")`` builds, a
:class:`~repro.harness.backend.FusedBackend` in ``auto`` mode.  A *job*
on these workloads is one config of a study: the unit a single-config
service job answers, timed by the wall time the backend itself reports
for it.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.backend import FusedBackend
from repro.harness.cache import ResultCache
from repro.harness.experiments import get_experiment
from repro.harness.study import Study

#: The registry's region-based studies: syncbench/schedbench/babelstream
#: on Dardel and Vera, pinned and unpinned, ST/MT, gnu/llvm.
PAPER_STUDIES = (
    "table2", "figure1", "figure2", "figure3", "figure4", "figure5",
    "figure6", "figure7", "runtime_compare",
)

#: Repetition knobs per workload, small enough for several rounds per
#: run.  For paper-cold they keep every benchmark kind under about half
#: of host time (measured on a 2-vCPU Xeon VM: syncbench 44%,
#: babelstream 29%, schedbench 23%); ``runs=2`` is the least that
#: ``fused="auto"`` fuses.
KNOBS = {
    "paper-cold": {"runs": 2, "outer_reps": 8, "num_times": 3},
    "tasking-cold": {"runs": 2, "outer_reps": 8},
}

STUDIES = {"paper-cold": PAPER_STUDIES, "tasking-cold": ("figure8",)}


def build_studies(workload: str, seed: int) -> list[Study]:
    """The workload's studies, with the workload seed as the configs' seed."""
    return [
        get_experiment(name).build_study(seed=seed, **KNOBS[workload])
        for name in STUDIES[workload]
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _TimedBackend(FusedBackend):
    """``FusedBackend("auto")`` that keeps the per-config wall times it
    reports to the sweep, and counts the runs it simulates."""

    def __init__(self) -> None:
        super().__init__("auto")
        self.walls: list[float] = []
        self.runs = 0

    def execute(self, pending, metrics=None):
        out = super().execute(pending, metrics)
        self.walls.extend(wall for _result, wall in out)
        self.runs += sum(cfg.runs for cfg, _key in pending)
        return out


@dataclass
class RoundsResult:
    """What one measurement window of cold rounds produced."""

    window_s: float = 0.0
    rounds: int = 0
    #: configs attempted, including the few a study shares with an
    #: earlier study of the round, which replay from the round's cache
    attempted: int = 0
    #: benchmark runs simulated
    runs: int = 0
    #: per simulated config (a job): the backend's wall seconds
    job_walls_s: list[float] = field(default_factory=list)
    #: per round: study name -> sha256 of its JSON export (None = raised)
    digests: list[dict[str, str | None]] = field(default_factory=list)
    configs: dict[str, int] = field(default_factory=dict)
    #: per round: its wall seconds, and the backend's wall seconds per
    #: simulated config, in execution order (the same order every round)
    round_walls: list[tuple[float, list[float]]] = field(default_factory=list)

    def fastest_config_walls(self) -> list[float]:
        """Each config's fastest wall seconds over the run's rounds.
        Every round repeats the same work, and load from elsewhere on the
        host only ever slows a piece of work down, so the fastest sample
        of each piece is the steadiest."""
        per_config = zip(*(walls for _total, walls in self.round_walls))
        return [min(samples) for samples in per_config]

    def round_seconds(self) -> float:
        """A round's host time: each config's fastest simulation plus the
        fastest round's time outside simulation."""
        outside = min(total - sum(walls) for total, walls in self.round_walls)
        return sum(self.fastest_config_walls()) + outside

    def fastest_rounds_walls(self, min_jobs: int) -> list[float]:
        """The per-config walls of the run's fastest rounds, as few rounds
        as hold *min_jobs* jobs: the steadiest sample of a percentile
        that needs more samples than a round has configs."""
        walls: list[float] = []
        for _total, round_walls in sorted(self.round_walls, key=lambda rw: rw[0]):
            walls += round_walls
            if len(walls) >= min_jobs:
                break
        return walls


def run_rounds(
    studies: list[Study],
    workdir: Path,
    seconds: float,
    min_jobs: int,
) -> RoundsResult:
    """Run whole cold rounds until *seconds* have passed and at least
    *min_jobs* configs have simulated."""
    out = RoundsResult(configs={s.name: len(s.configs()) for s in studies})
    backend = _TimedBackend()
    start = time.perf_counter()
    while True:
        cache = ResultCache(workdir / f"cache-{out.rounds}")
        round_digests: dict[str, str | None] = {}
        first_wall = len(backend.walls)
        t_round = time.perf_counter()
        for study in studies:
            try:
                result = study.run(cache=cache, backend=backend)
                round_digests[study.name] = digest(result.to_json_text())
            except Exception:  # noqa: BLE001 - a failed study is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                round_digests[study.name] = None
            out.attempted += out.configs[study.name]
        out.round_walls.append(
            (time.perf_counter() - t_round, backend.walls[first_wall:])
        )
        out.digests.append(round_digests)
        out.rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(backend.walls) >= min_jobs:
            break
    out.window_s = elapsed
    out.job_walls_s = backend.walls
    out.runs = backend.runs
    return out


def failed_jobs(
    result: RoundsResult, reference: dict[str, str] | None
) -> tuple[int, list[str]]:
    """Configs whose study output failed a check, and why.

    Every round of a study must render the same bytes (the simulation is
    a pure function of config and seed); with a committed *reference*
    (the default seed), those bytes must also hash to it.
    """
    failed = 0
    problems: list[str] = []
    for name, n_configs in result.configs.items():
        seen = [digests[name] for digests in result.digests]
        expected = reference.get(name) if reference is not None else seen[0]
        for round_index, value in enumerate(seen):
            if value is None or value != expected:
                failed += n_configs
                problems.append(
                    f"{name} round {round_index}: digest {value} != {expected}"
                )
    return failed, problems


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """The set-up a cold study run does before its first operation:
    imports (already done by importing this module), the cache
    directory and study expansion."""
    ResultCache(workdir)
    for study in build_studies(workload, seed):
        study.configs()
