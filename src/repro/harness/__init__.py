"""Experiment harness.

Turns configurations into results:

* :class:`~repro.harness.config.ExperimentConfig` — one benchmark launch
  configuration (platform, threads, binding, repetitions, seed);
* :class:`~repro.harness.runner.Runner` — executes N independent runs,
  optionally with the frequency logger on a spare core;
* :class:`~repro.harness.parallel.Sweep` — fan the runs of many configs
  out over a pluggable execution backend, bit-identical to serial
  execution;
* :mod:`repro.harness.backend` — the execution backends (serial or
  process pool, picked by the job count; one shard of a distributed
  partition);
* :mod:`repro.harness.shard` — shard manifests and the gather step that
  assembles a sharded run into one study result;
* :class:`~repro.harness.study.Study` /
  :class:`~repro.harness.study.StudyResult` — declarative sweep specs
  (grid/zip/cases axes, derived fields, filters) executed through one
  ``Sweep``, with tidy long-form records and CSV/JSON export;
* :class:`~repro.harness.cache.ResultCache` — on-disk result cache keyed
  by config + seed + code version;
* :mod:`repro.harness.results` — result containers with JSON round-trip;
* :mod:`repro.harness.freqlogger` — the simulated background frequency
  logger (a :mod:`repro.sim` process sampling the simulated sysfs);
* :mod:`repro.harness.report` — ASCII tables and series renderers;
* :mod:`repro.harness.experiments` — one driver per paper table/figure.
"""

from repro.harness.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ShardedBackend,
    parse_shard,
    select_backend,
    shard_index_of,
)
from repro.harness.cache import ResultCache, cache_key
from repro.harness.config import ExperimentConfig
from repro.harness.freqlogger import FrequencyLog, FrequencyLogger
from repro.harness.parallel import Sweep
from repro.harness.results import ExperimentResult, RunRecord
from repro.harness.runner import Runner
from repro.harness.shard import ReplayCache, ShardRunComplete, ShardSummary
from repro.harness.study import Study, StudyResult
from repro.harness import experiments
from repro.harness import report

__all__ = [
    "ExperimentConfig",
    "Runner",
    "Sweep",
    "Study",
    "StudyResult",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ShardedBackend",
    "ShardRunComplete",
    "ShardSummary",
    "ReplayCache",
    "parse_shard",
    "select_backend",
    "shard_index_of",
    "ResultCache",
    "cache_key",
    "RunRecord",
    "ExperimentResult",
    "FrequencyLogger",
    "FrequencyLog",
    "experiments",
    "report",
]
