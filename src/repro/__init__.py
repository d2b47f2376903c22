"""repro — reproduction of "Analysis and Characterization of Performance
Variability for OpenMP Runtime" (SC-W 2023, arXiv:2311.05267).

The library simulates a multicore NUMA node (topology, DVFS, OS noise,
scheduler, memory system), models an OpenMP runtime on top of it, re-implements
the paper's benchmarks (EPCC syncbench/schedbench, BabelStream), and provides
a statistics + harness layer that regenerates every table and figure of the
paper's evaluation.

Quickstart
----------
>>> from repro import experiments
>>> result = experiments.figure1(platform="vera", runs=3, outer_reps=10, seed=1)
>>> print(result.render())                                    # doctest: +SKIP

Declare a custom sweep without writing a driver (see docs/study.md)::

>>> from repro import ExperimentConfig, Study
>>> res = (Study(ExperimentConfig(benchmark="syncbench", runs=3))
...        .grid(num_threads=[4, 8], runtime=["gnu", "llvm"])
...        .run(jobs=0))                                      # doctest: +SKIP
>>> res.group_summaries("num_threads")                        # doctest: +SKIP
"""

#: Bumped to 1.2.0 by the runtime-vendor subsystem: `ExperimentConfig` grew
#: ``runtime`` / ``wait_policy`` fields (part of the cache key), so every
#: pre-1.2 cache entry is invalidated rather than replayed against the new
#: semantics.
__version__ = "1.2.0"

# Public API is re-exported lazily to keep `import repro` cheap and to avoid
# import cycles while subpackages are loaded on demand.
_LAZY_ATTRS = {
    "Machine": ("repro.topology", "Machine"),
    "CpuSet": ("repro.topology", "CpuSet"),
    "TopologyBuilder": ("repro.topology", "TopologyBuilder"),
    "dardel_topology": ("repro.topology", "dardel_topology"),
    "vera_topology": ("repro.topology", "vera_topology"),
    "Platform": ("repro.platform", "Platform"),
    "dardel": ("repro.platform", "dardel"),
    "vera": ("repro.platform", "vera"),
    "get_platform": ("repro.platform", "get_platform"),
    "RngFactory": ("repro.rng", "RngFactory"),
    "OMPEnvironment": ("repro.omp", "OMPEnvironment"),
    "OpenMPRuntime": ("repro.omp", "OpenMPRuntime"),
    "RuntimeProfile": ("repro.omp", "RuntimeProfile"),
    "WaitPolicy": ("repro.omp", "WaitPolicy"),
    "get_runtime_profile": ("repro.omp", "get_runtime_profile"),
    "available_runtimes": ("repro.omp", "available_runtimes"),
    "Task": ("repro.omp.tasking", "Task"),
    "TaskCostParams": ("repro.omp.tasking", "TaskCostParams"),
    "WorkStealingScheduler": ("repro.omp.tasking", "WorkStealingScheduler"),
    "ExperimentConfig": ("repro.harness", "ExperimentConfig"),
    "Runner": ("repro.harness", "Runner"),
    "Sweep": ("repro.harness", "Sweep"),
    "Study": ("repro.harness", "Study"),
    "StudyResult": ("repro.harness", "StudyResult"),
    "ResultCache": ("repro.harness", "ResultCache"),
    "experiments": ("repro.harness", "experiments"),
    "SMTMode": ("repro.types", "SMTMode"),
    "ProcBind": ("repro.types", "ProcBind"),
    "ScheduleKind": ("repro.types", "ScheduleKind"),
    "SyncConstruct": ("repro.types", "SyncConstruct"),
    "StreamKernel": ("repro.types", "StreamKernel"),
}

__all__ = ["__version__", *sorted(_LAZY_ATTRS)]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value  # cache for next access
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_ATTRS))
