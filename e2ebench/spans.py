"""Span recording and run-time call wrappers for the traced benchmark run.

The traced run times calls into each layer's public functions without
editing the program: :func:`instrument` replaces each callable with a
timing wrapper *where its caller looks it up* (a class attribute for a
method, a module attribute for a function imported lazily or by module
global), and restores the originals on exit.  Untraced runs never enter
:func:`instrument`, so they execute the program's own callables.

Spans live in memory (:class:`Recorder`) until the run ends; the
arithmetic that turns them into per-layer numbers (inclusive time, self
time = duration minus child coverage, wall time outside every span) is
in :func:`layer_times` and :func:`outside`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

class Recorder:
    """In-memory spans and counters, shared by every thread of a process.

    A span is ``[name, start, end, parent, op]``: perf-counter seconds,
    the index of the span that was open on the same thread when it began
    (``None`` at top level), and an operation id (a config cache key or a
    job id) shared by the spans of one operation.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> str | None:
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: str | None) -> None:
        self._local.op = value

    def parent_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float, op: str | None) -> None:
        """Add a finished top-level span timed by the caller."""
        with self._lock:
            self.spans.append([name, start, end, None, op])

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def dump(self, path: Path) -> None:
        closed = [s for s in self.spans if s[2] is not None]
        path.write_text(json.dumps({"spans": closed, "counts": dict(self.counts)}))

    @classmethod
    def load(cls, path: Path) -> "Recorder":
        payload = json.loads(path.read_text())
        rec = cls()
        rec.spans = payload["spans"]
        rec.counts.update(payload["counts"])
        return rec


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_times(spans: list[list[Any]]) -> dict[str, tuple[float, float]]:
    """Per span name: (inclusive seconds, self seconds).

    Inclusive time skips spans nested in a span of the same name, so a
    recursive call is not counted twice.  Self time is each span's
    duration minus the part of it its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list[float]] = {}
    for index, (name, start, end, parent, _op) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0.0])
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            acc[0] += end - start
        acc[1] += (end - start) - covered(children.get(index, []), start, end)
    return {name: (incl, self_) for name, (incl, self_) in out.items()}


def outside(spans: list[list[Any]], lo: float, hi: float) -> float:
    """Seconds of the window ``[lo, hi]`` in which no span was open."""
    return (hi - lo) - covered([(s[1], s[2]) for s in spans], lo, hi)


# -- wrappers -----------------------------------------------------------------


class _Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, own, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def _timed(
    rec: Recorder,
    name: str | Callable[..., str],
    *,
    op: Callable[..., str] | None = None,
    after: Callable[[tuple, Any], None] | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if op is not None:
                rec.op = op(*args, **kwargs)
            index = rec.begin(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    return make


def _plan(rec: Recorder) -> list[tuple[Any, str, Callable[..., Any]]]:
    """``(owner, attribute, wrapper factory)`` for every wrapped callable."""
    from repro.bench.babelstream import BabelStream
    from repro.bench.epcc.schedbench import Schedbench
    from repro.bench.epcc.syncbench import Syncbench
    from repro.freq.dvfs import FrequencyModel
    from repro.harness import results
    from repro.harness.cache import ResultCache, cache_key
    from repro.harness.runner import Runner
    from repro.harness.study import Study, StudyResult
    from repro.omp.runtime import OpenMPRuntime
    from repro.omp.tasking.scheduler import WorkStealingScheduler
    from repro.osnoise.model import NoiseModel
    from repro.sim import fused

    def study_op(self: Any, *_a: Any, **_k: Any) -> str:
        return f"study:{self.name}"

    def result_op(self: Any, *_a: Any, **_k: Any) -> str:
        return f"study:{self.study.name}"

    def config_op(_self: Any, config: Any, *_a: Any, **_k: Any) -> str:
        return cache_key(config)

    def put_op(_self: Any, result: Any) -> str:
        return cache_key(result.config)

    def counter(name: str) -> Callable[[tuple, Any], None]:
        return lambda _args, _result: rec.count(name)

    def fused_name(runner: Any) -> str:
        return f"fused.{runner.config.benchmark}"

    def on_task_run(_args: tuple, stats: Any) -> None:
        rec.count("tasking.events", stats.events_executed)
        rec.count("tasking.steals", stats.total_steals)
        rec.count("tasking.failed_steals", stats.total_failed_steals)

    def on_get(_args: tuple, hit: Any) -> None:
        rec.count("cache.misses" if hit is None else "cache.hits")

    def on_put(_args: tuple, path: Any) -> None:
        rec.count("cache.stores")
        rec.count("cache.bytes_written", path.stat().st_size)

    def ineligibility(original: Callable[..., Any]) -> Callable[..., Any]:
        # counts the backends' routing decisions; run_fused's own re-check
        # of a config already routed to it is not a second decision
        def wrapper(config: Any) -> Any:
            reason = original(config)
            if not (rec.parent_name() or "").startswith("fused."):
                verdict = "eligible" if reason is None else "ineligible"
                rec.count(f"fused.{verdict}")
                rec.count(f"fused.{config.benchmark}.{verdict}")
            return reason

        return wrapper

    return [
        (Study, "configs", _timed(rec, "study.configs", op=study_op)),
        (StudyResult, "to_csv_text", _timed(rec, "study.render", op=result_op)),
        (StudyResult, "to_json_text", _timed(rec, "study.render", op=result_op)),
        (results, "summarize", _timed(rec, "stats.summarize")),
        (Runner, "__init__", _timed(
            rec, "runner.init", op=config_op, after=counter("runner.inits"))),
        (OpenMPRuntime, "start_run", _timed(
            rec, "runtime.start_run", after=counter("runtime.start_runs"))),
        (FrequencyModel, "plan", _timed(rec, "freq.plan")),
        (NoiseModel, "realize", _timed(rec, "osnoise.realize")),
        (Syncbench, "measure", _timed(rec, "bench.syncbench")),
        (Schedbench, "measure", _timed(rec, "bench.schedbench")),
        (BabelStream, "run", _timed(rec, "bench.babelstream")),
        # the execution backends import these lazily from the module, so
        # the wrappers go on the module attributes
        (fused, "run_fused", _timed(
            rec, fused_name, after=counter("fused.configs"))),
        (fused, "fused_ineligibility", ineligibility),
        (WorkStealingScheduler, "run", _timed(
            rec, "tasking.run", after=on_task_run)),
        (ResultCache, "get", _timed(rec, "cache.get", op=config_op, after=on_get)),
        (ResultCache, "put", _timed(rec, "cache.put", op=put_op, after=on_put)),
    ]


def targets() -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` :func:`instrument` replaces."""
    return [(owner, attr) for owner, attr, _make in _plan(Recorder())]


@contextmanager
def instrument(rec: Recorder) -> Iterator[None]:
    """Install timing wrappers around each layer's public callables for
    the duration of the block; the originals are restored on exit, even
    when the block raises."""
    patches = _Patches()
    try:
        for owner, attr, make in _plan(rec):
            patches.wrap(owner, attr, make)
        yield
    finally:
        patches.restore()
