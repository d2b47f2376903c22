"""DVFS model: per-core frequency traces for a simulation window.

:class:`FrequencyModel` combines the platform's :class:`FrequencySpec`
(p-state envelope, boost table, jitter, dip process) with a governor and
the set of active CPUs to produce a :class:`FrequencyPlan` — one
:class:`~repro.sim.trace.PiecewiseConstant` trace per logical CPU.

The plan answers the two questions the rest of the simulator asks:

* *execution*: how long does cpu *c* need to retire *W* cycles from time
  *t*  (:meth:`FrequencyPlan.duration_for_cycles`), and
* *observation*: what frequency would the sysfs logger read at time *t*
  (:meth:`FrequencyPlan.freq_at`, :meth:`FrequencyPlan.snapshot`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from repro.errors import FrequencyError
from repro.freq.governor import Governor
from repro.freq.power import BoostTable
from repro.freq.variation import DerateProcess, DipProcess, FrequencyDip
from repro.sim.trace import PiecewiseConstant
from repro.topology.hwthread import Machine


@dataclass(frozen=True)
class FrequencySpec:
    """Static frequency behaviour of a platform.

    Attributes
    ----------
    min_hz / base_hz:
        Lowest p-state and nominal (guaranteed) frequency.
    boost:
        Turbo license table (active cores -> sustainable frequency).
    pstate_step_hz:
        Frequency quantization step (traces snap to this grid, like real
        p-states; Intel uses 100 MHz bins).
    jitter_amplitude:
        Relative half-width of benign per-core frequency wobble (e.g. 0.004
        = ±0.4%); models measurement/board-level variation.
    jitter_rate:
        Poisson rate (per second per core) of wobble re-draws.
    dips:
        Transient dip process (see :mod:`repro.freq.variation`).
    """

    min_hz: float
    base_hz: float
    boost: BoostTable
    pstate_step_hz: float = 25e6
    jitter_amplitude: float = 0.0
    jitter_rate: float = 0.0
    dips: DipProcess = field(default_factory=DipProcess)
    derate: DerateProcess = field(default_factory=DerateProcess)

    def __post_init__(self) -> None:
        if not 0 < self.min_hz <= self.base_hz:
            raise FrequencyError("need 0 < min_hz <= base_hz")
        if self.base_hz > self.boost.single_core_boost + 1e-6:
            raise FrequencyError("base frequency above single-core boost")
        if self.pstate_step_hz <= 0:
            raise FrequencyError("pstate step must be positive")
        if self.jitter_amplitude < 0 or self.jitter_rate < 0:
            raise FrequencyError("jitter parameters must be non-negative")

    @property
    def calibration_hz(self) -> float:
        """Frequency of a lone busy core — what delay-loop calibration sees."""
        return self.boost.single_core_boost


class FrequencyPlan:
    """Per-CPU frequency traces over one run window."""

    def __init__(
        self,
        machine: Machine,
        traces: Mapping[int, PiecewiseConstant],
        window_start: float,
        calibration_hz: float,
        dips: Sequence[FrequencyDip] = (),
    ):
        if set(traces) != set(range(machine.n_cpus)):
            raise FrequencyError("plan must cover every cpu exactly once")
        self.machine = machine
        self.traces = dict(traces)
        self.window_start = float(window_start)
        self.calibration_hz = float(calibration_hz)
        self.dips = tuple(dips)

    def trace(self, cpu: int) -> PiecewiseConstant:
        return self.traces[cpu]

    def freq_at(self, cpu: int, t: float) -> float:
        return float(self.traces[cpu].value_at(t))

    def duration_for_cycles(self, cpu: int, start: float, cycles: float) -> float:
        """Seconds needed for *cpu* to retire *cycles* starting at *start*."""
        if cycles < 0:
            raise FrequencyError(f"negative cycle count {cycles}")
        if cycles == 0:
            return 0.0
        end = self.traces[cpu].invert_integral(start, cycles)
        return end - start

    def cycles_in(self, cpu: int, start: float, end: float) -> float:
        """Cycles retired by *cpu* over ``[start, end]``."""
        return self.traces[cpu].integrate(start, end)

    def snapshot(self, t: float) -> np.ndarray:
        """Frequencies (Hz) of all CPUs at time *t*, indexed by cpu id."""
        return np.asarray(
            [self.traces[c].value_at(t) for c in range(self.machine.n_cpus)]
        )

    def mean_freq(self, cpu: int, start: float, end: float) -> float:
        return self.traces[cpu].mean(start, end)


class FrequencyPlanBatch:
    """Padded rep-axis view over ``R`` runs' plans for a fixed cpu list.

    Rows are ``(run, cpu)`` pairs in run-major order.  Each row's trace is
    padded to the widest trace with ``+inf`` breakpoints, so the padded
    segment lookup ``sum(times <= t) - 1`` lands on exactly the segment
    the scalar ``bisect_right`` fast path (:meth:`PiecewiseConstant._seg_idx`)
    would pick.  The batched queries keep :class:`FrequencyPlan`'s scalar
    methods as the byte-identity reference: :meth:`duration_for_cycles_fused`
    resolves only queries answered within their first segment (the common
    case for collapsed traces) and reports the rest for scalar fallback.
    """

    __slots__ = ("plans", "cpus", "times", "values")

    def __init__(self, plans: Sequence[FrequencyPlan], cpus: Sequence[int]):
        self.plans = tuple(plans)
        self.cpus = tuple(int(c) for c in cpus)
        traces = [p.traces[c] for p in self.plans for c in self.cpus]
        width = max(len(t) for t in traces)
        # one extra +inf column: segment ends read at idx + 1 stay in bounds
        times = np.full((len(traces), width + 1), np.inf)
        values = np.ones((len(traces), width))
        for k, tr in enumerate(traces):
            times[k, : len(tr)] = tr.times
            values[k, : len(tr)] = tr.values
        self.times = times
        self.values = values

    @property
    def calibration_hz(self) -> float:
        return self.plans[0].calibration_hz

    def _segment_index(self, flat_t: np.ndarray) -> np.ndarray:
        idx = np.sum(self.times[:, :-1] <= flat_t[:, None], axis=1) - 1
        if np.any(idx < 0):
            raise FrequencyError(
                f"batched query before trace start: min t = {np.min(flat_t)}"
            )
        return idx

    def freq_at_fused(self, t: np.ndarray) -> np.ndarray:
        """``plans[r].freq_at(cpus[i], t[r, i])`` for every row, bit-identical."""
        t = np.asarray(t, dtype=np.float64)
        flat = t.reshape(-1)
        idx = self._segment_index(flat)
        return self.values[np.arange(flat.size), idx].reshape(t.shape)

    def duration_for_cycles_fused(
        self, start: np.ndarray, cycles: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`FrequencyPlan.duration_for_cycles` first-segment pass.

        Returns ``(durations, resolved)``; entries with ``resolved`` False
        need more than one trace segment and must be re-answered by the
        scalar reference.  Resolved entries reproduce the scalar arithmetic
        exactly: ``end = start + cycles / v`` then ``end - start``.
        """
        start = np.asarray(start, dtype=np.float64)
        cycles = np.asarray(cycles, dtype=np.float64)
        flat_s = start.reshape(-1)
        flat_c = cycles.reshape(-1)
        rows = np.arange(flat_s.size)
        idx = self._segment_index(flat_s)
        v = self.values[rows, idx]
        seg_end = self.times[rows, idx + 1]
        capacity = v * (seg_end - flat_s)
        resolved = flat_c <= capacity
        end = flat_s + flat_c / v
        durations = end - flat_s
        return durations.reshape(start.shape), resolved.reshape(start.shape)

    def duration_for_cycles_scalar(
        self, run: int, col: int, start: float, cycles: float
    ) -> float:
        """Scalar-reference fallback for one unresolved ``(run, cpu)`` entry."""
        return self.plans[run].duration_for_cycles(self.cpus[col], start, cycles)


class FrequencyModel:
    """Builds :class:`FrequencyPlan` instances for run windows."""

    def __init__(self, machine: Machine, spec: FrequencySpec):
        self.machine = machine
        self.spec = spec

    # -- helpers -----------------------------------------------------------

    def _quantize(self, hz: np.ndarray | float) -> np.ndarray | float:
        step = self.spec.pstate_step_hz
        return np.maximum(self.spec.min_hz, np.round(np.asarray(hz) / step) * step)

    def steady_target(
        self, governor: Governor, active_cores: int, busy: bool
    ) -> float:
        """Steady-state target of one core under *governor*."""
        limit = self.spec.boost.freq_for(max(1, active_cores))
        utilization = 1.0 if busy else 0.0
        return float(
            self._quantize(governor.target_freq(self.spec.min_hz, limit, utilization))
        )

    # -- plan construction ---------------------------------------------------

    def plan(
        self,
        window_start: float,
        window_end: float,
        active_cpus: Sequence[int],
        governor: Governor,
        rng: np.random.Generator,
        machine_wide: bool = False,
    ) -> FrequencyPlan:
        """Generate traces for ``[window_start, window_end)``.

        *active_cpus* are the CPUs hosting benchmark threads; they determine
        the boost limit (via distinct active cores) and whether the dip
        process runs in cross-NUMA mode.  Traces extend past *window_end*
        (the last segment holds), so queries slightly beyond the horizon are
        safe.

        *machine_wide* realizes the plan's stochastic triggers for the whole
        machine rather than just the sockets currently hosting work: dips
        and derate episodes are sampled on every socket, every CPU gets the
        busy steady-state target, and the dip process runs in cross-NUMA
        mode whenever the machine spans more than one NUMA domain.  Used
        for unbound teams, whose placement migrates during the run — the
        boost *limit* still follows the team's active-core count, but the
        triggers must not be anchored to the initial placement.
        """
        if window_end <= window_start:
            raise FrequencyError("empty frequency window")
        machine, spec = self.machine, self.spec
        active = list(dict.fromkeys(active_cpus))
        active_cores = machine.cores_spanned(active) if active else 0
        if machine_wide:
            cross_numa = np.unique(machine.numa_ids_array()).size > 1
            busy = np.ones(machine.n_cpus, dtype=bool)
        else:
            cross_numa = machine.numa_span(active) > 1 if active else False
            busy = np.zeros(machine.n_cpus, dtype=bool)
            busy[active] = True

        if machine_wide:
            socket_ids = tuple(s.socket_id for s in machine.sockets)
        else:
            socket_ids = tuple(
                sorted({machine.hwthread(c).socket_id for c in active})
            ) or tuple(s.socket_id for s in machine.sockets)
        occupancy = (active_cores / machine.n_cores) if active else None
        dips = spec.dips.sample(
            window_start, window_end, socket_ids, cross_numa, rng,
            occupancy=occupancy,
        )
        dips_by_socket: dict[int, list[FrequencyDip]] = {}
        for dip in dips:
            dips_by_socket.setdefault(dip.socket_id, []).append(dip)

        # run-scale derate episodes (one draw per socket hosting work)
        load = active_cores / machine.n_cores
        derate_by_socket = {
            s: spec.derate.sample_factor(load, rng) for s in socket_ids
        }

        traces = self._build_traces(
            window_start, window_end - window_start, active_cores,
            busy, dips_by_socket, derate_by_socket, governor, rng,
        )
        return FrequencyPlan(
            machine,
            traces,
            window_start,
            calibration_hz=spec.calibration_hz,
            dips=dips,
        )

    def _build_traces(
        self,
        window_start: float,
        horizon: float,
        active_cores: int,
        busy: np.ndarray,
        dips_by_socket: Mapping[int, Sequence[FrequencyDip]],
        derate_by_socket: Mapping[int, float],
        governor: Governor,
        rng: np.random.Generator,
    ) -> dict[int, PiecewiseConstant]:
        """One trace per cpu: breakpoints at the window start, the jitter
        re-draws and the cpu's socket's dip edges.

        Only the draws run per cpu, in cpu-id order, as the RNG draw-order
        contract requires: ``poisson`` (re-draw count), ``random(n_jit)``
        (re-draw times), then ``uniform`` (one jitter factor per distinct
        breakpoint).  Everything deterministic — steady targets, derate
        factors, per-socket dip edges, the dip minima, quantization and the
        collapse of equal neighbours — runs once, over the concatenation
        of all cpus' segments.
        """
        machine, spec = self.machine, self.spec
        n_cpus = machine.n_cpus
        socket_of = machine.socket_ids_array()
        derate = np.array(
            [derate_by_socket.get(s, 1.0) for s in range(machine.n_sockets)]
        )
        base = np.where(
            busy,
            self.steady_target(governor, active_cores, True),
            self.steady_target(governor, active_cores, False),
        ) * derate[socket_of]

        # per-socket breakpoints without jitter: the window start and dip edges
        fixed_by_socket: dict[int, set[float]] = {}
        for s in range(machine.n_sockets):
            times = [window_start]
            for dip in dips_by_socket.get(s, ()):
                times += (dip.start, dip.start + dip.duration)
            fixed_by_socket[s] = {round(t, 12) for t in times if t >= window_start}
        sorted_fixed = {s: sorted(ts) for s, ts in fixed_by_socket.items()}

        # the draws, in cpu-id order
        amplitude = spec.jitter_amplitude
        n_expected = spec.jitter_rate * horizon
        t_parts: list[list[float]] = []
        jitter_parts: list[np.ndarray] = []
        for s in socket_of.tolist():
            times = sorted_fixed[s]
            if spec.jitter_rate > 0:
                n_jit = int(rng.poisson(n_expected))
                if n_jit:
                    redraws = (window_start + rng.random(n_jit) * horizon).tolist()
                    times = sorted(
                        fixed_by_socket[s].union(
                            round(t, 12) for t in redraws if t >= window_start
                        )
                    )
            t_parts.append(times)
            if amplitude > 0:
                jitter_parts.append(rng.uniform(-amplitude, amplitude, size=len(times)))

        # deterministic math over every cpu's segments at once
        lengths = np.fromiter(map(len, t_parts), dtype=np.int64, count=n_cpus)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        total = int(ends[-1])
        t_all = np.fromiter(chain.from_iterable(t_parts), dtype=np.float64, count=total)
        if amplitude > 0:
            jitter = 1.0 + np.concatenate(jitter_parts)
        else:
            jitter = np.ones(total)
        seg_base = np.repeat(base, lengths)
        values = seg_base * jitter
        # apply dips: segment value scaled by deepest overlapping dip
        if dips_by_socket:
            seg_socket = np.repeat(socket_of, lengths)
            for s, dips in dips_by_socket.items():
                idx = np.flatnonzero(seg_socket == s)
                t_s = t_all[idx]
                for dip in dips:
                    lo, hi = dip.start, dip.start + dip.duration
                    sel = idx[(t_s >= lo - 1e-12) & (t_s < hi - 1e-12)]
                    values[sel] = np.minimum(
                        values[sel], seg_base[sel] * jitter[sel] * dip.depth
                    )
        values = np.asarray(self._quantize(values), dtype=np.float64)

        # collapse equal consecutive values within each cpu's trace
        keep = np.ones(total, dtype=bool)
        keep[1:] = values[1:] != values[:-1]
        keep[starts] = True
        t_kept, v_kept = t_all[keep], values[keep]
        b = [0, *np.cumsum(keep)[ends - 1].tolist()]  # kept-segment bounds per cpu
        return {
            cpu: PiecewiseConstant(t_kept[b[cpu]:b[cpu + 1]], v_kept[b[cpu]:b[cpu + 1]])
            for cpu in range(n_cpus)
        }
