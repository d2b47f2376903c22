"""BabelStream (modelled): memory-bandwidth vector kernels.

The real benchmark allocates three arrays of ``2^25`` doubles and times
``num_times`` iterations of copy / mul / add / triad / dot, reporting the
min/avg/max time per kernel.  The paper normalizes min and max to the
average and compares across 10 runs (Figures 2, 3, 4c/4f, 5c/5f).

The modelled kernel time comes from the platform's NUMA bandwidth solver
(first-touch page placement, per-core link limits, remote-path penalties,
SMT link sharing), plus:

* OS noise in MAX mode (each kernel ends at a barrier),
* the reduction tree of ``dot``,
* unbound teams: spontaneous migrations move threads away from their
  pages mid-run, changing the path factors between iterations — this is
  what produces the up-to-6x min/max spread before pinning (Figure 4c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.epcc.common import EpccStats, epcc_stats
from repro.errors import BenchmarkError
from repro.mem.bandwidth import BandwidthModel
from repro.mem.pages import PagePlacement
from repro.omp.region import NoiseMode
from repro.omp.runtime import RunContext
from repro.types import StreamKernel
from repro.units import us

#: Bytes moved per array element for each kernel (read + write streams).
KERNEL_BYTE_FACTORS: dict[StreamKernel, int] = {
    StreamKernel.COPY: 2,
    StreamKernel.MUL: 2,
    StreamKernel.ADD: 3,
    StreamKernel.TRIAD: 3,
    StreamKernel.DOT: 2,
}


@dataclass(frozen=True)
class BabelStreamParams:
    """Paper configuration: default parameters, array size 2^25."""

    array_size: int = 2**25
    element_bytes: int = 8
    num_times: int = 100
    kernel_gap: float = us(5.0)

    def __post_init__(self) -> None:
        if self.array_size <= 0 or self.element_bytes <= 0 or self.num_times <= 0:
            raise BenchmarkError("invalid BabelStream parameters")
        if self.kernel_gap < 0:
            raise BenchmarkError("negative kernel gap")

    @property
    def array_bytes(self) -> int:
        return self.array_size * self.element_bytes

    def kernel_bytes(self, kernel: StreamKernel) -> int:
        return KERNEL_BYTE_FACTORS[kernel] * self.array_bytes


@dataclass(frozen=True)
class StreamMeasurement:
    """All kernel timings of one BabelStream run."""

    times: dict[StreamKernel, np.ndarray] = field(compare=False)

    def stats(self, kernel: StreamKernel) -> EpccStats:
        return epcc_stats(self.times[kernel])

    def min_avg_max(self, kernel: StreamKernel) -> tuple[float, float, float]:
        t = self.times[kernel]
        return float(t.min()), float(t.mean()), float(t.max())

    def normalized_min_max(self, kernel: StreamKernel) -> tuple[float, float]:
        """The paper's metric: min and max normalized to the average."""
        mn, avg, mx = self.min_avg_max(kernel)
        return mn / avg, mx / avg

    def bandwidth(self, kernel: StreamKernel, params: BabelStreamParams) -> float:
        """Best achieved bandwidth (bytes/s), as BabelStream reports."""
        mn, _, _ = self.min_avg_max(kernel)
        return params.kernel_bytes(kernel) / mn


class BabelStream:
    """The BabelStream driver; one instance is reusable across runs."""

    def __init__(self, params: BabelStreamParams | None = None):
        self.params = params if params is not None else BabelStreamParams()

    def run(self, ctx: RunContext) -> StreamMeasurement:
        """Execute one full BabelStream run along the run timeline."""
        p = self.params
        team = ctx.team
        machine = ctx.machine
        bw_model = BandwidthModel(machine, ctx.runtime.platform.mem_spec)
        rng = ctx.stream("babelstream")

        # first touch during parallel initialization at the current placement
        current_cpus = list(team.cpus)
        placement = PagePlacement.first_touch(machine, current_cpus)

        # unbound threads migrate during the run; pre-sample the events
        migrations = []
        if not team.bound:
            est = self._estimate_duration(ctx, bw_model, placement)
            migrations = ctx.runtime.sched_model.sample_migrations(
                current_cpus, ctx.t, ctx.t + est * 1.5, rng
            )
        mig_idx = 0

        times: dict[StreamKernel, list[float]] = {k: [] for k in StreamKernel}
        n = team.n_threads
        for _ in range(p.num_times):
            for kernel in StreamKernel:
                # apply migrations that happened before this kernel
                while mig_idx < len(migrations) and migrations[mig_idx].t <= ctx.t:
                    ev = migrations[mig_idx]
                    current_cpus[ev.thread] = ev.dst_cpu
                    ctx.advance(ev.penalty)
                    mig_idx += 1
                    team = team.with_cpus(current_cpus)

                bytes_per_thread = np.full(n, p.kernel_bytes(kernel) / n)
                base = bw_model.kernel_time(
                    bytes_per_thread,
                    current_cpus,
                    placement,
                    smt_shared=team.smt_shared,
                )
                sigma = bw_model.jitter_sigma(
                    current_cpus, placement, smt_shared=team.smt_shared
                )
                base *= float(rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma))
                sync = 0.0
                if kernel is StreamKernel.DOT:
                    sync = (
                        ctx.sync_cost.barrier_cost(team)
                        + n * ctx.sync_cost.params.atomic_rmw
                    )
                result = ctx.executor.execute(
                    ctx.t,
                    team,
                    np.full(n, base),
                    noise_mode=NoiseMode.MAX,
                    sync_overhead=sync,
                    stacking_episodes=ctx.fork.episodes,
                    freq_sensitive=False,
                )
                times[kernel].append(result.duration)
                ctx.advance(result.duration + p.kernel_gap)

        return StreamMeasurement(
            times={k: np.asarray(v) for k, v in times.items()}
        )

    # -- helpers -------------------------------------------------------------

    def _estimate_duration(
        self, ctx: RunContext, bw_model: BandwidthModel, placement: PagePlacement
    ) -> float:
        p = self.params
        n = ctx.team.n_threads
        cpus = list(ctx.team.cpus)
        per_iter = 0.0
        for kernel in StreamKernel:
            per_iter += bw_model.kernel_time(
                np.full(n, p.kernel_bytes(kernel) / n),
                cpus,
                placement,
            )
            per_iter += p.kernel_gap
        return p.num_times * per_iter

    def horizon_estimate(self, ctx: RunContext) -> float:
        """Rough run duration for horizon sizing."""
        bw_model = BandwidthModel(ctx.machine, ctx.runtime.platform.mem_spec)
        placement = PagePlacement.first_touch(ctx.machine, list(ctx.team.cpus))
        return self._estimate_duration(ctx, bw_model, placement) * 2.0 + 0.5
