"""Per-CPU runqueue occupancy bookkeeping.

:class:`RunqueueState` is the scheduler model's view of "how many runnable
tasks does each logical CPU host".  It backs both wakeup placement (find an
idle CPU / idle core) and collision detection (who is stacked where).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.topology.hwthread import Machine


class RunqueueState:
    """Mutable runnable-task counts per logical CPU."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._count = np.zeros(machine.n_cpus, dtype=np.int64)

    # -- mutation -----------------------------------------------------------

    def add(self, cpu: int, k: int = 1) -> None:
        if not 0 <= cpu < self.machine.n_cpus:
            raise SimulationError(f"no cpu {cpu}")
        self._count[cpu] += k

    def remove(self, cpu: int, k: int = 1) -> None:
        if self._count[cpu] < k:
            raise SimulationError(
                f"removing {k} tasks from cpu {cpu} holding {self._count[cpu]}"
            )
        self._count[cpu] -= k

    def move(self, src: int, dst: int) -> None:
        self.remove(src)
        self.add(dst)

    def reset(self) -> None:
        self._count[:] = 0

    # -- queries ------------------------------------------------------------

    def nr_running(self, cpu: int) -> int:
        return int(self._count[cpu])

    def counts(self) -> np.ndarray:
        """A copy of the per-CPU runnable counts."""
        return self._count.copy()

    def idle_cpus(self) -> list[int]:
        """CPUs with an empty runqueue."""
        return np.flatnonzero(self._count == 0).tolist()

    def core_loads(self) -> np.ndarray:
        """Runnable tasks per core (summed over its hardware threads),
        indexed by core id."""
        m = self.machine
        return np.bincount(m.core_ids_array(), weights=self._count, minlength=m.n_cores)

    def idle_cores(self) -> list[int]:
        """Cores whose *every* hardware thread is idle."""
        return np.flatnonzero(self.core_loads() == 0).tolist()

    def stacked_cpus(self) -> list[int]:
        """CPUs hosting more than one runnable task."""
        return np.flatnonzero(self._count > 1).tolist()

    def total_running(self) -> int:
        return int(self._count.sum())

    def load_fraction(self) -> float:
        """Busy CPUs / all CPUs."""
        return float(np.count_nonzero(self._count)) / self.machine.n_cpus
