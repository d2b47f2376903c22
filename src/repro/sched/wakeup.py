"""Wakeup placement: where unbound worker threads land.

Mirrors the shape of CFS ``select_task_rq_fair``/``select_idle_sibling``:

1. prefer an idle *core* near the waker (same NUMA domain, then same
   socket, then anywhere), taking its first idle hardware thread;
2. else any idle hardware thread (an SMT sibling of a busy core);
3. else the least-loaded CPU (stacking — the thread will time-share).

A small per-thread stacking probability short-circuits the search even when
idle CPUs exist, modelling the limited search depth of the real scheduler
under fork storms — this is what occasionally hands an unbound OpenMP team
a stacked worker and a multi-millisecond region.
"""

from __future__ import annotations

import numpy as np

from repro.sched.params import SchedParams
from repro.sched.runqueue import RunqueueState
from repro.topology.hwthread import Machine


class WakeupPlacer:
    """Places woken threads onto CPUs given current runqueue state.

    The candidate pools depend only on the (frozen) machine, so they are
    built once per waker CPU as int64 arrays; each placement then selects
    from them with masks derived from one per-core load vector.
    """

    def __init__(self, machine: Machine, params: SchedParams):
        self.machine = machine
        self.params = params
        self._core_ids = machine.core_ids_array()
        self._primary = machine.smt_index_array() == 0
        self._pools: dict[int, tuple[np.ndarray, ...]] = {}

    def _candidate_order(self, waker_cpu: int) -> tuple[np.ndarray, ...]:
        """CPU pools in preference order relative to the waker's position:
        same NUMA domain, rest of the same socket, everything else."""
        pools = self._pools.get(waker_cpu)
        if pools is None:
            m = self.machine
            waker = m.hwthread(waker_cpu)
            same_numa = np.asarray(m.numa_domains[waker.numa_id].cpu_ids, dtype=np.int64)
            seen = np.zeros(m.n_cpus, dtype=bool)
            seen[same_numa] = True
            socket_cpus = np.asarray(m.sockets[waker.socket_id].cpu_ids, dtype=np.int64)
            same_socket = socket_cpus[~seen[socket_cpus]]
            seen[same_socket] = True
            rest = np.flatnonzero(~seen)
            pools = (same_numa, same_socket, rest)
            for pool in pools:
                pool.setflags(write=False)
            self._pools[waker_cpu] = pools
        return pools

    def place_one(
        self,
        waker_cpu: int,
        rq: RunqueueState,
        rng: np.random.Generator,
        allow_stacking_shortcut: bool = True,
    ) -> int:
        """Pick a CPU for one woken thread; does **not** update *rq*."""
        p = self.params
        # imperfect search: sometimes the scheduler settles for a loaded cpu
        load = rq.load_fraction()
        stacking_prob = min(1.0, p.stacking_prob_per_thread * (1.0 + 8.0 * load))
        if allow_stacking_shortcut and rng.random() < stacking_prob:
            return int(rng.integers(0, self.machine.n_cpus))

        counts = rq.counts()
        # pass 1: the first hw thread of an idle core (no hw thread busy);
        # pass 2: any idle hw thread.  Each pass walks the pools in
        # preference order.
        idle_core_cpu = (rq.core_loads() == 0)[self._core_ids] & self._primary
        for eligible in (idle_core_cpu, counts == 0):
            for pool in self._candidate_order(waker_cpu):
                candidates = pool[eligible[pool]]
                if candidates.size:
                    return int(rng.choice(candidates))
        # pass 3: least loaded cpu, ties broken randomly
        least = counts.min()
        candidates = np.flatnonzero(counts == least)
        return int(rng.choice(candidates))

    def place_team(
        self,
        n_threads: int,
        master_cpu: int,
        rng: np.random.Generator,
        external_busy: list[int] | None = None,
    ) -> list[int]:
        """Place an unbound team of *n_threads* (thread 0 = the master).

        The master stays where it is; workers are woken one by one, each
        placement updating the runqueue view (fork happens sequentially in
        the runtime).  *external_busy* marks CPUs busy with other work.
        """
        rq = RunqueueState(self.machine)
        for cpu in external_busy or ():
            rq.add(cpu)
        rq.add(master_cpu)
        cpus = [master_cpu]
        for _ in range(1, n_threads):
            cpu = self.place_one(master_cpu, rq, rng)
            rq.add(cpu)
            cpus.append(cpu)
        return cpus
