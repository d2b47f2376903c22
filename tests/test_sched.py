"""Tests for the OS scheduler model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.rng import RngFactory
from repro.sched import (
    BalancerModel,
    MigrationModel,
    RunqueueState,
    SchedParams,
    SchedulerModel,
    WakeupPlacer,
)
from repro.topology import TopologyBuilder, dardel_topology
from repro.units import ms, us


@pytest.fixture
def machine():
    return TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()  # 16 cpus


class TestSchedParams:
    def test_defaults_valid(self):
        SchedParams()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SchedParams(wake_ipi_cost=-1.0)
        with pytest.raises(ConfigurationError):
            SchedParams(stacking_prob_per_thread=2.0)
        with pytest.raises(ConfigurationError):
            SchedParams(stacking_share=0.0)
        with pytest.raises(ConfigurationError):
            SchedParams(sched_delay_median=0.0)
        with pytest.raises(ConfigurationError):
            SchedParams(fork_wake_fraction=1.5)


class TestRunqueueState:
    def test_add_remove(self, machine):
        rq = RunqueueState(machine)
        rq.add(3)
        rq.add(3)
        assert rq.nr_running(3) == 2
        rq.remove(3)
        assert rq.nr_running(3) == 1

    def test_remove_too_many(self, machine):
        rq = RunqueueState(machine)
        with pytest.raises(SimulationError):
            rq.remove(0)

    def test_move(self, machine):
        rq = RunqueueState(machine)
        rq.add(0)
        rq.move(0, 5)
        assert rq.nr_running(0) == 0
        assert rq.nr_running(5) == 1

    def test_idle_queries(self, machine):
        rq = RunqueueState(machine)
        rq.add(0)  # core 0 busy on thread0
        assert 0 not in rq.idle_cpus()
        assert 8 in rq.idle_cpus()  # sibling idle
        assert 0 not in rq.idle_cores()
        assert 1 in rq.idle_cores()

    def test_stacked(self, machine):
        rq = RunqueueState(machine)
        rq.add(2)
        rq.add(2)
        assert rq.stacked_cpus() == [2]

    def test_load_fraction(self, machine):
        rq = RunqueueState(machine)
        assert rq.load_fraction() == 0.0
        for c in range(8):
            rq.add(c)
        assert rq.load_fraction() == pytest.approx(0.5)

    def test_bad_cpu(self, machine):
        with pytest.raises(SimulationError):
            RunqueueState(machine).add(99)


class TestWakeupPlacer:
    def test_prefers_idle_core_same_numa(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rq = RunqueueState(machine)
        rq.add(0)  # waker on cpu 0 (socket 0: cpus 0-3 + siblings 8-11)
        rng = RngFactory(1).stream("wake")
        for _ in range(20):
            cpu = placer.place_one(0, rq, rng)
            # an idle core's thread0 in the waker's NUMA domain (socket0)
            assert cpu in {1, 2, 3}

    def test_no_stacking_when_disabled_and_idle_exists(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(2).stream("wake")
        cpus = placer.place_team(8, master_cpu=0, rng=rng)
        assert len(set(cpus)) == 8  # no two threads share a cpu

    def test_team_fills_cores_before_siblings(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(3).stream("wake")
        cpus = placer.place_team(8, master_cpu=0, rng=rng)
        cores = {machine.hwthread(c).core_id for c in cpus}
        assert len(cores) == 8  # one thread per core when cores suffice

    def test_oversubscription_stacks(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.0)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(4).stream("wake")
        cpus = placer.place_team(20, master_cpu=0, rng=rng)  # > 16 cpus
        assert len(cpus) == 20
        counts = {}
        for c in cpus:
            counts[c] = counts.get(c, 0) + 1
        assert max(counts.values()) >= 2

    def test_stacking_shortcut_occurs(self, machine):
        params = SchedParams(stacking_prob_per_thread=0.5)
        placer = WakeupPlacer(machine, params)
        rng = RngFactory(5).stream("wake")
        stacked_runs = 0
        for i in range(30):
            cpus = placer.place_team(8, master_cpu=0, rng=rng)
            if len(set(cpus)) < 8:
                stacked_runs += 1
        assert stacked_runs > 5


class TestBalancer:
    def test_no_episodes_without_stacking(self):
        b = BalancerModel(SchedParams())
        eps = b.episodes_for_placement([0, 1, 2], 0.0, RngFactory(1).stream("b"))
        assert eps == []

    def test_episodes_for_stacked_threads(self):
        b = BalancerModel(SchedParams())
        eps = b.episodes_for_placement([0, 1, 1], 5.0, RngFactory(2).stream("b"))
        assert {e.thread for e in eps} == {1, 2}
        for e in eps:
            assert e.start == 5.0
            assert e.duration > 0
            assert e.share == pytest.approx(0.5)
            assert e.slowdown_factor() == pytest.approx(2.0)

    def test_triple_stacking_lower_share(self):
        b = BalancerModel(SchedParams())
        eps = b.episodes_for_placement([0, 1, 1, 1], 0.0, RngFactory(3).stream("b"))
        assert {e.thread for e in eps} == {1, 2, 3}
        for e in eps:
            assert e.share <= 0.5

    def test_episode_duration_scale(self):
        params = SchedParams(balance_latency_median=ms(10), balance_latency_sigma=0.5)
        b = BalancerModel(params)
        rng = RngFactory(4).stream("b")
        durations = [b.episode_duration(rng) for _ in range(500)]
        assert ms(5) < float(np.median(durations)) < ms(20)


class TestMigrationModel:
    def test_rate(self, machine):
        params = SchedParams(migration_rate_unbound=2.0)
        m = MigrationModel(machine, params)
        rng = RngFactory(5).stream("mig")
        events = m.sample([0, 1, 2, 3], 0.0, 10.0, rng)
        # expect ~ 4 threads * 2/s * 10s = 80
        assert 50 < len(events) < 115
        assert events == sorted(events, key=lambda e: e.t)

    def test_zero_rate(self, machine):
        params = SchedParams(migration_rate_unbound=0.0)
        m = MigrationModel(machine, params)
        assert m.sample([0], 0.0, 100.0, RngFactory(1).stream("m")) == []

    def test_destination_outside_team(self, machine):
        params = SchedParams(migration_rate_unbound=5.0)
        m = MigrationModel(machine, params)
        team = [0, 1, 2, 3]
        events = m.sample(team, 0.0, 5.0, RngFactory(6).stream("m"))
        for e in events:
            assert e.dst_cpu not in set(team)
            assert e.penalty == params.migration_penalty

    def test_expected_migrations(self, machine):
        params = SchedParams(migration_rate_unbound=0.5)
        m = MigrationModel(machine, params)
        assert m.expected_migrations(8, 10.0) == pytest.approx(40.0)


class TestSchedulerModel:
    def test_fork_bound_keeps_cpus(self, machine):
        model = SchedulerModel(machine)
        out = model.fork_bound([0, 1, 2, 3], RngFactory(7).stream("f"))
        assert out.cpus == (0, 1, 2, 3)
        assert out.episodes == ()
        assert out.wake_delays[0] == 0.0  # master never pays wake
        assert np.all(out.wake_delays >= 0)

    def test_fork_unbound_places_team(self, machine):
        model = SchedulerModel(machine, SchedParams(stacking_prob_per_thread=0.0))
        out = model.fork_unbound(8, master_cpu=0, t_start=0.0,
                                 rng=RngFactory(8).stream("f"))
        assert out.n_threads == 8
        assert out.cpus[0] == 0
        assert out.stacked_threads() == ()

    def test_fork_unbound_stacking_adds_delay(self, machine):
        model = SchedulerModel(machine, SchedParams(stacking_prob_per_thread=1.0))
        out = model.fork_unbound(8, master_cpu=0, t_start=0.0,
                                 rng=RngFactory(9).stream("f"))
        assert out.episodes  # everything stacked
        stacked = [t for t in out.stacked_threads() if t != 0]
        assert any(out.wake_delays[t] > us(100) for t in stacked)

    def test_determinism(self, machine):
        model = SchedulerModel(machine)
        a = model.fork_unbound(8, 0, 0.0, RngFactory(10).stream("f"))
        b = model.fork_unbound(8, 0, 0.0, RngFactory(10).stream("f"))
        assert a.cpus == b.cpus
        np.testing.assert_array_equal(a.wake_delays, b.wake_delays)

    def test_dardel_scale_placement(self):
        machine = dardel_topology()
        model = SchedulerModel(machine, SchedParams(stacking_prob_per_thread=0.0))
        out = model.fork_unbound(128, master_cpu=0, t_start=0.0,
                                 rng=RngFactory(11).stream("f"))
        # 128 threads on 128 cores: every thread gets its own core
        cores = {machine.hwthread(c).core_id for c in out.cpus}
        assert len(cores) == 128


# -- oracle: the list-based placement the array-backed pools replaced --------------


def _oracle_place_one(placer, waker_cpu, rq, rng, allow_stacking_shortcut=True):
    """The historical :meth:`WakeupPlacer.place_one` over Python lists, kept
    as the reference for the cached-array pools.  Returns ``(cpu, pass)``
    where pass 0 is the stacking shortcut."""
    m = placer.machine
    p = placer.params
    load = rq.load_fraction()
    stacking_prob = min(1.0, p.stacking_prob_per_thread * (1.0 + 8.0 * load))
    if allow_stacking_shortcut and rng.random() < stacking_prob:
        return int(rng.integers(0, m.n_cpus)), 0
    waker = m.hwthread(waker_cpu)
    same_numa = list(m.numa_domains[waker.numa_id].cpu_ids)
    numa_set = set(same_numa)
    same_socket = [c for c in m.sockets[waker.socket_id].cpu_ids if c not in numa_set]
    seen = numa_set | set(same_socket)
    rest = [c for c in range(m.n_cpus) if c not in seen]
    pools = [same_numa, same_socket, rest]
    counts = rq.counts()
    for pool in pools:
        idle_core_cpus = [
            c
            for c in pool
            if all(counts[s] == 0 for s in m.core_of(c).cpu_ids)
            and m.hwthread(c).smt_index == 0
        ]
        if idle_core_cpus:
            return int(rng.choice(idle_core_cpus)), 1
    for pool in pools:
        idle = [c for c in pool if counts[c] == 0]
        if idle:
            return int(rng.choice(idle)), 2
    least = counts.min()
    return int(rng.choice(np.flatnonzero(counts == least))), 3


class TestPlacementMatchesOracle:
    """Array-backed placement is identical to the list-based loop, draw
    for draw, on every preset machine and occupancy regime."""

    @staticmethod
    def _occupy(machine, regime, setup):
        """External load: sparse, every core's first thread busy (only
        SMT siblings idle: pass 2), or every cpu busy (pass 3)."""
        n = machine.n_cpus
        primaries = [c for c in range(n) if machine.hwthread(c).smt_index == 0]
        if regime == "sparse":
            return [int(c) for c in setup.choice(n, size=n // 4, replace=False)]
        if regime == "primaries":
            return primaries
        return list(range(n)) + [int(c) for c in setup.integers(0, n, size=n // 8)]

    @pytest.mark.parametrize("name", ["toy", "vera", "dardel"])
    def test_placements_identical(self, name):
        from repro.platform import get_platform

        machine = get_platform(name).machine
        passes = set()
        for seed in range(50):
            setup = np.random.default_rng(seed)
            regime = ("sparse", "primaries", "full")[seed % 3]
            stacking = (0.0, 0.05)[seed % 2]
            placer = WakeupPlacer(machine, SchedParams(stacking_prob_per_thread=stacking))
            rq = RunqueueState(machine)
            for cpu in self._occupy(machine, regime, setup):
                rq.add(cpu)
            waker = int(setup.integers(0, machine.n_cpus))
            new_rng = RngFactory(seed).stream("placement")
            old_rng = RngFactory(seed).stream("placement")
            for _ in range(12):
                cpu = placer.place_one(waker, rq, new_rng)
                expected, which = _oracle_place_one(placer, waker, rq, old_rng)
                assert cpu == expected, (name, seed)
                assert new_rng.bit_generator.state == old_rng.bit_generator.state
                passes.add(which)
                rq.add(cpu)
        # on an SMT-1 machine every idle cpu is an idle core: no pass 2
        assert passes == ({0, 1, 2, 3} if machine.smt_level > 1 else {0, 1, 3})

    def test_idle_cores_matches_per_core_scan(self):
        from repro.platform import get_platform

        machine = get_platform("vera").machine
        setup = np.random.default_rng(0)
        rq = RunqueueState(machine)
        for cpu in setup.choice(machine.n_cpus, size=20, replace=False):
            rq.add(int(cpu))
        counts = rq.counts()
        expected = [
            core.core_id for core in machine.cores
            if all(counts[c] == 0 for c in core.cpu_ids)
        ]
        assert rq.idle_cores() == expected
