"""Tests for the topology substrate (builder, machine invariants, presets)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import (
    CpuSet,
    TopologyBuilder,
    dardel_topology,
    vera_topology,
)


class TestBuilder:
    def test_toy_machine(self):
        m = TopologyBuilder("toy").add_sockets(2, 1, 4, smt=2).build()
        assert m.n_sockets == 2
        assert m.n_numa == 2
        assert m.n_cores == 8
        assert m.n_cpus == 16
        assert m.smt_level == 2

    def test_linux_sibling_numbering(self):
        m = TopologyBuilder("toy").add_sockets(1, 1, 4, smt=2).build()
        # cpu ids 0..3 are thread 0 of cores 0..3; 4..7 are the siblings
        assert m.cores[0].cpu_ids == (0, 4)
        assert m.cores[3].cpu_ids == (3, 7)
        assert m.hwthread(5).smt_index == 1
        assert m.hwthread(5).core_id == 1

    def test_no_sockets_rejected(self):
        with pytest.raises(TopologyError):
            TopologyBuilder("x").build()

    def test_bad_shapes_rejected(self):
        with pytest.raises(TopologyError):
            TopologyBuilder("x").add_socket(0, 4)
        with pytest.raises(TopologyError):
            TopologyBuilder("x").add_socket(1, 0)
        with pytest.raises(TopologyError):
            TopologyBuilder("x").add_sockets(1, 1, 1, smt=0)

    def test_irregular_sockets(self):
        m = (
            TopologyBuilder("mixed")
            .add_socket(2, 4)
            .add_socket(1, 8)
            .build()
        )
        assert m.n_numa == 3
        assert m.n_cores == 16
        assert len(m.sockets[0].core_ids) == 8
        assert len(m.sockets[1].core_ids) == 8


class TestMachineLookups:
    def setup_method(self):
        self.m = TopologyBuilder("toy").add_sockets(2, 2, 2, smt=2).build()

    def test_core_of(self):
        for cpu in range(self.m.n_cpus):
            core = self.m.core_of(cpu)
            assert cpu in core.cpu_ids

    def test_siblings(self):
        m = self.m
        c0 = m.cores[0]
        a, b = c0.cpu_ids
        assert m.siblings_of(a) == (b,)
        assert m.siblings_of(b) == (a,)

    def test_numa_partition(self):
        cores_seen = [c for d in self.m.numa_domains for c in d.core_ids]
        assert sorted(cores_seen) == list(range(self.m.n_cores))

    def test_primary_cpus(self):
        primaries = self.m.primary_cpus()
        assert len(primaries) == self.m.n_cores
        for cpu in primaries:
            assert self.m.hwthread(cpu).smt_index == 0

    def test_span_helpers(self):
        m = self.m
        d0 = m.numa_domains[0]
        assert m.numa_span(d0.cpu_ids) == 1
        assert m.socket_span(m.all_cpus()) == 2
        assert m.cores_spanned(m.cores[0].cpu_ids) == 1

    def test_bad_cpu_raises(self):
        with pytest.raises(TopologyError):
            self.m.hwthread(9999)

    def test_distance_matrix(self):
        m = self.m
        assert m.distance(0, 0) == 10
        assert m.distance(0, 1) == 12  # same socket
        assert m.distance(0, 2) == 32  # cross socket

    def test_arrays(self):
        numa = self.m.numa_ids_array()
        core = self.m.core_ids_array()
        socket = self.m.socket_ids_array()
        smt = self.m.smt_index_array()
        assert numa.shape == (self.m.n_cpus,)
        for cpu in range(self.m.n_cpus):
            assert numa[cpu] == self.m.hwthread(cpu).numa_id
            assert core[cpu] == self.m.hwthread(cpu).core_id
            assert socket[cpu] == self.m.hwthread(cpu).socket_id
            assert smt[cpu] == self.m.hwthread(cpu).smt_index

    def test_arrays_cached_read_only(self):
        import pickle

        for getter in ("numa_ids_array", "core_ids_array",
                       "socket_ids_array", "smt_index_array"):
            arr = getattr(self.m, getter)()
            assert arr is getattr(self.m, getter)()
            assert arr.dtype == np.int64
            with pytest.raises(ValueError):
                arr[0] = 1
        clone = pickle.loads(pickle.dumps(self.m))
        assert clone == self.m and hash(clone) == hash(self.m)
        assert np.array_equal(clone.core_ids_array(), self.m.core_ids_array())


class TestPresets:
    def test_dardel_shape(self):
        m = dardel_topology()
        assert m.name == "dardel"
        assert m.n_sockets == 2
        assert m.n_numa == 8
        assert m.n_cores == 128
        assert m.n_cpus == 256
        assert m.smt_level == 2
        # quad-NUMA per socket, 16 cores per domain
        for d in m.numa_domains:
            assert len(d.core_ids) == 16

    def test_dardel_sibling_convention(self):
        m = dardel_topology()
        # core c owns cpus {c, c+128}
        assert m.cores[0].cpu_ids == (0, 128)
        assert m.cores[127].cpu_ids == (127, 255)

    def test_vera_shape(self):
        m = vera_topology()
        assert m.name == "vera"
        assert m.n_sockets == 2
        assert m.n_numa == 2
        assert m.n_cores == 32
        assert m.n_cpus == 32
        assert m.smt_level == 1

    def test_summary_strings(self):
        assert "256 hardware threads" in dardel_topology().summary()
        assert "32 hardware threads" in vera_topology().summary()


class TestCpuSet:
    def test_parse_and_str_roundtrip(self):
        s = CpuSet.parse("0-3,8,10-11")
        assert s.as_tuple() == (0, 1, 2, 3, 8, 10, 11)
        assert str(s) == "0-3,8,10-11"

    def test_parse_empty(self):
        assert len(CpuSet.parse("")) == 0
        assert not CpuSet.parse(" ")

    def test_parse_errors(self):
        for bad in ("a", "3-1", "1,,2", "1-x"):
            with pytest.raises(TopologyError):
                CpuSet.parse(bad)

    def test_negative_rejected(self):
        with pytest.raises(TopologyError):
            CpuSet([-1])

    def test_dedup_and_order(self):
        assert CpuSet([3, 1, 3, 2]).as_tuple() == (1, 2, 3)

    def test_algebra(self):
        a = CpuSet([0, 1, 2])
        b = CpuSet([2, 3])
        assert (a | b).as_tuple() == (0, 1, 2, 3)
        assert (a & b).as_tuple() == (2,)
        assert (a - b).as_tuple() == (0, 1)
        assert CpuSet([0]).issubset(a)
        assert a.isdisjoint(CpuSet([9]))

    def test_range(self):
        assert CpuSet.range(2, 5).as_tuple() == (2, 3, 4)

    def test_immutable_and_hashable(self):
        s = CpuSet([1, 2])
        with pytest.raises(AttributeError):
            s._cpus = ()
        assert hash(CpuSet([1, 2])) == hash(s)


@given(cpus=st.lists(st.integers(min_value=0, max_value=300), max_size=40))
@settings(max_examples=100)
def test_cpuset_roundtrip_property(cpus):
    s = CpuSet(cpus)
    assert CpuSet.parse(str(s)) == s
    assert len(s) == len(set(cpus))


@given(
    a=st.lists(st.integers(min_value=0, max_value=64), max_size=20),
    b=st.lists(st.integers(min_value=0, max_value=64), max_size=20),
)
@settings(max_examples=100)
def test_cpuset_algebra_matches_set_semantics(a, b):
    sa, sb = CpuSet(a), CpuSet(b)
    assert set(sa | sb) == set(a) | set(b)
    assert set(sa & sb) == set(a) & set(b)
    assert set(sa - sb) == set(a) - set(b)
