"""Network model and collective cost tests."""

import pytest

from repro.cloud.instance_types import get_instance_type
from repro.errors import ConfigurationError
from repro.mpi.collectives import COLLECTIVE_ALGORITHMS, collective_time
from repro.mpi.network import ClusterShape, NetworkModel
from tests.oracles.mpi_runtime import costs


class TestClusterShape:
    def test_instances_and_placement(self):
        shape = ClusterShape(get_instance_type("cc2.8xlarge"), 128)
        assert shape.n_instances == 4
        assert shape.procs_per_instance == 32
        assert costs.node_of(shape, 0) == 0
        assert costs.node_of(shape, 31) == 0
        assert costs.node_of(shape, 32) == 1

    def test_inter_node_fraction(self):
        cc2 = ClusterShape(get_instance_type("cc2.8xlarge"), 128)
        small = ClusterShape(get_instance_type("m1.small"), 128)
        assert cc2.inter_node_fraction == pytest.approx(1 - 31 / 127)
        assert small.inter_node_fraction == 1.0

    def test_single_process(self):
        shape = ClusterShape(get_instance_type("m1.small"), 1)
        assert shape.inter_node_fraction == 0.0

    def test_aggregate_disk_scales_with_instances(self):
        small = ClusterShape(get_instance_type("m1.small"), 128)
        cc2 = ClusterShape(get_instance_type("cc2.8xlarge"), 128)
        # The BTIO story: 128 small disks beat 4 big ones.
        assert small.aggregate_disk_bps > 5 * cc2.aggregate_disk_bps

    def test_rank_bounds(self):
        shape = ClusterShape(get_instance_type("m1.small"), 4)
        with pytest.raises(ConfigurationError):
            costs.node_of(shape, 4)


class TestNetworkModel:
    def test_intra_faster_than_inter(self):
        net = NetworkModel(ClusterShape(get_instance_type("cc2.8xlarge"), 64))
        intra = costs.p2p_seconds(net, 0, 1, 1_000_000)
        inter = costs.p2p_seconds(net, 0, 33, 1_000_000)
        assert intra < inter

    def test_self_message_free(self):
        net = NetworkModel(ClusterShape(get_instance_type("m1.small"), 4))
        assert costs.p2p_seconds(net, 2, 2, 1e9) == 0.0

    def test_oversubscription_kicks_in_for_large_fleets(self):
        small_fleet = NetworkModel(ClusterShape(get_instance_type("cc2.8xlarge"), 128))
        big_fleet = NetworkModel(ClusterShape(get_instance_type("m1.small"), 128))
        assert small_fleet.oversubscription == 1.0  # 4 instances
        assert big_fleet.oversubscription == 4.0  # 128 instances

    def test_cc2_effective_beta_beats_m1small(self):
        # 10 GbE + 24/32 local neighbours vs oversubscribed 125 Mbps
        cc2 = NetworkModel(ClusterShape(get_instance_type("cc2.8xlarge"), 128))
        small = NetworkModel(ClusterShape(get_instance_type("m1.small"), 128))
        assert cc2.effective_beta() < small.effective_beta()

    def test_negative_bytes_rejected(self):
        net = NetworkModel(ClusterShape(get_instance_type("m1.small"), 4))
        with pytest.raises(ConfigurationError):
            costs.p2p_seconds(net, 0, 1, -1.0)


class TestCollectives:
    A, B = 1e-4, 1e-8

    def test_single_process_collectives_free(self):
        for name in COLLECTIVE_ALGORITHMS:
            assert collective_time(name, 1, 1e6, self.A, self.B) == 0.0
        for name in costs.ALL_ALGORITHMS:
            assert costs.collective_time(name, 1, 1e6, self.A, self.B) == 0.0

    def test_barrier_latency_only(self):
        t8 = costs.collective_time("barrier", 8, 0.0, self.A, self.B)
        assert t8 == pytest.approx(3 * self.A)

    def test_bcast_log_scaling(self):
        t2 = costs.collective_time("bcast", 2, 1e6, self.A, self.B)
        t16 = costs.collective_time("bcast", 16, 1e6, self.A, self.B)
        assert t16 == pytest.approx(4 * t2)

    def test_allreduce_bandwidth_term(self):
        # For large messages the 2*n*beta*(p-1)/p term dominates.
        t = collective_time("allreduce", 128, 1e9, 0.0, self.B)
        assert t == pytest.approx(2 * 1e9 * self.B * 127 / 128)

    def test_alltoall_equals_allgather_cost(self):
        ta = collective_time("alltoall", 16, 1e6, self.A, self.B)
        tg = costs.collective_time("allgather", 16, 1e6, self.A, self.B)
        assert ta == tg

    def test_alltoall_latency_grows_linearly(self):
        t8 = collective_time("alltoall", 8, 0.0, self.A, self.B)
        t64 = collective_time("alltoall", 64, 0.0, self.A, self.B)
        assert t64 / t8 == pytest.approx(63 / 7)

    def test_unknown_collective(self):
        with pytest.raises(ConfigurationError):
            collective_time("allswap", 4, 1.0, self.A, self.B)
        with pytest.raises(ConfigurationError):
            collective_time("bcast", 4, 1.0, self.A, self.B)
        with pytest.raises(ConfigurationError):
            costs.collective_time("allswap", 4, 1.0, self.A, self.B)

    def test_validation(self):
        for fn in (collective_time, costs.collective_time):
            with pytest.raises(ConfigurationError):
                fn("allreduce", 0, 1.0, self.A, self.B)
            with pytest.raises(ConfigurationError):
                fn("allreduce", 4, -1.0, self.A, self.B)
            with pytest.raises(ConfigurationError):
                fn("allreduce", 4, 1.0, -self.A, self.B)
