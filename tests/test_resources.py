"""Unit tests for serializing resources (ports, walker pools)."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.resources import ResourcePool, SerialResource


class TestSerialResource:
    def test_idle_resource_grants_immediately(self):
        port = SerialResource(occupancy=2.0)
        assert port.acquire(10.0) == 10.0

    def test_back_to_back_requests_serialize(self):
        port = SerialResource(occupancy=2.0)
        assert port.acquire(0.0) == 0.0
        assert port.acquire(0.0) == 2.0
        assert port.acquire(0.0) == 4.0

    def test_gap_larger_than_occupancy_leaves_no_queue(self):
        port = SerialResource(occupancy=2.0)
        port.acquire(0.0)
        assert port.acquire(100.0) == 100.0

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            SerialResource(-1.0)

    @given(
        st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=100),
        st.floats(min_value=0.5, max_value=10),
    )
    def test_property_grants_are_monotonic_and_spaced(self, arrivals, occ):
        port = SerialResource(occupancy=occ)
        grants = [port.acquire(t) for t in sorted(arrivals)]
        for a, b in zip(grants, grants[1:]):
            assert b >= a + occ - 1e-9
        for arrival, grant in zip(sorted(arrivals), grants):
            assert grant >= arrival


class TestResourcePool:
    def test_parallel_servers_do_not_queue(self):
        pool = ResourcePool(4, service_time=100.0)
        done = [pool.acquire(0.0) for _ in range(4)]
        assert done == [100.0] * 4

    def test_excess_requests_queue_on_earliest_server(self):
        pool = ResourcePool(2, service_time=100.0)
        assert pool.acquire(0.0) == 100.0
        assert pool.acquire(0.0) == 100.0
        assert pool.acquire(0.0) == 200.0  # waits for a server

    def test_staggered_arrivals(self):
        pool = ResourcePool(1, service_time=10.0)
        assert pool.acquire(0.0) == 10.0
        assert pool.acquire(5.0) == 20.0
        assert pool.acquire(50.0) == 60.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ResourcePool(0, 1.0)
        with pytest.raises(ValueError):
            ResourcePool(1, -1.0)

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=60),
    )
    def test_property_throughput_bounded_by_servers(self, n, arrivals):
        """No time window of length service_time completes more than n."""
        service = 10.0
        pool = ResourcePool(n, service_time=service)
        completions = sorted(pool.acquire(t) for t in sorted(arrivals))
        for i, start in enumerate(completions):
            in_window = sum(
                1 for c in completions if start <= c < start + service - 1e-9
            )
            assert in_window <= n

    def test_repeated_full_bursts_queue_one_service_time_apart(self):
        pool = ResourcePool(3, service_time=10.0)
        assert [pool.acquire(0.0) for _ in range(3)] == [10.0] * 3
        assert [pool.acquire(0.0) for _ in range(3)] == [20.0] * 3

    def test_partial_burst_fills_idle_servers_first(self):
        pool = ResourcePool(4, service_time=10.0)
        assert pool.acquire(0.0) == 10.0
        # 3 servers free at 0.0, 1 busy until 10.0
        assert pool.acquire(5.0) == 15.0
        assert pool.acquire(5.0) == 15.0
        assert pool.acquire(5.0) == 15.0
        # all four busy: earliest completion is the first server
        assert pool.acquire(5.0) == 20.0

    def test_staggered_free_times_grant_earliest_first(self):
        pool = ResourcePool(3, service_time=7.0)
        assert pool.acquire(0.0) == 7.0
        assert pool.acquire(1.0) == 8.0
        assert pool.acquire(2.0) == 9.0
        assert pool.acquire(2.0) == 14.0
        assert pool.acquire(2.0) == 15.0

    def test_zero_service_time(self):
        pool = ResourcePool(2, service_time=0.0)
        assert pool.acquire(0.0) == 0.0
        assert pool.acquire(0.0) == 0.0
        assert pool.acquire(0.0) == 0.0  # instant turnaround, never queues
        assert pool.acquire(3.5) == 3.5

    def test_n_servers_reported(self):
        assert ResourcePool(5, 1.0).n_servers == 5

    @given(
        st.integers(min_value=1, max_value=6),
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0]),
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5]),
            min_size=1,
            max_size=80,
        ),
    )
    def test_property_matches_heap_oracle(self, n, service, deltas):
        """Differential: the pool vs a plain pop/push min-heap of
        per-server free times, on monotonic arrivals with frequent
        exact ties."""
        import heapq

        pool = ResourcePool(n, service_time=service)
        oracle = [0.0] * n
        now = 0.0
        for delta in deltas:
            now += delta
            earliest = heapq.heappop(oracle)
            done = (now if now > earliest else earliest) + service
            heapq.heappush(oracle, done)
            assert pool.acquire(now) == done
