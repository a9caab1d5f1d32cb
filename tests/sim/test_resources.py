"""Tests for slot pools and the completion queue."""

import pytest

from repro.sim import CompletionQueue, SlotPool


class TestSlotPool:
    def test_capacity(self):
        assert SlotPool(3).capacity == 3

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlotPool(0)

    def test_single_slot_serializes(self):
        pool = SlotPool(1)
        first = pool.acquire(0.0, 100.0)
        second = pool.acquire(0.0, 100.0)
        assert first == 100.0
        assert second == 200.0

    def test_two_slots_run_in_parallel(self):
        pool = SlotPool(2)
        assert pool.acquire(0.0, 100.0) == 100.0
        assert pool.acquire(0.0, 100.0) == 100.0

    def test_job_starts_no_earlier_than_now(self):
        pool = SlotPool(1)
        assert pool.acquire(50.0, 10.0) == 60.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SlotPool(1).acquire(0.0, -1.0)

    def test_busy_count(self):
        pool = SlotPool(2)
        pool.acquire(0.0, 100.0)
        assert pool.busy_count(50.0) == 1
        assert pool.next_free_us(50.0) == 100.0
        assert pool.busy_count(150.0) == 0
        assert pool.next_free_us(150.0) == float("inf")

    def test_earliest_free(self):
        pool = SlotPool(2)
        pool.acquire(0.0, 100.0)
        assert pool.earliest_free_us() == 0.0
        pool.acquire(0.0, 30.0)
        assert pool.earliest_free_us() == 30.0

    def test_resize_grow(self):
        pool = SlotPool(1)
        pool.acquire(0.0, 100.0)
        pool.resize(3)
        assert pool.capacity == 3
        # A new job lands on a fresh slot immediately.
        assert pool.acquire(0.0, 10.0) == 10.0

    def test_resize_shrink_keeps_busy_slots(self):
        pool = SlotPool(3)
        pool.acquire(0.0, 500.0)
        pool.resize(1)
        assert pool.capacity == 1
        # The surviving slot is the busy one (conservative shrink).
        assert pool.acquire(0.0, 10.0) == 510.0

    def test_resize_to_zero_rejected(self):
        with pytest.raises(ValueError):
            SlotPool(2).resize(0)


class TestCompletionQueue:
    def test_empty(self):
        queue = CompletionQueue()
        assert len(queue) == 0
        assert queue.pop_next() is None
        assert list(queue.pop_due(1e9)) == []

    def test_orders_by_time(self):
        queue = CompletionQueue()
        queue.push(30.0, 1, "b")
        queue.push(10.0, 2, "a")
        queue.push(20.0, 3, "c")
        assert [queue.pop_next() for _ in range(3)] == ["a", "c", "b"]

    def test_fifo_among_equal_times(self):
        queue = CompletionQueue()
        queue.push(10.0, 1, "first")
        queue.push(10.0, 2, "second")
        assert queue.pop_next() == "first"
        assert queue.pop_next() == "second"

    def test_pop_due_only_returns_due(self):
        queue = CompletionQueue()
        queue.push(10.0, 1, "early")
        queue.push(100.0, 2, "late")
        assert list(queue.pop_due(50.0)) == ["early"]
        assert len(queue) == 1

    def test_pop_due_boundary_inclusive(self):
        queue = CompletionQueue()
        queue.push(10.0, 1, "exact")
        assert list(queue.pop_due(10.0)) == ["exact"]

    def test_pop_due_takes_one_item_per_step(self):
        """While the caller applies one due item the later ones are
        still queued (the scheduler derives what is in flight from it)."""
        queue = CompletionQueue()
        queue.push(10.0, 1, "a")
        queue.push(20.0, 2, "b")
        seen = [(item, sorted(queue)) for item in queue.pop_due(50.0)]
        assert seen == [("a", ["b"]), ("b", [])]
        assert queue.next_due_us == float("inf")

    def test_payload_carried(self):
        queue = CompletionQueue()
        queue.push(5.0, 1, {"x": 1})
        assert queue.pop_next() == {"x": 1}


class TestPendingBookings:
    """acquire_pending/settle: the deferred-duration protocol the
    background pipeline schedules with (lower bounds now, exact later)."""

    def test_settle_matches_eager_acquire(self):
        eager = SlotPool(1)
        deferred = SlotPool(1)
        assert eager.acquire(10.0, 100.0) == 110.0
        slot, lb_start, lb_done = deferred.acquire_pending(10.0, 40.0)
        assert (lb_start, lb_done) == (10.0, 50.0)
        start, done = deferred.settle(slot, 10.0, 100.0)
        assert (start, done) == (10.0, 110.0)

    def test_lower_bound_never_undercounts_busy(self):
        pool = SlotPool(1)
        pool.acquire_pending(0.0, 50.0)
        assert pool.busy_count(25.0) == 1
        # the bound itself may be crossed before the settle arrives;
        # after it, busy_count is allowed to read 0 (lb semantics)
        assert pool.busy_count(60.0) == 0

    def test_chained_booking_starts_after_settled_predecessor(self):
        pool = SlotPool(1)
        slot_a, _, lb_a = pool.acquire_pending(0.0, 30.0)
        # second booking chains behind the first's *lower bound*
        slot_b, lb_start_b, _ = pool.acquire_pending(0.0, 30.0)
        assert slot_b == slot_a
        assert lb_start_b == lb_a
        # first job actually ran longer than its bound; the chained
        # job's exact start comes from the settled timeline, not the lb
        _, done_a = pool.settle(slot_a, 0.0, 100.0)
        start_b, done_b = pool.settle(slot_b, 0.0, 10.0)
        assert start_b == done_a == 100.0
        assert done_b == 110.0

    def test_settle_never_moves_provisional_end_earlier(self):
        pool = SlotPool(1)
        slot, _, _ = pool.acquire_pending(0.0, 30.0)
        pool.acquire_pending(0.0, 30.0)  # chained: free_at now 60
        pool.settle(slot, 0.0, 35.0)
        # 35 < 60: the pending chained booking still holds the slot
        assert pool.busy_count(50.0) == 1

    def test_two_slots_chain_independently(self):
        pool = SlotPool(2)
        a = pool.acquire_pending(0.0, 100.0)
        b = pool.acquire_pending(0.0, 10.0)
        assert a[0] != b[0]
        assert pool.busy_count(5.0) == 2
        pool.settle(b[0], 0.0, 10.0)
        assert pool.busy_count(50.0) == 1

    def test_pending_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SlotPool(1).acquire_pending(0.0, -1.0)
        pool = SlotPool(1)
        slot, _, _ = pool.acquire_pending(0.0, 5.0)
        with pytest.raises(ValueError):
            pool.settle(slot, 0.0, -1.0)

    def test_resize_after_settle_keeps_busiest(self):
        pool = SlotPool(2)
        slot, _, _ = pool.acquire_pending(0.0, 50.0)
        pool.settle(slot, 0.0, 50.0)
        pool.resize(1)
        assert pool.busy_count(25.0) == 1
        assert pool.earliest_free_us() == 50.0


class TestReservedSeqnos:
    def test_reserved_seqno_breaks_same_time_ties_in_schedule_order(self):
        queue = CompletionQueue()
        first, second = 1, 2            # scheduled in this order...
        queue.push(10.0, second, "late-resolve")
        queue.push(10.0, first, "early-resolve")  # ...pushed last
        assert queue.pop_next() == "early-resolve"
        assert queue.pop_next() == "late-resolve"

    def test_next_due_tracks_pushes(self):
        queue = CompletionQueue()
        assert queue.next_due_us == float("inf")
        queue.push(42.0, 1, "job")
        assert queue.next_due_us == 42.0
        queue.push(7.0, 2, "sooner")
        assert queue.next_due_us == 7.0
        queue.pop_next()
        assert queue.next_due_us == 42.0
