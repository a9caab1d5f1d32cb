"""Virtual-time resource primitives.

* :class:`SlotPool`: a pool of background-job *slots* (bounded by
  ``max_background_jobs`` and by the CPU core count), modeled as
  availability timelines in virtual microseconds.
* :class:`CompletionQueue`: the finished jobs, ordered by the virtual
  time at which each takes effect.

No real threads are involved. (Device bandwidth, which background jobs
and foreground I/O share, is priced by ``lsm.perf_model``, not here.)
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterator

_INF = math.inf


class SlotPool:
    """A pool of ``capacity`` slots, each busy until some virtual time.

    ``acquire(now, duration)`` finds the earliest-free slot, runs the job
    on it (start = max(now, slot free time)), and returns the completion
    time. This models RocksDB's background thread pool: if all threads
    are busy, a new flush/compaction queues behind the earliest one.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("slot pool needs at least one slot")
        self._free_at: list[float] = [0.0] * capacity
        #: Exact free times from settled work only. ``_free_at`` may run
        #: ahead of this with provisional lower-bound bookings
        #: (:meth:`acquire_pending`); chained settles re-anchor on the
        #: exact timeline.
        self._settled_at: list[float] = [0.0] * capacity

    @property
    def capacity(self) -> int:
        return len(self._free_at)

    def resize(self, capacity: int) -> None:
        """Grow or shrink the pool; running jobs keep their slots."""
        if capacity < 1:
            raise ValueError("slot pool needs at least one slot")
        cur = len(self._free_at)
        if capacity > cur:
            self._free_at.extend([0.0] * (capacity - cur))
            self._settled_at.extend([0.0] * (capacity - cur))
        elif capacity < cur:
            # Drop the slots that free soonest last so in-flight work
            # (later free times) is preserved conservatively. Pairs stay
            # aligned: callers settle every pending booking before a
            # resize, so both timelines agree slot-by-slot here.
            order = sorted(range(cur), key=self._free_at.__getitem__, reverse=True)
            self._free_at = [self._free_at[i] for i in order[:capacity]]
            self._settled_at = [self._settled_at[i] for i in order[:capacity]]

    def earliest_free_us(self) -> float:
        return min(self._free_at)

    def busy_count(self, now_us: float) -> int:
        """Number of slots still busy at ``now_us``."""
        return sum(1 for t in self._free_at if t > now_us)

    def next_free_us(self, now_us: float) -> float:
        """When :meth:`busy_count` next drops: the earliest slot end
        after ``now_us`` (inf when every slot is free)."""
        return min((t for t in self._free_at if t > now_us), default=_INF)

    def acquire(self, now_us: float, duration_us: float) -> float:
        """Schedule a job; return its virtual completion time."""
        if duration_us < 0:
            raise ValueError("job duration cannot be negative")
        idx = min(range(len(self._free_at)), key=self._free_at.__getitem__)
        start = max(now_us, self._free_at[idx])
        done = start + duration_us
        self._free_at[idx] = done
        self._settled_at[idx] = done
        return done

    def acquire_pending(
        self, now_us: float, lb_duration_us: float
    ) -> tuple[int, float, float]:
        """Schedule a job whose exact duration is not yet known.

        The slot is provisionally busy until ``start + lb_duration_us``
        where the lower bound must never exceed the eventual exact
        duration. The booking may *chain*: the chosen slot can already
        hold an unsettled earlier booking, in which case ``start`` is
        itself a lower bound (it assumes the earlier job finishes exactly
        at its bound). :meth:`settle` later computes the exact start from
        the settled timeline. Until every bound in the chain has been
        crossed, ``busy_count(t)`` never undercounts: each provisional
        end is <= the eventual exact end. Returns ``(slot_index,
        lb_start_us, lb_done_us)``. The caller must settle all pending
        bookings before :meth:`resize` — indices would no longer name
        the same slot — and must settle bookings that share a slot in
        schedule order (chained starts depend on the earlier settle).
        """
        if lb_duration_us < 0:
            raise ValueError("job duration cannot be negative")
        idx = min(range(len(self._free_at)), key=self._free_at.__getitem__)
        start = max(now_us, self._free_at[idx])
        lb_done = start + lb_duration_us
        self._free_at[idx] = lb_done
        return idx, start, lb_done

    def settle(
        self, slot_index: int, sched_now_us: float, duration_us: float
    ) -> tuple[float, float]:
        """Settle a booking from :meth:`acquire_pending` with its exact
        duration. The exact start is recomputed against the *settled*
        timeline (``max(sched_now_us, slot settled free time)``), which is
        why same-slot bookings must settle in schedule order. Returns
        ``(start_us, done_us)``; the slot's provisional end only ever
        moves later (exact >= every lower bound in the chain)."""
        if duration_us < 0:
            raise ValueError("job duration cannot be negative")
        start = max(sched_now_us, self._settled_at[slot_index])
        done = start + duration_us
        self._settled_at[slot_index] = done
        # A later chained booking may have pushed the provisional end
        # past this job's exact end; keep the maximum so the timeline
        # stays a valid lower bound for the still-pending booking.
        if done > self._free_at[slot_index]:
            self._free_at[slot_index] = done
        return start, done


class CompletionQueue:
    """Min-heap of finished background jobs awaiting install.

    Entries order by ``(at_us, seqno)``. The seqno is the caller's, fixed
    when the job was scheduled and not when its completion time became
    known, so two completions landing on the same virtual microsecond
    still apply in schedule order whichever was pushed first. The engine
    retires completions lazily: before each foreground operation it pops
    every one whose time is <= "now" and applies its effect (memtable
    freed, L0 file count reduced, ...).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_due_us(self) -> float:
        """Virtual time of the earliest queued completion (inf if none)."""
        return self._heap[0][0] if self._heap else _INF

    def __iter__(self) -> Iterator[Any]:
        """The queued items, in no particular order."""
        return (entry[2] for entry in self._heap)

    def push(self, at_us: float, seqno: int, item: Any) -> None:
        heapq.heappush(self._heap, (at_us, seqno, item))

    def pop_due(self, now_us: float) -> Iterator[Any]:
        """Pop the items due at or before ``now_us``, in order, one per
        step: an item leaves the queue only when the caller takes it, so
        while one completion is applied the later ones still show as
        queued."""
        while self.next_due_us <= now_us:
            yield self.pop_next()

    def pop_next(self) -> Any | None:
        """Pop the earliest item regardless of time (used when the
        caller must block until *something* finishes)."""
        return heapq.heappop(self._heap)[2] if self._heap else None
