"""Virtual-time simulation substrate (clock, resource pools)."""

from repro.sim.clock import SimClock
from repro.sim.resources import CompletionQueue, SlotPool

__all__ = ["SimClock", "SlotPool", "CompletionQueue"]
