"""PyLSM: a from-scratch LSM-tree key-value store with virtual-time
performance accounting (the RocksDB stand-in for the reproduction)."""

from repro.lsm.db import DB
from repro.lsm.env import Env, MemFileSystem
from repro.lsm.faults import FaultFS, KVModel, check_crash_invariants
from repro.lsm.options import Options
from repro.lsm.snapshot import Snapshot
from repro.lsm.statistics import OpClass, Statistics, Ticker
from repro.lsm.write_batch import WriteBatch

__all__ = [
    "DB",
    "Env",
    "FaultFS",
    "KVModel",
    "MemFileSystem",
    "Options",
    "Snapshot",
    "WriteBatch",
    "Statistics",
    "Ticker",
    "OpClass",
    "check_crash_invariants",
]
