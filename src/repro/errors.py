"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without masking programming errors.

``ValueError`` is raised only for constructor or argument checks: in
``__init__``/``__post_init__``, or under an ``if`` that tests what the
caller passed in. Anything else (damaged bytes, an unknown scenario, an
unparseable option value) raises a typed error from this module.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class OptionError(ReproError):
    """An LSM option was unknown, mistyped, or out of range."""


class UnknownOptionError(OptionError):
    """An option name does not exist in the catalog (e.g. hallucinated)."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown option: {name!r}")
        self.name = name


class ImmutableOptionError(OptionError):
    """An option cannot be changed on a live DB (requires a reopen)."""

    def __init__(self, name: str) -> None:
        super().__init__(f"immutable option: {name!r} (requires reopen)")
        self.name = name


class DeprecatedOptionError(OptionError):
    """An option exists but is deprecated and must not be tuned."""

    def __init__(self, name: str) -> None:
        super().__init__(f"deprecated option: {name!r}")
        self.name = name


class InvalidOptionValueError(OptionError):
    """A value failed type or range validation for its option."""

    def __init__(self, name: str, value: object, reason: str) -> None:
        super().__init__(f"invalid value for {name!r}: {value!r} ({reason})")
        self.name = name
        self.value = value
        self.reason = reason


class OptionsFileError(ReproError):
    """The OPTIONS ini file could not be parsed."""


class DBError(ReproError):
    """Generic LSM engine failure."""


class DBClosedError(DBError):
    """Operation attempted on a closed database."""


class CorruptionError(DBError):
    """On-disk state (WAL record, SSTable block, manifest) failed a check."""


class SimulatedCrash(DBError):
    """The fault-injection layer killed the simulated process.

    Raised by :class:`repro.lsm.faults.FaultFS` when a scheduled crash
    point fires (and on every filesystem call afterwards, until the
    harness calls ``crash()`` to materialize the post-crash disk).
    """


class InjectedIOError(DBError):
    """A transient I/O failure injected by the fault layer."""


class RoutingError(ReproError):
    """A routing policy could not satisfy a topology request (e.g. a
    split on a policy without resharding support, or a donor shard with
    too few virtual nodes to give half away)."""


class NoLiveReplicaError(ReproError):
    """A replica group has no live member left to lead: every replica
    died while provisioning, or the leader died with no live follower
    to promote."""


class MisroutedRequestError(ReproError):
    """A request reached a shard the routing policy does not map it to.

    A request is hashed once, at enqueue, and its queue entry carries
    that route. At serve time the service maps the carried route to an
    owner under the policy's *current* layout; an owner other than the
    serving shard means the layout changed under the queued request
    without migrating it (the bug class the single-policy-object design
    exists to prevent).
    """

    def __init__(self, key: bytes, shard: int, owner: int) -> None:
        super().__init__(
            f"request for key {key!r} served on shard {shard}, but the "
            f"routing policy maps it to shard {owner}"
        )
        self.key = key
        self.shard = shard
        self.owner = owner


class AuditUnavailableError(ReproError):
    """The write-audit oracle was asked to check a run it cannot check:
    the audit was not enabled before the run, or the shards it reads
    are already closed."""


class WorkloadError(ReproError):
    """A benchmark workload specification was invalid."""


class BenchmarkParseError(ReproError):
    """A db_bench-style report could not be parsed."""


class LLMResponseError(ReproError):
    """The LLM response could not be interpreted as a config change."""
