"""Trace-schema gate: every registered event survives JSONL round-trip.

Run by ``scripts/check.sh``. For each event type in the registry a
sample instance is built, serialized to a JSON line, parsed back, and
compared for equality — so a field added without JSON-compatible types,
a renamed ``TYPE`` string, or a broken ``__post_init__`` normalization
fails the build before it can corrupt stored traces.
"""

from __future__ import annotations

import sys

from repro.obs.events import (
    event_from_dict,
    event_to_dict,
    event_types,
    from_jsonl_line,
    sample_events,
    to_jsonl_line,
)


#: Namespaces the schema must cover; an accidental deregistration of a
#: whole subsystem's events (e.g. the service layer) fails loudly.
REQUIRED_NAMESPACES = {
    "span", "engine", "bench", "tune", "exec", "fault", "service",
    "iterator", "multiget", "db", "workload", "replica",
}

#: The service layer's event vocabulary, pinned by name: trace
#: consumers (the determinism gate, dashboards) key on these strings.
REQUIRED_SERVICE_TYPES = {
    "service.start",
    "service.group_commit",
    "service.shard",
    "service.end",
    "service.progress",
    "service.reshard.begin",
    "service.reshard.end",
    "service.failover.begin",
    "service.failover.end",
    "replica.ship",
    "replica.crash",
    "replica.promote",
    "db.set_options",
    "workload.drift",
}


def main() -> int:
    samples = list(sample_events())
    sampled_types = {type(e).TYPE for e in samples}
    missing = set(event_types()) - sampled_types
    if missing:
        print(f"FAIL: no sample generated for: {sorted(missing)}",
              file=sys.stderr)
        return 1
    namespaces = {t.split(".", 1)[0] for t in sampled_types}
    if not REQUIRED_NAMESPACES <= namespaces:
        print(f"FAIL: missing event namespaces: "
              f"{sorted(REQUIRED_NAMESPACES - namespaces)}", file=sys.stderr)
        return 1
    if not REQUIRED_SERVICE_TYPES <= sampled_types:
        print(f"FAIL: missing service events: "
              f"{sorted(REQUIRED_SERVICE_TYPES - sampled_types)}",
              file=sys.stderr)
        return 1
    failures = 0
    for event in samples:
        line = to_jsonl_line(event)
        back = from_jsonl_line(line)
        if back != event:
            print(f"FAIL: {type(event).TYPE} JSONL round-trip mismatch:\n"
                  f"  sent: {event!r}\n  got:  {back!r}", file=sys.stderr)
            failures += 1
            continue
        if event_from_dict(event_to_dict(event)) != event:
            print(f"FAIL: {type(event).TYPE} dict round-trip mismatch",
                  file=sys.stderr)
            failures += 1
    if failures:
        return 1
    print(f"trace schema OK: {len(samples)} event types round-trip")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
