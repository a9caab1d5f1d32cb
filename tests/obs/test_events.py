"""Tests for the trace-event vocabulary and its serialization."""

import pytest

from repro.obs.events import (
    BenchProgress,
    IterationEnd,
    StallEvent,
    TraceError,
    event_from_dict,
    event_to_dict,
    event_types,
    from_jsonl_line,
    sample_events,
    to_jsonl_line,
)


class TestRegistry:
    def test_registry_is_populated(self):
        types = event_types()
        assert len(types) >= 25
        assert "bench.progress" in types
        assert "engine.flush.run" in types
        assert "tune.iteration.end" in types
        assert "exec.task.start" in types
        assert "service.start" in types
        assert "service.group_commit" in types
        assert "service.shard" in types
        assert "service.end" in types

    def test_type_strings_are_namespaced(self):
        for type_string in event_types():
            namespace = type_string.split(".", 1)[0]
            assert namespace in {"span", "engine", "bench", "tune", "exec",
                                 "fault", "service", "iterator",
                                 "multiget", "db", "workload", "replica"}, (
                type_string
            )

    def test_every_type_has_a_sample(self):
        sampled = {type(e).TYPE for e in sample_events()}
        assert sampled == set(event_types())


class TestRoundTrip:
    @pytest.mark.parametrize(
        "event", list(sample_events()), ids=lambda e: type(e).TYPE
    )
    def test_jsonl_round_trip_is_identity(self, event):
        assert from_jsonl_line(to_jsonl_line(event)) == event

    def test_dict_round_trip_is_identity(self):
        event = StallEvent("delayed", "level0 slowdown trigger", 125.5)
        event.t_us = 42.0
        assert event_from_dict(event_to_dict(event)) == event

    def test_dict_carries_type_and_timestamp(self):
        event = BenchProgress(500, 1000, 0.5, 1000.0)
        payload = event_to_dict(event)
        assert payload["type"] == "bench.progress"
        assert payload["t_us"] == 0.0

    def test_jsonl_lines_have_sorted_keys(self):
        line = to_jsonl_line(BenchProgress(500, 1000, 0.5, 1000.0))
        keys = [part.split(":")[0].strip('"{') for part in line.split(",")]
        assert keys == sorted(keys)


class TestErrors:
    def test_unknown_type_raises(self):
        with pytest.raises(TraceError):
            event_from_dict({"type": "no.such.event"})

    def test_missing_type_raises(self):
        with pytest.raises(TraceError):
            event_from_dict({"ops_done": 3})

    def test_bad_field_raises(self):
        with pytest.raises(TraceError):
            event_from_dict({"type": "bench.progress", "bogus_field": 1})

    def test_malformed_json_raises(self):
        with pytest.raises(TraceError):
            from_jsonl_line("{not json")


class TestCompatibility:
    def test_progress_event_positional_construction(self):
        # BenchProgress(done, total, elapsed, ops) builds positionally:
        # t_us is keyword-only with a default.
        event = BenchProgress(500, 1000, 0.5, 1000.0)
        assert event.ops_done == 500
        assert event.t_us == 0.0

    def test_iteration_end_normalizes_change_pairs(self):
        event = IterationEnd(1, True, 123.0, changes=[("a", 1), ("b", 2)])
        assert event.changes == [["a", 1], ["b", 2]]
        assert from_jsonl_line(to_jsonl_line(event)) == event
