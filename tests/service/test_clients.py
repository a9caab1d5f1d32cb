"""Tests for the simulated open-loop clients."""

import pytest

from repro.bench.spec import workload
from repro.errors import WorkloadError
from repro.service.clients import (
    GET,
    MULTIGET,
    PUT,
    Request,
    SimClient,
    build_clients,
    client_role,
)


def spec_of(name, factor=0.1):
    return workload(name).scaled(factor)


class TestRoles:
    def test_readwhilewriting_has_one_writer(self):
        spec = spec_of("readwhilewriting")
        roles = [client_role(spec, i) for i in range(8)]
        assert roles[0] == "writer"
        assert all(r == "reader" for r in roles[1:])

    def test_multireadrandom_clients_are_multireaders(self):
        spec = spec_of("multireadrandom")
        assert client_role(spec, 0) == "multireader"

    def test_paper_workloads_are_mixed(self):
        spec = spec_of("readrandomwriterandom")
        assert client_role(spec, 0) == "mixed"
        assert client_role(spec, 3) == "mixed"


class TestRequest:
    def test_request_is_an_immutable_value(self):
        a = Request(3, 7, 12.5, PUT, key=b"k", value=b"v")
        b = Request(3, 7, 12.5, PUT, key=b"k", value=b"v")
        assert a == b and hash(a) == hash(b)
        assert a != Request(3, 7, 12.5, PUT, key=b"k", value=b"w")
        assert (a.client, a.index, a.arrival_us, a.kind) == (3, 7, 12.5, PUT)
        with pytest.raises(AttributeError):
            a.key = b"other"
        get = Request(0, 0, 1.0, GET, key=b"k")
        assert (get.value, get.keys) == (b"", ())


class TestStreams:
    def test_arrivals_strictly_increase(self):
        spec = spec_of("readwhilewriting")
        client = SimClient(1, spec, 100, mean_interarrival_us=50.0)
        last = 0.0
        for req in client.requests():
            assert req.arrival_us > last
            last = req.arrival_us

    def test_stream_is_deterministic(self):
        spec = spec_of("readwhilewriting")
        a = list(SimClient(2, spec, 50, 50.0).requests(start_us=7.0))
        b = list(SimClient(2, spec, 50, 50.0).requests(start_us=7.0))
        assert a == b

    def test_clients_have_independent_streams(self):
        spec = spec_of("readwhilewriting")
        a = list(SimClient(1, spec, 50, 50.0).requests())
        b = list(SimClient(2, spec, 50, 50.0).requests())
        assert [r.arrival_us for r in a] != [r.arrival_us for r in b]
        assert [r.key for r in a] != [r.key for r in b]

    def test_writer_emits_puts_readers_emit_gets(self):
        spec = spec_of("readwhilewriting")
        writer = SimClient(0, spec, 20, 50.0)
        reader = SimClient(1, spec, 20, 50.0)
        assert all(r.kind == PUT and r.value for r in writer.requests())
        assert all(r.kind == GET for r in reader.requests())

    def test_multireader_batches_have_spec_size(self):
        spec = spec_of("multireadrandom")
        client = SimClient(0, spec, 10, 50.0)
        for req in client.requests():
            assert req.kind == MULTIGET
            assert len(req.keys) == spec.batch_size

    def test_mixed_respects_read_fraction_extremes(self):
        from dataclasses import replace

        write_only = replace(spec_of("readrandomwriterandom"), read_fraction=0.0)
        assert all(
            r.kind == PUT for r in SimClient(0, write_only, 30, 50.0).requests()
        )

    def test_invalid_interarrival_rejected(self):
        with pytest.raises(WorkloadError):
            SimClient(0, spec_of("readwhilewriting"), 10, 0.0)


class TestBuildClients:
    def test_ops_split_exactly(self):
        spec = spec_of("readwhilewriting")
        clients = build_clients(spec, 7, 50.0)
        assert sum(c.num_requests for c in clients) == spec.num_ops
        # First remainder clients take one extra.
        sizes = [c.num_requests for c in clients]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_at_least_one_client(self):
        with pytest.raises(WorkloadError):
            build_clients(spec_of("readwhilewriting"), 0, 50.0)
