"""Tests for phased workloads: mid-run mix/skew shifts."""

from dataclasses import replace

import pytest

from repro.bench.runner import DbBench
from repro.bench.spec import (
    PHASEDMIX,
    SERVICE_WORKLOADS,
    WorkloadPhase,
    WorkloadSpec,
    workload,
)
from repro.errors import WorkloadError
from repro.service.clients import GET, PUT, SimClient


def _spec(**overrides):
    base = dict(
        name="phasetest",
        num_ops=2000,
        num_keys=1000,
        preload_keys=0,
        read_fraction=0.0,
        distribution="uniform",
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestWorkloadPhase:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadPhase(at_fraction=0.0, read_fraction=0.5)
        with pytest.raises(WorkloadError):
            WorkloadPhase(at_fraction=1.0, read_fraction=0.5)
        with pytest.raises(WorkloadError):
            WorkloadPhase(at_fraction=0.5, read_fraction=1.5)
        with pytest.raises(WorkloadError):
            WorkloadPhase(at_fraction=0.5)  # must change something

    def test_phases_must_be_ordered(self):
        a = WorkloadPhase(at_fraction=0.6, read_fraction=0.5)
        b = WorkloadPhase(at_fraction=0.3, read_fraction=0.9)
        with pytest.raises(WorkloadError):
            _spec(phases=(a, b))
        with pytest.raises(WorkloadError):
            _spec(phases=(a, a))
        _spec(phases=(b, a))  # ascending is fine

    def test_schedule_resolves_inherited_fields(self):
        spec = _spec(
            read_fraction=0.1,
            phases=(
                WorkloadPhase(at_fraction=0.25, read_fraction=0.9),
                WorkloadPhase(at_fraction=0.5, distribution="zipfian"),
            ),
        )
        assert spec.schedule(2000) == [
            (0, 0.1, "uniform"),
            (500, 0.9, "uniform"),
            (1000, 0.9, "zipfian"),  # read_fraction inherited from phase 1
        ]

    def test_unphased_schedule_is_one_segment(self):
        assert _spec().schedule(2000) == [(0, 0.0, "uniform")]

    def test_with_phases_and_scaled_survive(self):
        spec = replace(
            _spec(), phases=(WorkloadPhase(at_fraction=0.5, read_fraction=1.0),)
        )
        scaled = spec.scaled(2.0)
        assert scaled.phases == spec.phases

    def test_phasedmix_is_registered_as_service_workload(self):
        assert "phasedmix" in SERVICE_WORKLOADS
        assert PHASEDMIX.phases
        assert workload("phasedmix").phases == PHASEDMIX.phases


class TestRunnerPhases:
    def test_mix_shifts_at_boundary(self):
        spec = _spec(
            num_ops=4000,
            read_fraction=0.0,
            preload_keys=500,
            phases=(WorkloadPhase(at_fraction=0.5, read_fraction=1.0),),
        )
        result = DbBench(spec).run()
        # First half pure writes, second half pure reads.
        assert result.writes_done == 2000
        assert result.reads_done == 2000

    def test_phased_run_is_deterministic(self):
        spec = _spec(
            num_ops=3000,
            preload_keys=500,
            phases=(
                WorkloadPhase(
                    at_fraction=0.4, read_fraction=0.7, distribution="zipfian"
                ),
            ),
        )
        a = DbBench(spec).run().fingerprint()
        b = DbBench(spec).run().fingerprint()
        assert a == b

    def test_unphased_behaviour_unchanged(self):
        # The phase plumbing must be invisible for steady-state specs:
        # same fingerprint as an identical spec built without the field.
        plain = _spec(num_ops=1500, read_fraction=0.3, preload_keys=200)
        explicit = _spec(
            num_ops=1500, read_fraction=0.3, preload_keys=200, phases=()
        )
        assert DbBench(plain).run().fingerprint() == (
            DbBench(explicit).run().fingerprint()
        )


class TestClientPhases:
    def _requests(self, spec, num_requests=1000):
        client = SimClient(0, spec, num_requests, mean_interarrival_us=50.0)
        return list(client.requests())

    def test_mix_shifts_at_client_stream_fraction(self):
        spec = _spec(
            read_fraction=0.0,
            phases=(WorkloadPhase(at_fraction=0.5, read_fraction=1.0),),
        )
        requests = self._requests(spec, 1000)
        assert all(r.kind == PUT for r in requests[:500])
        assert all(r.kind == GET for r in requests[500:])

    def test_phase_lands_at_same_fraction_for_any_split(self):
        # A phase is applied per client stream: whatever the client
        # count, each stream switches at its own midpoint.
        spec = _spec(
            read_fraction=0.0,
            phases=(WorkloadPhase(at_fraction=0.5, read_fraction=1.0),),
        )
        for n in (400, 1000):
            requests = self._requests(spec, n)
            kinds = [r.kind for r in requests]
            assert kinds == [PUT] * (n // 2) + [GET] * (n - n // 2)

    def test_keygen_swap_is_deterministic(self):
        spec = _spec(
            distribution="uniform",
            phases=(WorkloadPhase(at_fraction=0.5, distribution="zipfian"),),
        )
        a = [(r.kind, r.key, r.arrival_us) for r in self._requests(spec)]
        b = [(r.kind, r.key, r.arrival_us) for r in self._requests(spec)]
        assert a == b

    def test_unphased_stream_unchanged_by_plumbing(self):
        plain = _spec(read_fraction=0.4)
        explicit = _spec(read_fraction=0.4, phases=())
        a = [(r.kind, r.key) for r in self._requests(plain)]
        b = [(r.kind, r.key) for r in self._requests(explicit)]
        assert a == b
