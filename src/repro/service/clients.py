"""Simulated open-loop clients.

Each client is an independent, seeded request stream: arrival times
follow an exponential (Poisson) process on the *virtual* clock, and the
op mix depends on the client's role in the workload:

* ``mixed``  — reads with probability ``spec.read_fraction``, else puts
  (fillrandom/readrandom/readrandomwriterandom/mixgraph semantics).
* ``writer`` — every request is a put (the dedicated writer of
  ``readwhilewriting``).
* ``reader`` — every request is a point get.
* ``multireader`` — every request is a batched multi-get of
  ``spec.batch_size`` keys (``multireadrandom``).

Open-loop means arrivals never wait for completions: when a shard falls
behind, its queue grows and client-observed latency includes the queue
wait — the regime where group commit starts to matter.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from repro.bench.keygen import ValueGenerator, make_generator
from repro.bench.spec import WorkloadSpec
from repro.errors import WorkloadError

#: Request kinds a client can issue.
GET, PUT, MULTIGET = "get", "put", "multiget"


class Request(NamedTuple):
    """One client request, stamped with its open-loop arrival time.

    A tuple, not a frozen dataclass: one is built per request, and a
    tuple costs a third as much to build while staying immutable,
    hashable and comparable by value."""

    client: int
    index: int
    arrival_us: float
    kind: str  # GET | PUT | MULTIGET
    key: bytes = b""
    value: bytes = b""
    keys: tuple[bytes, ...] = ()


def client_role(spec: WorkloadSpec, client_id: int) -> str:
    """Role of ``client_id`` under this workload's semantics."""
    if spec.name == "readwhilewriting":
        return "writer" if client_id == 0 else "reader"
    if spec.batch_size > 1:
        return "multireader"
    return "mixed"


class SimClient:
    """One simulated client: a deterministic stream of requests."""

    def __init__(
        self,
        client_id: int,
        spec: WorkloadSpec,
        num_requests: int,
        mean_interarrival_us: float,
    ) -> None:
        if mean_interarrival_us <= 0:
            raise WorkloadError("interarrival time must be positive")
        self.client_id = client_id
        self.role = client_role(spec, client_id)
        self.num_requests = num_requests
        # Independent sub-streams per client, all derived from the spec
        # seed: two clients never share a random state.
        base = (spec.seed ^ (0x9E3779B9 * (client_id + 1))) & 0xFFFFFFFF
        self._arrivals = random.Random(base ^ 0xA221)
        self._mix = random.Random(base ^ 0xC0FFEE)
        self._keys = make_generator(spec.distribution, spec.num_keys, base)
        self._values = ValueGenerator(
            spec.value_size,
            pareto_sizes=spec.pareto_values,
            seed=base ^ 0xBEEF,
        )
        self._mean_us = mean_interarrival_us
        self._spec = spec
        self._base = base
        # Phased specs: each client resolves the shifts against its OWN
        # stream length, so a phase lands at the same stream fraction no
        # matter how ops were split across clients — the property that
        # keeps request streams independent of client count.
        self._segments = spec.schedule(num_requests)

    def requests(self, start_us: float = 0.0) -> Iterator[Request]:
        """Yield this client's whole request stream, arrival-stamped."""
        spec = self._spec
        now = start_us
        segments = self._segments
        segment = 0
        read_fraction = spec.read_fraction
        distribution = spec.distribution
        # Everything the loop reads per request, bound once.
        client, role = self.client_id, self.role
        interarrival = self._arrivals.expovariate
        rate = 1.0 / self._mean_us
        mix = self._mix.random
        next_key = self._keys.next_key
        next_value = self._values.next_value
        for index in range(self.num_requests):
            while (
                segment + 1 < len(segments)
                and index >= segments[segment + 1][0]
            ):
                segment += 1
                _start, read_fraction, new_dist = segments[segment]
                if new_dist != distribution:
                    distribution = new_dist
                    self._keys = make_generator(
                        distribution,
                        spec.num_keys,
                        self._base ^ (0xD41F7 + segment),
                    )
                    next_key = self._keys.next_key
            now += interarrival(rate)
            if role == "reader":
                yield Request(client, index, now, GET, next_key())
            elif role == "writer":
                yield Request(client, index, now, PUT, next_key(), next_value())
            elif role == "multireader":
                keys = tuple(next_key() for _ in range(spec.batch_size))
                yield Request(client, index, now, MULTIGET, keys=keys)
            else:  # mixed
                is_read = read_fraction >= 1.0 or (
                    read_fraction > 0.0 and mix() < read_fraction
                )
                if is_read:
                    yield Request(client, index, now, GET, next_key())
                else:
                    yield Request(
                        client, index, now, PUT, next_key(), next_value()
                    )


def build_clients(
    spec: WorkloadSpec,
    num_clients: int,
    mean_interarrival_us: float,
) -> list[SimClient]:
    """Split ``spec.num_ops`` requests across ``num_clients`` clients.

    The first ``num_ops % num_clients`` clients take one extra request,
    so totals always match the spec exactly.
    """
    if num_clients < 1:
        raise WorkloadError("need at least one client")
    per, extra = divmod(spec.num_ops, num_clients)
    return [
        SimClient(
            client_id=i,
            spec=spec,
            num_requests=per + (1 if i < extra else 0),
            mean_interarrival_us=mean_interarrival_us,
        )
        for i in range(num_clients)
    ]
