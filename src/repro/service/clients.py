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

from repro.bench.runner import op_stream
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
        self._ops = op_stream(spec, num_requests, base)
        self._mean_us = mean_interarrival_us
        self._batch_size = spec.batch_size

    def requests(self, start_us: float = 0.0) -> Iterator[Request]:
        """Yield this client's whole request stream, arrival-stamped:
        :func:`~repro.bench.runner.op_stream` over the client's own
        stream length, so a phase lands at the same stream fraction no
        matter how ops were split across clients."""
        now = start_us
        client, role = self.client_id, self.role
        interarrival = self._arrivals.expovariate
        rate = 1.0 / self._mean_us
        batch = range(self._batch_size)
        for index, (is_read, next_key, next_value) in enumerate(self._ops):
            now += interarrival(rate)
            if role == "multireader":
                keys = tuple(next_key() for _ in batch)
                yield Request(client, index, now, MULTIGET, keys=keys)
            elif role == "reader" or (role == "mixed" and is_read):
                yield Request(client, index, now, GET, next_key())
            else:  # a writer, or a mixed client's put
                yield Request(client, index, now, PUT, next_key(), next_value())


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
