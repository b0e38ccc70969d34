"""Workload inputs and the closed-loop HTTP clients.

Everything a run sends is a pure function of the workload name and the
``--seed`` argument: the data set, the hot pool of ``hot-sharded``, the
distinct query streams of ``cold-flat`` and ``lsm-churn`` and the
insert/delete mix of the ``lsm-churn`` writer.  The server only ever
receives the generated data file and its start-up flags.

Each client is a closed loop over one persistent HTTP/1.1 connection:
it sends its next request only after the previous reply has been read
in full.  Requests are encoded before they are timed, so the client's
own cost between send and receive is the socket round trip alone.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Data shape shared by all three workloads (uniform in the unit cube).
CARDINALITY = 20_000
DIMENSIONALITY = 16
K = 10
CLIENTS = 2

#: ``hot-sharded`` pool sizes: 128 + 32 + 16 = 176 distinct requests,
#: well inside the default 1024-entry result cache, so nothing is
#: evicted and every repeat after a first touch is a hit.
HOT_QUERIES = 128
HOT_FREQUENT = 32
HOT_BATCHES = 16
HOT_BATCH_ROWS = 16
HOT_MIX = (0.7, 0.2, 0.1)  # query, frequent, batch
HOT_ZIPF_S = 1.1
HOT_QUERY_NS = (4, 8, 12)
HOT_FREQUENT_RANGES = ((4, 8), (8, 12))

#: ``lsm-churn`` writer: inserts to deletes at about 3:1.
LSM_INSERT_SHARE = 0.75
#: Post-window oracle queries over the final live set.
LSM_CHECK_QUERIES = 16

TRACE_HEADER = "X-Repro-Trace"
QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only


def make_data(seed: int, cardinality: int = CARDINALITY) -> np.ndarray:
    """The workload's point set (the same for every workload of a seed)."""
    rng = np.random.default_rng([seed, 0])
    return rng.random((cardinality, DIMENSIONALITY))


def trace_header(client: int, index: int) -> str:
    """A W3C-traceparent value naming one request of one client.

    The server adopts it as the request's trace context, which is how
    the traced run joins a server-side span tree to the client's wall
    time for the same request.
    """
    return f"00-{client + 1:016x}{index + 1:016x}-{1:016x}-01"


def request_of_trace(trace_id: str) -> Tuple[int, int]:
    """Invert :func:`trace_header` on the 32-hex trace id."""
    return int(trace_id[:16], 16) - 1, int(trace_id[16:], 16) - 1


def _body(payload: Dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One request: where it goes, its bytes and what the oracle needs."""

    path: str
    body: bytes
    spec: Tuple


class DistinctQueries:
    """Never-repeating ``/v1/query`` requests (k=10, n=8)."""

    def __init__(self, seed: int, stream: int, extra: Optional[Dict] = None):
        self._rng = np.random.default_rng([seed, stream])
        self._extra = extra or {}
        self._pending: List[Request] = []

    def next(self) -> Request:
        if not self._pending:
            rows = self._rng.random((256, DIMENSIONALITY))
            self._pending = [
                Request(
                    "/v1/query",
                    _body({"query": row.tolist(), "k": K, "n": 8, **self._extra}),
                    ("query", tuple(row.tolist()), K, 8),
                )
                for row in rows[::-1]
            ]
        return self._pending.pop()

    def on_response(self, status: int, body: bytes) -> None:
        pass


class HotPool:
    """Zipf-skewed draws from a fixed pool of query/frequent/batch requests.

    The pool and the rank-to-entry permutation come from the seed; each
    client draws its own stream from it.  Requests carry
    ``engine="auto"``, so a first touch of each (k, n-range) plans cold.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.entries: List[List[Request]] = [[], [], []]
        for _ in range(HOT_QUERIES):
            row = rng.random(DIMENSIONALITY).tolist()
            n = int(rng.choice(HOT_QUERY_NS))
            self.entries[0].append(Request(
                "/v1/query",
                _body({"query": row, "k": K, "n": n, "engine": "auto"}),
                ("query", tuple(row), K, n),
            ))
        for _ in range(HOT_FREQUENT):
            row = rng.random(DIMENSIONALITY).tolist()
            n0, n1 = HOT_FREQUENT_RANGES[int(rng.integers(2))]
            self.entries[1].append(Request(
                "/v1/frequent",
                _body({
                    "query": row, "k": K, "n_range": [n0, n1],
                    "engine": "auto",
                }),
                ("frequent", tuple(row), K, (n0, n1)),
            ))
        for _ in range(HOT_BATCHES):
            rows = rng.random((HOT_BATCH_ROWS, DIMENSIONALITY)).tolist()
            self.entries[2].append(Request(
                "/v1/batch",
                _body({"queries": rows, "k": K, "n": 8, "engine": "auto"}),
                ("batch", tuple(map(tuple, rows)), K, 8),
            ))
        self.weights = [
            _zipf_weights(len(pool), rng) for pool in self.entries
        ]


def _zipf_weights(size: int, rng) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** -HOT_ZIPF_S
    return rng.permutation(weights / weights.sum())


class HotStream:
    """One client's draws from a :class:`HotPool`."""

    def __init__(self, pool: HotPool, seed: int, client: int):
        self._pool = pool
        self._rng = np.random.default_rng([seed, 2, client])
        self._pending: List[Request] = []

    def next(self) -> Request:
        if not self._pending:
            kinds = self._rng.choice(3, size=512, p=HOT_MIX)
            picks: List[Optional[Request]] = [None] * kinds.size
            for kind, entries in enumerate(self._pool.entries):
                where = np.flatnonzero(kinds == kind)
                chosen = self._rng.choice(
                    len(entries), size=where.size, p=self._pool.weights[kind]
                )
                for slot, entry in zip(where, chosen):
                    picks[slot] = entries[entry]
            self._pending = picks[::-1]
        return self._pending.pop()

    def on_response(self, status: int, body: bytes) -> None:
        pass


class ChurnWriter:
    """The ``lsm-churn`` writer: inserts and deletes at about 3:1.

    It is the only writer, so it tracks the live set exactly: pids come
    from the insert acks, and deletes pick a live pid at random.  Acks
    must carry strictly rising pids (inserts) and generations (all).
    """

    def __init__(self, seed: int, initial: np.ndarray):
        self._rng = np.random.default_rng([seed, 3])
        self.live: Dict[int, Tuple[float, ...]] = {
            pid: tuple(row) for pid, row in enumerate(initial.tolist())
        }
        self._live_ids: List[int] = list(self.live)
        self._sent: Optional[Tuple] = None
        self.last_pid = len(initial) - 1
        self.last_generation = 0
        self.violations: List[str] = []

    def next(self) -> Request:
        if self._rng.random() < LSM_INSERT_SHARE or not self._live_ids:
            point = tuple(self._rng.random(DIMENSIONALITY).tolist())
            self._sent = ("insert", point)
            return Request("/v1/insert", _body({"point": list(point)}),
                           ("insert",))
        slot = int(self._rng.integers(len(self._live_ids)))
        pid = self._live_ids[slot]
        self._live_ids[slot] = self._live_ids[-1]
        self._live_ids.pop()
        self._sent = ("delete", pid)
        return Request("/v1/delete", _body({"pid": pid}), ("delete",))

    def on_response(self, status: int, body: bytes) -> None:
        op, value = self._sent
        if status != 200:
            if op == "delete":  # the server kept it: so does the live set
                self._live_ids.append(value)
            return
        ack = json.loads(body)
        generation = int(ack["generation"])
        if generation <= self.last_generation:
            self.violations.append(
                f"generation {generation} after {self.last_generation}"
            )
        self.last_generation = generation
        if op == "insert":
            pid = int(ack["pid"])
            if pid <= self.last_pid:
                self.violations.append(f"pid {pid} after {self.last_pid}")
            self.last_pid = pid
            self.live[pid] = value
            self._live_ids.append(pid)
        else:
            del self.live[value]


def streams_for(workload: str, seed: int, data: np.ndarray):
    """The per-client request streams of one workload (client order)."""
    if workload == "cold-flat":
        return [DistinctQueries(seed, 10 + client) for client in range(CLIENTS)]
    if workload == "hot-sharded":
        pool = HotPool(seed)
        return [HotStream(pool, seed, client) for client in range(CLIENTS)]
    if workload == "lsm-churn":
        return [ChurnWriter(seed, data), DistinctQueries(seed, 20)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_requests(workload: str, seed: int) -> List[Request]:
    """A few requests outside the measured stream, sent before timing.

    They build the lazily constructed engines and warm the sockets.  On
    ``hot-sharded`` they use k=5, so they plan and cache under keys the
    measured pool never uses: every pool entry is still cold at t=0.
    """
    extra = {"engine": "auto", "k": 5} if workload == "hot-sharded" else {}
    stream = DistinctQueries(seed, 30, extra)
    return [stream.next() for _ in range(4)]


# ----------------------------------------------------------------------
# the client loop
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One completed (or failed) request as the client saw it."""

    client: int
    index: int
    path: str
    spec: Tuple
    start: float
    end: float
    status: int
    queue_ms: float
    cache: str
    body: bytes = field(repr=False)


def post(conn: http.client.HTTPConnection, request: Request,
         trace: Optional[str] = None) -> Tuple[int, Dict[str, str], bytes]:
    """One request/response on a keep-alive connection.

    The server writes a response's headers and body in two sends, so
    with Nagle's algorithm the body waits for the client to ACK the
    headers.  A client that delays that ACK (Linux does, on a busy
    connection) stalls every response by ~40 ms, which would swamp every
    layer this benchmark measures.  The client therefore asks for an
    immediate ACK before reading each response.
    """
    headers = {"Content-Type": "application/json"}
    if trace is not None:
        headers[TRACE_HEADER] = trace
    conn.request("POST", request.path, request.body, headers)
    if QUICKACK is not None:
        conn.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
    response = conn.getresponse()
    body = response.read()
    return response.status, dict(response.getheaders()), body


def closed_loop(host: str, port: int, client: int, stream, deadline: float,
                samples: List[Sample], timeout: float = 30.0) -> None:
    """Send requests back to back until ``deadline``; append a sample each.

    A transport error (timeout, reset) is recorded with status 0 and
    the connection is reopened.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    index = 0
    try:
        while time.perf_counter() < deadline:
            request = stream.next()
            trace = trace_header(client, index)
            started = time.perf_counter()
            try:
                status, headers, body = post(conn, request, trace)
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=timeout)
                status, headers, body = 0, {}, b""
            ended = time.perf_counter()
            stream.on_response(status, body)
            samples.append(Sample(
                client, index, request.path, request.spec, started, ended,
                status, float(headers.get("X-Repro-Queue-Ms", "nan")),
                headers.get("X-Repro-Cache", ""), body,
            ))
            index += 1
    finally:
        conn.close()
