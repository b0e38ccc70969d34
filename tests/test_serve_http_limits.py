"""The HTTP shell refuses unreadable bodies before reading them.

Raw-socket tests: a ``Content-Length`` above
:data:`~repro.serve.server.MAX_BODY_BYTES` gets 413 without the server
waiting for (or reading) the body, and a non-numeric or negative one
gets 400.  Each refusal carries the canonical error body and closes the
connection; the server keeps answering afterwards.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.core.engine import MatchDatabase
from repro.serve import MatchServer, ServeApp
from repro.serve.protocol import canonical_json, error_payload
from repro.serve.server import MAX_BODY_BYTES


@pytest.fixture
def server():
    data = np.random.default_rng(5).random((40, 4))
    with MatchServer(ServeApp(MatchDatabase(data))) as running:
        yield running


def _exchange(server, request: bytes):
    """Send raw ``request`` bytes; return (status, headers, body)."""
    with socket.create_connection((server.host, server.port), timeout=5) as s:
        s.sendall(request)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines[1:])
    }
    return status, headers, body


def _post(length: str, body: bytes = b"") -> bytes:
    return (
        b"POST /v1/query HTTP/1.1\r\nHost: test\r\n"
        + f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
        .encode()
        + b"\r\n"
        + body
    )


def _healthy(server) -> bool:
    status, _, body = _exchange(
        server,
        b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    )
    return status == 200 and json.loads(body)["status"] == "ok"


class TestContentLength:
    def test_oversized_body_is_refused_unread(self, server):
        # Only the headers are sent: a server that tried to read the
        # declared body would block until the socket timeout.
        length = MAX_BODY_BYTES + 1
        status, headers, body = _exchange(server, _post(str(length)))
        assert status == 413
        assert headers["connection"] == "close"
        assert body == canonical_json(
            error_payload(
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        )
        assert _healthy(server)

    @pytest.mark.parametrize("length", ["abc", "-5", "1_0", "12abc"])
    def test_malformed_length_is_a_bad_request(self, server, length):
        status, headers, body = _exchange(server, _post(length, b"{}"))
        assert status == 400
        assert headers["connection"] == "close"
        assert body == canonical_json(
            error_payload(
                "bad_content_length",
                "Content-Length must be a non-negative integer; "
                f"got {length!r}",
            )
        )
        assert _healthy(server)

    def test_well_formed_post_still_answers(self, server):
        payload = canonical_json({"query": [0.5] * 4, "k": 2, "n": 2})
        status, _, body = _exchange(
            server,
            _post(str(len(payload)), payload).replace(
                b"Host: test\r\n", b"Host: test\r\nConnection: close\r\n"
            ),
        )
        assert status == 200
        assert len(json.loads(body)["result"]["ids"]) == 2
