"""Remote embedding client tests against an in-process HTTP server.

The mock server follows a scripted sequence of responses per test, so
retry behaviour (attempt counts, non-retryable 4xx, recovery after 503)
is observable without a real service."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
import requests

from nanocorona.errors import DimensionError, HttpError, TimeoutExhaustedError
from nanocorona.remote import RemoteProvider, remote_embed

DIM = 8


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Pops the next scripted response from server.script on each POST."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append((self.path, body))
        status, payload = self.server.script.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def mock_server():
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _endpoint(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


def _ok(vector=None):
    vector = vector if vector is not None else [0.1] * DIM
    return (200, {"dim": len(vector), "vector": vector})


class TestRemoteEmbed:
    def test_success_first_try(self, mock_server):
        mock_server.script = [_ok(list(range(DIM)))]
        vec = remote_embed(_endpoint(mock_server), "protein", "ACDE", DIM)
        assert np.array_equal(vec, np.arange(DIM, dtype=np.float32))
        assert len(mock_server.requests) == 1
        path, body = mock_server.requests[0]
        assert path == "/embed"
        assert body == {"modality": "protein", "input": "ACDE"}

    def test_dim_mismatch_errors_without_retry(self, mock_server):
        mock_server.script = [(200, {"dim": 5, "vector": [0.0] * 5})]
        with pytest.raises(DimensionError):
            remote_embed(_endpoint(mock_server), "text", "x", DIM, retries=3)
        assert len(mock_server.requests) == 1

    def test_400_is_not_retried(self, mock_server):
        mock_server.script = [(400, {"error": "bad request"})]
        with pytest.raises(HttpError, match="400"):
            remote_embed(_endpoint(mock_server), "text", "x", DIM,
                         retries=3, backoff=0.01)
        assert len(mock_server.requests) == 1

    def test_two_503_then_success_within_three_attempts(self, mock_server):
        mock_server.script = [(503, {}), (503, {}),
                              _ok([1.0] * DIM)]
        vec = remote_embed(_endpoint(mock_server), "protein", "ACDE", DIM,
                           retries=3, backoff=0.01)
        assert np.array_equal(vec, np.ones(DIM, dtype=np.float32))
        assert len(mock_server.requests) == 3

    def test_exhaustion_after_persistent_503(self, mock_server):
        mock_server.script = [(503, {})] * 3
        with pytest.raises(TimeoutExhaustedError, match="503"):
            remote_embed(_endpoint(mock_server), "protein", "ACDE", DIM,
                         retries=3, backoff=0.01)
        assert len(mock_server.requests) == 3

    def test_connection_error_retried_then_exhausted(self):
        # nothing listens on this port
        with pytest.raises(TimeoutExhaustedError, match="connection"):
            remote_embed("http://127.0.0.1:9", "protein", "ACDE", DIM,
                         retries=2, backoff=0.01, timeout=0.2)


class TestRemoteProvider:
    def test_embed_delegates(self, mock_server):
        mock_server.script = [_ok([2.0] * DIM)]
        provider = RemoteProvider(_endpoint(mock_server), "text", DIM,
                                  backoff=0.01)
        assert provider.dim == DIM
        assert provider.modality == "text"
        vec = provider.embed("a prompt")
        assert np.array_equal(vec, np.full(DIM, 2.0, dtype=np.float32))
        assert mock_server.requests[0][1]["modality"] == "text"

    def test_one_session_serves_every_call(self, mock_server, monkeypatch):
        built = []

        class CountingSession(requests.Session):
            def __init__(self):
                super().__init__()
                built.append(self)
                self.posts = 0

            def post(self, *args, **kwargs):
                self.posts += 1
                return super().post(*args, **kwargs)

        monkeypatch.setattr(requests, "Session", CountingSession)
        mock_server.script = [_ok([float(i)] * DIM) for i in range(4)]
        provider = RemoteProvider(_endpoint(mock_server), "text", DIM,
                                  backoff=0.01)
        for i in range(4):
            assert np.array_equal(provider.embed(f"prompt {i}"),
                                  np.full(DIM, float(i), dtype=np.float32))
        assert len(built) == 1
        assert built[0].posts == 4
        assert len(mock_server.requests) == 4
