"""Remote embedding client tests against an in-process HTTP server.

The mock server follows a scripted sequence of responses per test and counts
the connections it accepts, so retry behaviour (attempt counts,
non-retryable 4xx, recovery after 503) and connection reuse are observable
without a real service."""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from nanocorona.cache import CachedProvider, EmbeddingStore
from nanocorona.errors import (DimensionError, HttpError, ProviderError,
                               TimeoutExhaustedError)
from nanocorona.prompts import canonical_hash
from nanocorona.providers import BATCH
from nanocorona.remote import RemoteProvider, remote_embed

DIM = 8


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Pops the next scripted response from server.script on each POST;
    a bytes payload is sent as it is, anything else as JSON."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append((self.path, body))
        status, payload = self.server.script.pop(0)
        data = payload if isinstance(payload, bytes) \
            else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_ScriptedHandler):
    """HTTP/1.1: the connection stays open for the client's next request."""

    protocol_version = "HTTP/1.1"
    timeout = 5  # a client that never closes cannot hold the server forever


class _DroppingHandler(_KeepAliveHandler):
    """HTTP/1.1 without `Connection: close`, yet closes after each response,
    as a server does when its idle keep-alive timeout expires."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _CountingServer(HTTPServer):
    """Serves one connection at a time and counts the connections."""

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.script = []
        self.requests = []
        self.connections = 0

    def finish_request(self, request, client_address):
        self.connections += 1
        super().finish_request(request, client_address)


def _serve(handler):
    server = _CountingServer(handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def mock_server():
    yield from _serve(_ScriptedHandler)


@pytest.fixture()
def keep_alive_server():
    yield from _serve(_KeepAliveHandler)


@pytest.fixture()
def dropping_server():
    yield from _serve(_DroppingHandler)


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

    def test_timeout_retried_then_exhausted(self):
        # the kernel's backlog completes the connect, and nothing ever reads
        # the request or answers it
        with socket.create_server(("127.0.0.1", 0)) as listener:
            endpoint = f"http://127.0.0.1:{listener.getsockname()[1]}"
            with pytest.raises(TimeoutExhaustedError, match="last: timeout"):
                remote_embed(endpoint, "protein", "ACDE", DIM,
                             retries=2, backoff=0.01, timeout=0.2)

    @pytest.mark.parametrize("payload", [
        b"not json", [1, 2], {"dim": DIM, "vector": "abc"},
        {"dim": DIM}, {"dim": DIM, "vector": ["x"] * DIM},
        {"dim": DIM, "vector": [float("nan")] + [0.0] * (DIM - 1)}])
    def test_malformed_body_is_a_provider_error_without_retry(
            self, mock_server, payload):
        mock_server.script = [(200, payload)]
        with pytest.raises(ProviderError):
            remote_embed(_endpoint(mock_server), "text", "x", DIM,
                         retries=3, backoff=0.01)
        assert len(mock_server.requests) == 1


class TestRemoteProvider:
    def test_embed_delegates(self, mock_server):
        mock_server.script = [_ok([2.0] * DIM)]
        provider = RemoteProvider(_endpoint(mock_server), "text", DIM,
                                  backoff=0.01)
        assert provider.dim == DIM
        assert provider.modality == "text"
        vec = provider.embed(["a prompt"])[0]
        assert np.array_equal(vec, np.full(DIM, 2.0, dtype=np.float32))
        assert mock_server.requests[0][1]["modality"] == "text"

    @pytest.mark.parametrize("server, connections", [
        ("keep_alive_server", 1), ("mock_server", 4)])
    def test_one_connection_serves_every_call(self, server, connections,
                                              request):
        # an HTTP/1.1 server keeps one connection for every call; an
        # HTTP/1.0 one (like the benchmark's stub) closes it after each
        # response, and each call then opens a new one
        server = request.getfixturevalue(server)
        server.script = [_ok([float(i)] * DIM) for i in range(4)]
        provider = RemoteProvider(_endpoint(server), "text", DIM,
                                  backoff=0.01)
        try:
            for i in range(4):
                assert np.array_equal(
                    provider.embed([f"prompt {i}"])[0],
                    np.full(DIM, float(i), dtype=np.float32))
        finally:
            provider.connection.close()
        assert len(server.requests) == 4
        assert server.connections == connections

    @pytest.mark.parametrize("server, connections", [
        ("keep_alive_server", 1), ("mock_server", 4)])
    def test_list_makes_one_request_per_input(self, server, connections,
                                              request):
        server = request.getfixturevalue(server)
        server.script = [_ok([float(i)] * DIM) for i in range(4)]
        provider = RemoteProvider(_endpoint(server), "text", DIM,
                                  backoff=0.01)
        texts = [f"prompt {i}" for i in range(4)]
        try:
            assert provider.embed([]) == []
            vectors = provider.embed(texts)
        finally:
            provider.connection.close()
        for i, vec in enumerate(vectors):
            assert np.array_equal(vec, np.full(DIM, float(i),
                                               dtype=np.float32))
        assert [body for _, body in server.requests] == [
            {"modality": "text", "input": text} for text in texts]
        assert server.connections == connections

    def test_cached_batch_stores_chunks_before_a_failed_one(
            self, keep_alive_server, tmp_path):
        # the last input's request gets a 400: every earlier chunk is
        # stored, and nothing of the failed chunk, whose first request
        # succeeded
        texts = [f"prompt {i}" for i in range(BATCH + 2)]
        keep_alive_server.script = ([_ok([float(i)] * DIM)
                                     for i in range(BATCH + 1)]
                                    + [(400, {"error": "bad request"})])
        provider = RemoteProvider(_endpoint(keep_alive_server), "text", DIM,
                                  backoff=0.01)
        try:
            with pytest.raises(HttpError, match="400"):
                CachedProvider(provider, EmbeddingStore(
                    tmp_path / "emb.bin")).embed(texts)
        finally:
            provider.connection.close()
        assert len(keep_alive_server.requests) == BATCH + 2
        store = EmbeddingStore(tmp_path / "emb.bin")
        assert len(store) == BATCH
        for i, text in enumerate(texts[:BATCH]):
            assert np.array_equal(store.get(canonical_hash(text))[1],
                                  np.full(DIM, float(i), dtype=np.float32))
        assert all(canonical_hash(t) not in store for t in texts[BATCH:])

    @pytest.mark.parametrize("retries", [1, 3])
    def test_stale_keep_alive_is_resent_at_once(self, dropping_server,
                                                retries):
        # the server drops each kept-alive connection after one response,
        # so every call after the first finds its socket closed; the
        # request goes again on a new socket, using no attempt and no sleep
        backoff = 5.0
        dropping_server.script = [_ok([float(i)] * DIM) for i in range(4)]
        provider = RemoteProvider(_endpoint(dropping_server), "text", DIM,
                                  retries=retries, backoff=backoff)
        start = time.perf_counter()
        try:
            for i in range(4):
                assert np.array_equal(
                    provider.embed([f"prompt {i}"])[0],
                    np.full(DIM, float(i), dtype=np.float32))
        finally:
            provider.connection.close()
        assert time.perf_counter() - start < backoff / 5
        assert len(dropping_server.requests) == 4
        assert dropping_server.connections == 4

    @pytest.mark.parametrize("endpoint", [
        "ftp://127.0.0.1:8000", "127.0.0.1:8000", "localhost:8000",
        "http://", "http:///embed", "http://127.0.0.1:port"])
    def test_malformed_endpoint_is_rejected_when_built(self, endpoint):
        with pytest.raises(ProviderError):
            RemoteProvider(endpoint, "text", DIM)
