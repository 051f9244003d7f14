"""HTTP client for a remote embedding service.

Protocol: POST <endpoint>/embed with JSON {"modality": ..., "input": ...};
response JSON {"dim": N, "vector": [N floats]}.  4xx is non-retryable; 5xx,
timeouts and connection errors are retried with exponential backoff.

The client is the standard library's `http.client`, imported when the first
connection is built, so importing this module does not load it (nor the
`email` and `ssl` modules it pulls in).  The endpoint is dialled directly
(proxy environment variables are not read), and `https://` uses the default
SSL context.
"""

from __future__ import annotations

import json
import time
from urllib.parse import urlsplit

import numpy as np

from .errors import (DimensionError, HttpError, ProviderError,
                     TimeoutExhaustedError)
from .providers import EmbeddingProvider

_HEADERS = {"Content-Type": "application/json"}


class EmbedConnection:
    """One HTTP connection to `<endpoint>/embed`.

    The socket stays open across calls while the server keeps it alive
    (HTTP/1.1); after a response that says it will close, `http.client`
    opens a new one on the next call.  `errors` are the exceptions a failed
    exchange raises: socket errors and `http.client`'s own.
    """

    def __init__(self, endpoint: str, timeout: float):
        import http.client
        parts = urlsplit(endpoint)
        try:
            port = parts.port
        except ValueError as exc:
            raise ProviderError(f"endpoint {endpoint!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ProviderError(f"endpoint {endpoint!r} is not an http:// "
                                f"or https:// URL with a host")
        factory = (http.client.HTTPSConnection if parts.scheme == "https"
                   else http.client.HTTPConnection)
        self.errors = (OSError, http.client.HTTPException)
        self.url = endpoint.rstrip("/") + "/embed"
        self._path = parts.path.rstrip("/") + "/embed"
        self._http = factory(parts.hostname, port, timeout=timeout)

    def post(self, body: bytes) -> tuple[int, bytes]:
        """Send one POST and return the status and the whole response body.

        A kept-alive socket that the server has closed while idle fails
        before any response byte; the request then goes once more, at once,
        on a new socket.  Any other failure closes the socket and propagates.
        """
        reused = self._http.sock is not None
        try:
            try:
                response = self._send(body)
            except (ConnectionResetError, BrokenPipeError):
                # http.client.RemoteDisconnected is a ConnectionResetError
                if not reused:
                    raise
                self._http.close()
                response = self._send(body)
            return response.status, response.read()
        except self.errors:
            self._http.close()
            raise

    def _send(self, body: bytes):
        self._http.request("POST", self._path, body, _HEADERS)
        return self._http.getresponse()

    def close(self) -> None:
        self._http.close()


def _parse_vector(data: bytes, dim: int, source: str) -> np.ndarray:
    """The vector of a 200 response body; malformed bodies raise E_PROVIDER."""
    try:
        body = json.loads(data)
    except ValueError as exc:
        raise ProviderError(f"{source} returned a body that is not JSON: "
                            f"{exc}") from None
    vector = body.get("vector") if isinstance(body, dict) else None
    if not isinstance(vector, list):
        raise ProviderError(f"{source} returned no 'vector' list")
    try:
        vec = np.asarray(vector, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise ProviderError(f"{source} returned a non-numeric vector: "
                            f"{exc}") from None
    if body.get("dim") != dim or vec.shape != (dim,):
        raise DimensionError(f"service returned dim {body.get('dim')} "
                             f"(shape {vec.shape}), expected {dim}")
    if not np.all(np.isfinite(vec)):
        raise ProviderError(f"{source} returned non-finite values")
    return vec


def remote_embed(endpoint: str, modality: str, input_text: str, dim: int,
                 retries: int = 3, backoff: float = 0.5,
                 timeout: float = 30.0,
                 connection: EmbedConnection | None = None) -> np.ndarray:
    """Fetch one embedding, retrying transient failures up to `retries` attempts.

    Without `connection`, one is opened with `timeout` for this call and
    closed before it returns; a given connection keeps its own timeout.
    """
    conn = connection or EmbedConnection(endpoint, timeout)
    body = json.dumps({"modality": modality, "input": input_text}).encode()
    last_transient = None
    try:
        for attempt in range(retries):
            if attempt:
                time.sleep(backoff * 2 ** (attempt - 1))
            try:
                status, data = conn.post(body)
            except TimeoutError as exc:
                last_transient = f"timeout: {exc}"
                continue
            except conn.errors as exc:
                last_transient = f"connection error: {exc}"
                continue
            if status == 200:
                return _parse_vector(data, dim, endpoint)
            if 400 <= status < 500:
                raise HttpError(f"status {status} from {conn.url}")
            last_transient = f"status {status}"
    finally:
        if connection is None:
            conn.close()
    raise TimeoutExhaustedError(
        f"{retries} attempts to {conn.url} failed; last: {last_transient}")


class RemoteProvider(EmbeddingProvider):
    """Provider backed by the remote embedding service.

    One `EmbedConnection` serves every call, so calls reuse its socket for
    as long as the server keeps it alive.
    """

    def __init__(self, endpoint: str, modality: str, dim: int,
                 retries: int = 3, backoff: float = 0.5,
                 timeout: float = 30.0):
        self.endpoint = endpoint
        self.modality = modality
        self.dim = dim
        self.retries = retries
        self.backoff = backoff
        self.connection = EmbedConnection(endpoint, timeout)
        self.provider_id = f"remote:{endpoint}:{modality}"

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """One `remote_embed` per input, in order, over the one connection."""
        return [remote_embed(self.endpoint, self.modality, text, self.dim,
                             retries=self.retries, backoff=self.backoff,
                             connection=self.connection)
                for text in texts]
