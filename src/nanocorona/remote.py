"""HTTP client for a remote embedding service.

Protocol: POST <endpoint>/embed with JSON {"modality": ..., "input": ...};
response JSON {"dim": N, "vector": [N floats]}.  4xx is non-retryable; 5xx
and timeouts are retried with exponential backoff.
"""

from __future__ import annotations

import time

import numpy as np
import requests

from .errors import DimensionError, HttpError, TimeoutExhaustedError
from .providers import EmbeddingProvider, _validate_vector


def remote_embed(endpoint: str, modality: str, input_text: str, dim: int,
                 retries: int = 3, backoff: float = 0.5,
                 timeout: float = 30.0, session=None) -> np.ndarray:
    """Fetch one embedding, retrying transient failures up to `retries` attempts."""
    http = session or requests
    url = endpoint.rstrip("/") + "/embed"
    last_transient = None
    for attempt in range(retries):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:
            resp = http.post(url, json={"modality": modality,
                                        "input": input_text},
                             timeout=timeout)
        except requests.Timeout as exc:
            last_transient = f"timeout: {exc}"
            continue
        except requests.ConnectionError as exc:
            last_transient = f"connection error: {exc}"
            continue
        if resp.status_code == 200:
            body = resp.json()
            vec = np.asarray(body.get("vector", []), dtype=np.float32)
            if body.get("dim") != dim or vec.shape[0] != dim:
                raise DimensionError(
                    f"service returned dim {body.get('dim')} "
                    f"({vec.shape[0]} values), expected {dim}")
            return _validate_vector(vec, dim, endpoint)
        if 400 <= resp.status_code < 500:
            raise HttpError(f"status {resp.status_code} from {url}")
        last_transient = f"status {resp.status_code}"
    raise TimeoutExhaustedError(
        f"{retries} attempts to {url} failed; last: {last_transient}")


class RemoteProvider(EmbeddingProvider):
    """Provider backed by the remote embedding service.

    One `requests.Session` serves every call, so calls share its adapters
    and connection pool instead of building a session each.
    """

    def __init__(self, endpoint: str, modality: str, dim: int,
                 retries: int = 3, backoff: float = 0.5,
                 timeout: float = 30.0, session=None):
        self.endpoint = endpoint
        self.modality = modality
        self.dim = dim
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self.session = session or requests.Session()
        self.provider_id = f"remote:{endpoint}:{modality}"

    def embed(self, text: str) -> np.ndarray:
        return remote_embed(self.endpoint, self.modality, text, self.dim,
                            retries=self.retries, backoff=self.backoff,
                            timeout=self.timeout, session=self.session)
