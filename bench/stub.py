"""Loopback stub of the remote embedding service (`POST /embed`).

One server thread answers requests one at a time.  Vectors are deterministic
hashed-token projections, so similar inputs land near each other and a model
trained on them can learn: text is split into words, protein sequences into
3-mers, each token is hashed into one of `BUCKETS` fixed random directions.
The server counts the requests it answers.
"""

from __future__ import annotations

import json
import threading
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

BUCKETS = 512
SEED = 0
DIMS = {"protein": 2560, "text": 4096}


def _tokens(modality: str, text: str) -> list[str]:
    if modality == "protein":
        return [text[i:i + 3] for i in range(max(len(text) - 2, 1))]
    words = text.lower().split()
    return words + [f"{a} {b}" for a, b in zip(words, words[1:])]


class EmbeddingStub:
    """Start with `start()`, stop with `close()`; `url` is the endpoint."""

    def __init__(self):
        rng = np.random.default_rng([SEED, 4096])
        self.directions = {
            m: rng.standard_normal((BUCKETS, dim), dtype=np.float32)
            for m, dim in DIMS.items()}
        self.requests = 0
        self._lock = threading.Lock()
        self._server = None
        self._thread = None

    def embed(self, modality: str, text: str) -> np.ndarray:
        counts = np.zeros(BUCKETS, dtype=np.float32)
        for token in _tokens(modality, text):
            counts[zlib.crc32(token.encode("utf-8")) % BUCKETS] += 1.0
        vec = counts @ self.directions[modality]
        return vec / np.float32(np.linalg.norm(vec))

    def start(self) -> None:
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server naming
                with stub._lock:
                    stub.requests += 1
                if self.path != "/embed":
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", 0))
                try:
                    body = json.loads(self.rfile.read(length))
                    modality = body["modality"]
                    vec = stub.embed(modality, body["input"])
                except (ValueError, KeyError):
                    self.send_error(400)
                    return
                # five decimals written as integer mantissas ("1234e-5"):
                # formatting full float reprs would make the stub, not the
                # client, the bottleneck of a remote call
                mantissas = np.rint(vec * 1e5).astype(np.int64).tolist()
                payload = (f'{{"dim": {vec.shape[0]}, "vector": ['
                           + "e-5,".join(map(str, mantissas))
                           + "e-5]}").encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.5},
                                        name="embedding-stub", daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = None
