"""Content-addressed binary store for embedding vectors.

File format: append-only records of
    key (32 raw bytes) | provider_id length (uint32 LE) | provider_id bytes |
    dim (uint32 LE) | dim * float32 LE
plus a JSON index mapping hex key -> record offset.

The data file is the truth; the index only caches the offsets of a prefix
of it.  A put appends one record and updates the in-memory index, so it
costs O(record) and never writes the index file.  Opening a store refreshes
the index once: it checks the record at the largest indexed offset, scans
only the bytes past that record, and writes the index atomically (a tmp
file, then `os.replace`) if the scan found anything.  A partial last
record, left by a crash mid-append, is truncated and every complete record
is kept.  A torn or garbage index, or one pointing past the end of the data
file, is rebuilt from the data file.
"""

from __future__ import annotations

import json
import os
import struct
import weakref

import numpy as np

from .errors import CacheError
from .prompts import canonical_hash
from .providers import BATCH, EmbeddingProvider
from .schema import write_json_atomic


_HEAD = 36  # key (32 bytes) and provider_id length (uint32)


def _record_end(fh, offset: int, size: int):
    """(hex key, end offset) of the record at `offset` in a data file of
    `size` bytes, or None when the record runs past the end of the file."""
    fh.seek(offset)
    head = fh.read(_HEAD)
    if len(head) < _HEAD:
        return None
    (pid_len,) = struct.unpack_from("<I", head, 32)
    fh.seek(pid_len, os.SEEK_CUR)
    dim = fh.read(4)
    if len(dim) < 4:
        return None
    end = offset + _HEAD + pid_len + 4 + 4 * struct.unpack("<I", dim)[0]
    return None if end > size else (head[:32].hex(), end)


class EmbeddingStore:
    """Append-only vector store with single-writer insertion semantics."""

    def __init__(self, path):
        self.path = str(path)
        self.index_path = self.path + ".idx.json"
        # the one descriptor, opened by the first get or put, and the
        # finalizer that closes it, by `close` or when the store is dropped
        self._fd = None
        self._close_fd = None
        index = self._read_index()
        start = None if index is None else self._indexed_end(index)
        if start is None:
            self.rebuild_index()
        else:
            self._index = index
            if self._scan(start):
                self._save_index()

    def __contains__(self, key_hex: str) -> bool:
        return key_hex in self._index

    def __len__(self) -> int:
        return len(self._index)

    def put(self, key_hex: str, provider_id: str, vector: np.ndarray) -> None:
        vec = np.asarray(vector, dtype=np.float32)
        pid = provider_id.encode("utf-8")
        record = (bytes.fromhex(key_hex)
                  + struct.pack("<I", len(pid)) + pid
                  + struct.pack("<I", vec.shape[0])
                  + vec.astype("<f4").tobytes())
        fd = self._handle()
        offset = os.lseek(fd, 0, os.SEEK_END)
        view = memoryview(record)
        while view:  # a short write is retried, so a full disk raises
            view = view[os.write(fd, view):]
        self._index[key_hex] = offset

    def get(self, key_hex: str):
        """Return (provider_id, vector) or None."""
        offset = self._index.get(key_hex)
        if offset is None:
            return None
        fd = self._handle()
        head = os.pread(fd, _HEAD, offset)
        if len(head) != _HEAD or head[:32].hex() != key_hex:
            raise CacheError(f"index points at wrong record for {key_hex}")
        (pid_len,) = struct.unpack_from("<I", head, 32)
        rest = os.pread(fd, pid_len + 4, offset + _HEAD)
        provider_id = rest[:pid_len].decode("utf-8")
        (dim,) = struct.unpack_from("<I", rest, pid_len)
        payload = os.pread(fd, dim * 4, offset + _HEAD + pid_len + 4)
        if len(payload) != dim * 4:
            raise CacheError(f"truncated payload for {key_hex}")
        vec = np.frombuffer(payload, dtype="<f4").copy()
        if not np.isfinite(vec).all():
            raise CacheError(f"non-finite payload for {key_hex}")
        return provider_id, vec

    def _handle(self) -> int:
        """The descriptor every get and put goes through, opened (creating
        the data file) by the first of them and kept until `close`: puts
        append through it (O_APPEND) and gets read it with `os.pread`."""
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            self._close_fd = weakref.finalize(self, os.close, self._fd)
        return self._fd

    def close(self) -> None:
        """Close the descriptor; a later get or put opens it again.
        Dropping the store closes it too."""
        if self._fd is not None:
            self._close_fd()
            self._fd = None

    def rebuild_index(self) -> None:
        """Scan the whole data file and write a fresh index."""
        self._index = {}
        self._scan(0)
        self._save_index()

    def _read_index(self) -> dict[str, int] | None:
        """The index file's entries; None when it is missing or unreadable."""
        try:
            with open(self.index_path, encoding="utf-8") as fh:
                index = json.load(fh)
        except (FileNotFoundError, ValueError):
            return None
        if not isinstance(index, dict) or not all(
                isinstance(v, int) and v >= 0 for v in index.values()):
            return None
        return index

    def _indexed_end(self, index: dict[str, int]) -> int | None:
        """End offset of the last record in `index`; None when that record
        is not where the index says it is."""
        if not index:
            return 0
        key_hex, offset = max(index.items(), key=lambda kv: kv[1])
        try:
            with open(self.path, "rb") as fh:
                record = _record_end(fh, offset, os.fstat(fh.fileno()).st_size)
        except FileNotFoundError:
            return None
        if record is None or record[0] != key_hex:
            return None
        return record[1]

    def _scan(self, offset: int) -> bool:
        """Index every complete record from `offset` on and truncate a torn
        last record; True when the index or the data file changed."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return False
        start = offset
        with fh:
            size = os.fstat(fh.fileno()).st_size
            while offset < size:
                record = _record_end(fh, offset, size)
                if record is None:
                    break
                self._index[record[0]] = offset
                offset = record[1]
        if offset < size:
            os.truncate(self.path, offset)
        return offset > start or offset < size

    def _save_index(self) -> None:
        write_json_atomic(self.index_path, self._index, sort_keys=True)


class CachedProvider(EmbeddingProvider):
    """Provider wrapper that routes every embed through a store."""

    def __init__(self, inner: EmbeddingProvider, store: EmbeddingStore):
        self.inner = inner
        self.store = store
        self.provider_id = inner.provider_id
        self.modality = inner.modality
        self.dim = inner.dim

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """The stored vector of each input, or the inner provider's, stored.

        Each distinct input is looked up once.  A hit whose stored dimension
        or provider does not match raises E_CACHE before the inner provider
        is called; the inner provider never sees a hit.  The misses go to it
        in first-miss order, BATCH per call, and each chunk's vectors are put
        before the next chunk is sent, so the store holds the same bytes as
        when each input is embedded alone; a chunk that raises puts nothing.
        """
        keys = [canonical_hash(text) for text in texts]
        vectors: dict[str, np.ndarray] = {}
        misses: dict[str, str] = {}
        for key, text in zip(keys, texts):
            if key in vectors or key in misses:
                continue
            entry = self.store.get(key)
            if entry is None:
                misses[key] = text
            else:
                vectors[key] = self._checked(*entry)
        pending = list(misses)
        for start in range(0, len(pending), BATCH):
            chunk = pending[start:start + BATCH]
            for key, vec in zip(chunk, self.inner.embed(
                    [misses[key] for key in chunk])):
                self.store.put(key, self.provider_id, vec)
                vectors[key] = vec
        return [vectors[key] for key in keys]

    def _checked(self, provider_id: str, vec: np.ndarray) -> np.ndarray:
        if vec.shape[0] != self.dim:
            raise CacheError(
                f"stored dim {vec.shape[0]} != requested dim {self.dim}")
        if provider_id != self.provider_id:
            raise CacheError(
                f"stored provider {provider_id!r} != requested "
                f"{self.provider_id!r}")
        return vec
