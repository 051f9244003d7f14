"""Embedding store tests: binary roundtrip, index rebuild, hit/miss
semantics, mismatch detection, and recovery from a torn data file or a torn
or stale index."""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from nanocorona import cache
from nanocorona.cache import CachedProvider, EmbeddingStore
from nanocorona.errors import CacheError, ProviderError
from nanocorona.prompts import canonical_hash
from nanocorona.providers import (
    BATCH,
    EmbeddingProvider,
    PrecomputedProvider,
    SyntheticProteinProvider,
    as_batch,
)


def _key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CountingProvider(SyntheticProteinProvider):
    def __init__(self, seed=0):
        super().__init__(seed)
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return super().embed(text)


class TestEmbeddingStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        vec = np.arange(16, dtype=np.float32)
        store.put(_key("a"), "prov-1", vec)
        provider_id, back = store.get(_key("a"))
        assert provider_id == "prov-1"
        assert np.array_equal(back, vec)
        assert back.dtype == np.float32

    def test_missing_key_is_none(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        assert store.get(_key("nothing")) is None

    def test_multiple_records_independent(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        rng = np.random.default_rng(0)
        vectors = {f"t{i}": rng.normal(size=8).astype(np.float32)
                   for i in range(20)}
        for text, vec in vectors.items():
            store.put(_key(text), "p", vec)
        for text, vec in vectors.items():
            assert np.array_equal(store.get(_key(text))[1], vec)
        assert len(store) == 20

    def test_reopen_uses_persisted_index(self, tmp_path):
        path = tmp_path / "emb.bin"
        store = EmbeddingStore(path)
        store.put(_key("x"), "p", np.ones(4, dtype=np.float32))
        reopened = EmbeddingStore(path)
        assert np.array_equal(reopened.get(_key("x"))[1], np.ones(4))

    def test_rebuild_index_from_data_file(self, tmp_path):
        path = tmp_path / "emb.bin"
        store = EmbeddingStore(path)
        for i in range(5):
            store.put(_key(f"t{i}"), "p",
                      np.full(3, float(i), dtype=np.float32))
        (tmp_path / "emb.bin.idx.json").unlink()
        rebuilt = EmbeddingStore(path)
        assert len(rebuilt) == 5
        for i in range(5):
            assert np.array_equal(rebuilt.get(_key(f"t{i}"))[1],
                                  np.full(3, float(i)))

    def test_truncated_payload_detected(self, tmp_path):
        path = tmp_path / "emb.bin"
        store = EmbeddingStore(path)
        store.put(_key("x"), "p", np.ones(100, dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(CacheError):
            store.get(_key("x"))


def _fill(path, n, dim=4):
    """Put vectors full of i under keys t0..t{n-1} into a fresh store."""
    store = EmbeddingStore(path)
    for i in range(n):
        store.put(_key(f"t{i}"), "p", np.full(dim, float(i), dtype=np.float32))


def _assert_holds(store, n, dim=4):
    """`store` returns the vectors `_fill` put under t0..t{n-1}."""
    for i in range(n):
        assert np.array_equal(store.get(_key(f"t{i}"))[1],
                              np.full(dim, float(i), dtype=np.float32))


class TestReadHandle:
    """A store reads every record through one handle, which it closes."""

    def test_gets_open_the_data_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.bin"
        _fill(path, 5)
        store = EmbeddingStore(path)
        opened, real_open = [], os.open
        monkeypatch.setattr(os, "open", lambda file, *args: opened.append(
            os.fspath(file)) or real_open(file, *args))
        for _ in range(3):
            _assert_holds(store, 5)
        assert opened == [str(path)]

    def test_a_get_after_a_put_returns_the_new_record(self, tmp_path):
        path = tmp_path / "emb.bin"
        _fill(path, 2)
        store = EmbeddingStore(path)
        _assert_holds(store, 2)  # the handle is open
        store.put(_key("t2"), "p", np.full(4, 2.0, dtype=np.float32))
        _assert_holds(store, 3)

    def test_close_and_drop_close_the_handle(self, tmp_path):
        path = tmp_path / "emb.bin"
        _fill(path, 1)
        store = EmbeddingStore(path)
        _assert_holds(store, 1)
        fd = store._fd
        store.close()
        store.close()
        with pytest.raises(OSError):
            os.fstat(fd)
        _assert_holds(store, 1)  # a get after close opens it again
        fd = store._fd
        del store
        with pytest.raises(OSError):
            os.fstat(fd)


class TestLinearPuts:
    def test_fresh_store_writes_empty_index_on_open(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        assert json.loads((tmp_path / "emb.bin.idx.json").read_text()) == {}
        assert len(store) == 0

    def test_puts_leave_index_file_unchanged(self, tmp_path):
        path = tmp_path / "emb.bin"
        store = EmbeddingStore(path)
        index_path = tmp_path / "emb.bin.idx.json"
        before = index_path.read_bytes()
        for i in range(1000):
            store.put(_key(f"t{i}"), "p",
                      np.full(4, float(i), dtype=np.float32))
        assert index_path.read_bytes() == before
        reopened = EmbeddingStore(path)
        assert len(reopened) == 1000
        _assert_holds(reopened, 1000)
        assert len(json.loads(index_path.read_text())) == 1000

    def test_open_scans_only_past_indexed_prefix(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.bin"
        _fill(path, 50)
        EmbeddingStore(path)  # indexes all 50
        EmbeddingStore(path).put(_key("t50"), "p",
                                 np.full(4, 50.0, dtype=np.float32))
        seen = []
        real = cache._record_end

        def spy(fh, offset, size):
            seen.append(offset)
            return real(fh, offset, size)

        monkeypatch.setattr(cache, "_record_end", spy)
        reopened = EmbeddingStore(path)
        # the last indexed record, then the one record past it
        assert len(seen) == 2
        assert len(reopened) == 51
        _assert_holds(reopened, 51)

    def test_reads_v1_files(self, tmp_path):
        path = tmp_path / "emb.bin"
        vectors = {_key("a"): ("prov-a", [1.0, 2.0]),
                   _key("b"): ("prov-bb", [3.0, 4.0, 5.0])}
        data, index = b"", {}
        for key_hex, (pid, values) in vectors.items():
            index[key_hex] = len(data)
            data += (bytes.fromhex(key_hex)
                     + struct.pack("<I", len(pid)) + pid.encode()
                     + struct.pack("<I", len(values))
                     + struct.pack(f"<{len(values)}f", *values))
        path.write_bytes(data)
        (tmp_path / "emb.bin.idx.json").write_text(json.dumps(index))
        store = EmbeddingStore(path)
        assert path.read_bytes() == data
        for key_hex, (pid, values) in vectors.items():
            provider_id, vec = store.get(key_hex)
            assert provider_id == pid
            assert np.array_equal(vec, np.asarray(values, dtype=np.float32))


class TestRecovery:
    def test_torn_tail_truncated_at_every_offset(self, tmp_path):
        path = tmp_path / "emb.bin"
        _fill(path, 3)
        intact = path.read_bytes()
        EmbeddingStore(path).put(_key("t3"), "p",
                                 np.full(4, 3.0, dtype=np.float32))
        index_path = tmp_path / "emb.bin.idx.json"
        full, index = path.read_bytes(), index_path.read_bytes()
        extra = np.arange(4, dtype=np.float32)
        for cut in range(len(intact), len(full)):
            path.write_bytes(full[:cut])
            index_path.write_bytes(index)  # indexes t0..t2
            store = EmbeddingStore(path)
            assert len(store) == 3
            _assert_holds(store, 3)
            assert path.read_bytes() == intact
            store.put(_key("new"), "p", extra)
            for reader in (store, EmbeddingStore(path)):
                assert len(reader) == 4
                _assert_holds(reader, 3)
                assert np.array_equal(reader.get(_key("new"))[1], extra)

    @pytest.mark.parametrize("damage",
                             ["half", "garbage", "not_a_map", "bad_offset"])
    def test_torn_index_rebuilt(self, tmp_path, damage):
        path = tmp_path / "emb.bin"
        _fill(path, 5)
        EmbeddingStore(path)  # write the index of all 5
        index_path = tmp_path / "emb.bin.idx.json"
        text = index_path.read_bytes()
        index_path.write_bytes({"half": text[:len(text) // 2],
                                "garbage": b"\xff\x00{",
                                "not_a_map": b"[1, 2]",
                                "bad_offset": b'{"ab": "0"}'}[damage])
        store = EmbeddingStore(path)
        assert len(store) == 5
        _assert_holds(store, 5)
        assert len(json.loads(index_path.read_text())) == 5

    @pytest.mark.parametrize("keep", [0, 2, 3])
    def test_data_shorter_than_index_rebuilt(self, tmp_path, keep):
        path = tmp_path / "emb.bin"
        _fill(path, 5)
        EmbeddingStore(path)  # write the index of all 5
        index_path = tmp_path / "emb.bin.idx.json"
        full, full_index = path.read_bytes(), index_path.read_bytes()
        record = len(full) // 5
        # cut at a record boundary, and 7 bytes into the next record
        for cut in (keep * record, keep * record + 7):
            path.write_bytes(full[:cut])
            index_path.write_bytes(full_index)
            store = EmbeddingStore(path)
            assert len(store) == keep
            _assert_holds(store, keep)
            assert len(path.read_bytes()) == keep * record
            assert len(json.loads(index_path.read_text())) == keep

    def test_index_pointing_at_wrong_record_rebuilt(self, tmp_path):
        path = tmp_path / "emb.bin"
        _fill(path, 3)
        index_path = tmp_path / "emb.bin.idx.json"
        index_path.write_text(json.dumps({_key("t1"): 0}))
        store = EmbeddingStore(path)
        assert len(store) == 3
        _assert_holds(store, 3)


class TestCacheGetOrCompute:
    """CachedProvider.embed: a miss computes and stores, a hit is checked
    against the provider and served from the store."""

    def test_miss_computes_and_persists(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        provider = CountingProvider()
        vec = CachedProvider(provider, store).embed("ACDEFGHIKL")
        assert provider.calls == 1
        key = canonical_hash("ACDEFGHIKL")
        assert key in store
        assert np.array_equal(store.get(key)[1], vec)

    def test_hit_skips_provider(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        provider = CountingProvider()
        first = CachedProvider(provider, store).embed("ACDEFGHIKL")
        second = CachedProvider(provider, store).embed("ACDEFGHIKL")
        assert provider.calls == 1
        assert np.array_equal(first, second)

    def test_dim_mismatch_on_hit(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        provider = CountingProvider()
        store.put(canonical_hash("ACDEFGHIKL"), provider.provider_id,
                  np.ones(7, dtype=np.float32))
        with pytest.raises(CacheError, match="dim"):
            CachedProvider(provider, store).embed("ACDEFGHIKL")
        assert provider.calls == 0

    def test_provider_mismatch_on_hit(self, tmp_path):
        store = EmbeddingStore(tmp_path / "emb.bin")
        provider = CountingProvider(seed=1)
        store.put(canonical_hash("ACDEFGHIKL"), "someone-else",
                  np.ones(provider.dim, dtype=np.float32))
        with pytest.raises(CacheError, match="provider"):
            CachedProvider(provider, store).embed("ACDEFGHIKL")
        assert provider.calls == 0


def test_non_finite_stored_vector_is_a_cache_error(tmp_path):
    # a stored vector is checked once, where it is read from the file
    store = EmbeddingStore(tmp_path / "emb.bin")
    provider = CountingProvider()
    vec = np.ones(provider.dim, dtype=np.float32)
    vec[3] = np.nan
    key = canonical_hash("ACDEFGHIKL")
    store.put(key, provider.provider_id, vec)
    with pytest.raises(CacheError, match="non-finite"):
        store.get(key)
    with pytest.raises(CacheError, match="non-finite"):
        CachedProvider(provider, store).embed("ACDEFGHIKL")
    assert provider.calls == 0
    precomputed = PrecomputedProvider(store, "protein", provider.dim)
    with pytest.raises(CacheError, match="non-finite"):
        precomputed.embed("ACDEFGHIKL")


class TestCachedProvider:
    def test_transparent_and_caching(self, tmp_path):
        inner = CountingProvider()
        direct = SyntheticProteinProvider().embed("ACDEFGHIKLMN")
        cached = CachedProvider(inner, EmbeddingStore(tmp_path / "emb.bin"))
        assert cached.dim == inner.dim
        assert cached.provider_id == inner.provider_id
        out1 = cached.embed("ACDEFGHIKLMN")
        out2 = cached.embed("ACDEFGHIKLMN")
        assert inner.calls == 1
        assert np.array_equal(out1, direct)
        assert np.array_equal(out1, out2)


class SpyStore(EmbeddingStore):
    """An EmbeddingStore that lists the keys of its gets and puts."""

    def __init__(self, path):
        super().__init__(path)
        self.gets: list[str] = []
        self.puts: list[str] = []

    def get(self, key_hex):
        self.gets.append(key_hex)
        return super().get(key_hex)

    def put(self, key_hex, provider_id, vector):
        self.puts.append(key_hex)
        super().put(key_hex, provider_id, vector)


class BatchRecorder(EmbeddingProvider):
    """Lists the inputs of each call, and raises on call `fail_on`; input
    t's vector is filled with the first bytes of its content hash."""

    provider_id = "recorder"
    modality = "text"
    dim = 4

    def __init__(self, fail_on: int | None = None):
        self.fail_on = fail_on
        self.batches: list[list[str]] = []

    @staticmethod
    def vector(text: str) -> np.ndarray:
        return np.full(4, int(_key(text)[:6], 16), dtype=np.float32)

    def embed(self, texts):
        batch, single = as_batch(texts)
        self.batches.append(batch)
        if len(self.batches) == self.fail_on:
            raise ProviderError("scripted failure")
        vectors = [self.vector(text) for text in batch]
        return vectors[0] if single else vectors


class TestCachedProviderBatch:
    """CachedProvider.embed(list): one get per distinct key, every hit
    checked before the inner provider runs, misses sent once each in
    chunks of BATCH, and each chunk put before the next is sent."""

    def test_one_inner_input_and_one_put_per_distinct_key(self, tmp_path):
        store = SpyStore(tmp_path / "emb.bin")
        inner = BatchRecorder()
        texts = ["b", "a", "b", "c", "a", "b"]
        vectors = CachedProvider(inner, store).embed(texts)
        assert inner.batches == [["b", "a", "c"]]
        assert store.gets == store.puts == [_key(t) for t in "bac"]
        for text, vec in zip(texts, vectors):
            assert np.array_equal(vec, BatchRecorder.vector(text))
            assert np.array_equal(store.get(_key(text))[1], vec)

    def test_hits_never_reach_the_inner_provider(self, tmp_path):
        store = SpyStore(tmp_path / "emb.bin")
        inner = BatchRecorder()
        cached = CachedProvider(inner, store)
        cached.embed(["a", "b"])
        vectors = cached.embed(["b", "d", "a", "d"])
        assert inner.batches == [["a", "b"], ["d"]]
        assert store.puts == [_key(t) for t in "abd"]
        for text, vec in zip("bdad", vectors):
            assert np.array_equal(vec, BatchRecorder.vector(text))

    @pytest.mark.parametrize("provider_id, dim, match", [
        ("recorder", 7, "dim"), ("someone-else", 4, "provider")])
    def test_bad_hit_raises_before_any_inner_call_or_put(
            self, tmp_path, provider_id, dim, match):
        store = SpyStore(tmp_path / "emb.bin")
        store.put(_key("bad"), provider_id, np.ones(dim, dtype=np.float32))
        store.puts.clear()
        inner = BatchRecorder()
        with pytest.raises(CacheError, match=match):
            CachedProvider(inner, store).embed(["new", "bad", "newer"])
        assert inner.batches == []
        assert store.puts == []
        assert len(store) == 1

    def test_failed_chunk_puts_nothing_and_keeps_earlier_chunks(
            self, tmp_path):
        store = SpyStore(tmp_path / "emb.bin")
        inner = BatchRecorder(fail_on=2)
        texts = [f"input {i}" for i in range(BATCH + 2)]
        with pytest.raises(ProviderError, match="scripted"):
            CachedProvider(inner, store).embed(texts)
        assert inner.batches == [texts[:BATCH], texts[BATCH:]]
        assert store.puts == [_key(t) for t in texts[:BATCH]]
        reopened = EmbeddingStore(tmp_path / "emb.bin")
        assert len(reopened) == BATCH
        assert all(_key(t) not in reopened for t in texts[BATCH:])

    def test_empty_list_touches_neither_store_nor_provider(self, tmp_path):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"store.{name} used")

        inner = BatchRecorder()
        assert CachedProvider(inner, Untouchable()).embed([]) == []
        assert inner.batches == []
