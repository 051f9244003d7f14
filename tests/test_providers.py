"""The embedding layer's speed-ups change no output bit: the synthetic
providers, one input or a batch, against a copy of their original embed
loop and across BLAS thread counts, and the encode matrices against a
row-by-row reference, with each distinct input embedded once."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import nanocorona
from nanocorona.cache import CachedProvider, EmbeddingStore
from nanocorona.encode import protein_matrix, text_matrix
from nanocorona.errors import ProviderError
from nanocorona.prompts import PromptCodes, canonical_hash, render_prompt
from nanocorona.providers import (
    BATCH,
    GROUP,
    EmbeddingProvider,
    PrecomputedProvider,
    SyntheticProteinProvider,
    SyntheticTextProvider,
    _bucket,
    embed_protein,
    embed_text,
)
from nanocorona.remote import RemoteProvider
from nanocorona.schema import SampleRecord, categorical

from conftest import base_features, make_catalog, random_sequence
from test_remote import DIM, _endpoint, _ok, keep_alive_server  # noqa: F401


def reference_embed(provider, text: str) -> np.ndarray:
    """The synthetic embed loop as first written: every token hashed, and
    a count * direction temporary per bucket."""
    counts: dict[int, int] = {}
    for token in provider._tokens(text):
        b = _bucket(token, provider.n_buckets)
        counts[b] = counts.get(b, 0) + 1
    vec = np.zeros(provider.dim, dtype=np.float64)
    for b in sorted(counts):
        vec += counts[b] * provider._direction(b)
    return (vec / np.linalg.norm(vec)).astype(np.float32)


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype == np.float32
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def protein_inputs(rng) -> list[str]:
    # a 4-letter alphabet repeats 3-mers; lengths 1 and 2 are one token
    seqs = [random_sequence(rng, int(n), "ACDE")
            for n in rng.integers(3, 60, 12)]
    return seqs + ["A", "KL", random_sequence(rng, 2)]


def text_inputs(rng) -> list[str]:
    words = ["gold", "silica", "PBS", "water", "nm", "Unknown", "core:"]
    return [" ".join(rng.choice(words, int(n)))
            for n in rng.integers(2, 40, 12)] + ["gold"]


@pytest.mark.parametrize("cls, make_inputs, batched", [
    pytest.param(cls, make_inputs, batched,
                 id=f"{cls.__name__}-{make_inputs.__name__}"
                    + ("-batch" if batched else ""))
    for batched in (False, True)
    for cls, make_inputs in ((SyntheticProteinProvider, protein_inputs),
                             (SyntheticTextProvider, text_inputs))])
@pytest.mark.parametrize("seed", [0, 11])
def test_embed_matches_reference_bit_for_bit(cls, make_inputs, batched,
                                             seed):
    inputs = make_inputs(np.random.default_rng(seed))
    provider, reference = cls(seed), cls(seed)
    assert any(max(Counter(provider._tokens(t)).values()) > 1
               for t in inputs)
    assert any(len(provider._tokens(t)) == 1 for t in inputs)
    # one instance serves every input, then every input again: the second
    # pass runs entirely on the warm bucket memo
    for _ in range(2):
        if batched:
            vectors = provider.embed(inputs)
            assert len(vectors) == len(inputs)
            for text, vec in zip(inputs, vectors):
                assert_bits_equal(vec, reference_embed(reference, text))
            continue
        for text in inputs:
            assert_bits_equal(provider.embed([text])[0],
                              reference_embed(reference, text))


@pytest.mark.parametrize("cls, alphabet", [
    (SyntheticProteinProvider, "ACDEFGHIKLMNPQRSTVWY"),
    (SyntheticTextProvider, "ab ")])
def test_batches_and_bucket_groups_match_reference(cls, alphabet):
    # more than BATCH inputs and more than GROUP used buckets in one call;
    # one input repeated within the call and once more in a later batch
    rng = np.random.default_rng(7)
    inputs = [random_sequence(rng, int(n), alphabet).strip() or "a"
              for n in rng.integers(3, 40, 2 * BATCH + 3)]
    inputs[BATCH + 1] = inputs[5] = inputs[0]
    provider, reference = cls(3), cls(3)
    used = set().union(*(provider._counts(t) for t in inputs))
    assert len(used) > GROUP
    vectors = provider.embed(inputs)
    assert len(vectors) == len(inputs)
    for text, vec in zip(inputs, vectors):
        assert_bits_equal(vec, reference_embed(reference, text))


def vector_digest(inputs: dict) -> str:
    """sha256 over the float32 bytes of each modality's vectors, seed 3."""
    digest = hashlib.sha256()
    for cls in (SyntheticProteinProvider, SyntheticTextProvider):
        for vec in cls(3).embed(inputs[cls.modality]):
            digest.update(vec.tobytes())
    return digest.hexdigest()


def test_vectors_do_not_depend_on_the_blas_thread_count(tmp_path):
    # stores are shared across hosts and the product runs through BLAS, so
    # a one-thread process must make the same bytes as this one
    rng = np.random.default_rng(9)
    inputs = {"protein": [random_sequence(rng, int(n))
                          for n in rng.integers(3, 300, 40)],
              "text": text_inputs(rng) * 3}
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    script = ("import json, sys\n"
              "from test_providers import vector_digest\n"
              "print(vector_digest(json.load(open(sys.argv[1]))))\n")
    tests_dir = str(Path(__file__).parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [tests_dir, os.path.dirname(nanocorona.__path__[0])])}
    result = subprocess.run([sys.executable, "-c", script, str(path)],
                            env=env, capture_output=True, text=True,
                            timeout=300, check=True)
    assert result.stdout.strip() == vector_digest(inputs)


def spy_gathered(provider) -> list[int]:
    """The used-bucket count of each product that gathers its directions;
    a product that multiplies the blocks in place appends nothing."""
    calls: list[int] = []
    gathered = provider._gathered

    def spy(used):
        calls.append(len(used))
        return gathered(used)

    provider._gathered = spy
    return calls


def product_paths(cls, seed: int) -> list[str]:
    """Embed through both product paths of one fresh provider, checking
    every vector bit for bit against reference_embed; returns the path of
    the first, second and last calls.

    The first call leaves its only block part filled.  The second sends
    those inputs again with new ones in one product, so it uses every
    filled row, in place, and its new rows cross into later blocks.  After
    a large fill, the last call uses a few rows, some of them new, well
    under half of those filled, and gathers them."""
    rng = np.random.default_rng(seed)
    alphabet = "abcd " if cls is SyntheticTextProvider else "ACDEFGHIKLMNPQ"

    def sample(n: int, length: int) -> list[str]:
        return [random_sequence(rng, length, alphabet).strip() or "a"
                for _ in range(n)]

    provider, reference = cls(seed), cls(seed)
    first, more = sample(4, 12), sample(BATCH - 4, 40)
    calls = (first, first + more, sample(2 * BATCH, 200), ["KLMNP", "WWWY"])
    gathered = spy_gathered(provider)
    paths = []
    for inputs in calls:
        before = len(gathered)
        vectors = provider.embed(inputs)
        paths.append("gathered" if len(gathered) > before else "in place")
        for text, vec in zip(inputs, vectors):
            assert_bits_equal(vec, reference_embed(reference, text))
        if inputs is first:
            assert 0 < len(provider._rows) < GROUP
        if inputs is calls[1]:
            assert len(provider._rows) > GROUP
    assert len(provider._blocks) > 2
    return [paths[0], paths[1], paths[-1]]


@pytest.mark.parametrize("cls", [SyntheticProteinProvider,
                                 SyntheticTextProvider])
def test_both_product_paths_match_reference(cls):
    assert product_paths(cls, 5) == ["in place", "in place", "gathered"]


def test_directions_are_views_into_their_blocks():
    provider = SyntheticTextProvider(4)
    provider.embed([f"w{i} x{i} y{i}" for i in range(3 * GROUP)])
    assert len(provider._directions) == len(provider._rows) > 2 * GROUP
    assert all(block.shape == (GROUP, provider.dim)
               for block in provider._blocks)
    for bucket, row in provider._rows.items():
        vec = provider._directions[bucket]
        assert vec.base is provider._blocks[row // GROUP]
        assert np.shares_memory(vec, provider._blocks[row // GROUP][
            row % GROUP])
        assert vec.nbytes == provider.dim * 8


def test_product_paths_on_one_blas_thread(tmp_path):
    # the same bits through both paths when BLAS sums on one thread
    script = ("from test_providers import product_paths\n"
              "from nanocorona.providers import SyntheticProteinProvider,"
              " SyntheticTextProvider\n"
              "for cls in (SyntheticProteinProvider, SyntheticTextProvider):\n"
              "    print(','.join(product_paths(cls, 5)))\n")
    tests_dir = str(Path(__file__).parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [tests_dir, os.path.dirname(nanocorona.__path__[0])])}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300,
                            check=True)
    assert result.stdout.splitlines() == ["in place,in place,gathered"] * 2


def test_embed_checks_modality_and_every_input_before_the_provider():
    provider = CountingProvider(SyntheticTextProvider(0))
    with pytest.raises(ProviderError, match="empty"):
        embed_text(["gold", ""], provider)
    with pytest.raises(ProviderError, match="not a protein"):
        embed_protein(["ACDE"], provider)
    assert not provider.calls
    assert embed_text([], provider) == []
    vectors = embed_text(["gold", "silica"], provider)
    assert provider.calls == Counter(["gold", "silica"])
    assert_bits_equal(vectors[1],
                      SyntheticTextProvider(0).embed(["silica"])[0])


@pytest.mark.parametrize("embed, cls", [
    (embed_protein, SyntheticProteinProvider),
    (embed_text, SyntheticTextProvider)])
def test_a_bare_str_is_a_provider_error(embed, cls):
    # a str is an iterable of one-character inputs: it is refused, not
    # embedded a character at a time
    provider = CountingProvider(cls(0))
    with pytest.raises(ProviderError, match="not a str") as info:
        embed("ACDE", provider)
    assert info.value.code == "E_PROVIDER"
    assert not provider.calls


@pytest.fixture(params=["synthetic-protein", "synthetic-text",
                        "precomputed", "cached", "remote"])
def contract_case(request, tmp_path):
    """(provider, three inputs, the vector each input maps to)."""
    inputs = ["ACDEFGH gold", "KLMNPQ silica", "RSTVWY citrate"]
    if request.param.startswith("synthetic"):
        cls = (SyntheticProteinProvider if request.param.endswith("protein")
               else SyntheticTextProvider)
        yield cls(0), inputs, [cls(0).embed([t])[0] for t in inputs]
    elif request.param == "precomputed":
        store = EmbeddingStore(tmp_path / "emb.bin")
        expected = [np.full(4, i, dtype=np.float32) for i in range(3)]
        for text, vec in zip(inputs, expected):
            store.put(canonical_hash(text), "offline", vec)
        yield PrecomputedProvider(store, "text", 4), inputs, expected
    elif request.param == "cached":
        provider = CachedProvider(SyntheticProteinProvider(0),
                                  EmbeddingStore(tmp_path / "emb.bin"))
        yield provider, inputs, [SyntheticProteinProvider(0).embed([t])[0]
                                 for t in inputs]
    else:
        server = request.getfixturevalue("keep_alive_server")
        server.script = [_ok([float(i)] * DIM) for i in range(3)]
        provider = RemoteProvider(_endpoint(server), "text", DIM)
        yield provider, inputs, [np.full(DIM, float(i), dtype=np.float32)
                                 for i in range(3)]
        provider.connection.close()


def test_every_provider_maps_a_list_to_a_list_in_order(contract_case):
    provider, inputs, expected = contract_case
    assert provider.embed([]) == []
    vectors = provider.embed(inputs)
    assert isinstance(vectors, list) and len(vectors) == 3
    for vec, want in zip(vectors, expected):
        assert vec.dtype == np.float32 and vec.shape == (provider.dim,)
        assert_bits_equal(vec, want)


class CountingProvider(EmbeddingProvider):
    """Delegates to `inner` and counts the calls per input."""

    def __init__(self, inner: EmbeddingProvider):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.modality = inner.modality
        self.dim = inner.dim
        self.calls: Counter = Counter()

    def embed(self, texts):
        self.calls.update(texts)
        return self.inner.embed(texts)


@pytest.fixture()
def corpus(schema):
    """24 records over 3 accessions and 4 feature maps, two of which differ
    only in `core`, in a shuffled order."""
    rng = np.random.default_rng(5)
    catalog = make_catalog(3, seed=2)
    maps = [base_features(schema, rng) for _ in range(3)]
    maps.append({**maps[0], "core": categorical("gold")})
    records = [SampleRecord(sample_id=f"s{i}", study_id="st", group_id="g",
                            origin_id=f"o{i}", features=maps[i % 4],
                            protein_accession=f"P0000{i % 3}")
               for i in range(24)]
    order = rng.permutation(len(records))
    return [records[i] for i in order], catalog


def wrapped(inner, how, tmp_path):
    if how == "cached":
        inner = CachedProvider(inner, EmbeddingStore(tmp_path / "emb.bin"))
    return CountingProvider(inner)


@pytest.mark.parametrize("how", ["bare", "cached"])
@pytest.mark.parametrize("mask_set", [frozenset(), frozenset({"core"}),
                                      frozenset({"core", "shape"})])
def test_text_matrix_embeds_each_distinct_prompt_once(corpus, schema, how,
                                                      mask_set, tmp_path):
    records, _ = corpus
    provider = wrapped(SyntheticTextProvider(0), how, tmp_path)
    prompts = [render_prompt(r, schema, mask_set).text for r in records]
    expected = np.stack([embed_text([p], SyntheticTextProvider(0))[0]
                         for p in prompts])
    for _ in range(2):   # the second call finds a warm store when cached
        provider.calls.clear()
        matrix = text_matrix(records, PromptCodes(schema), provider,
                             mask_set)
        assert_bits_equal(matrix[:], expected)
        assert len(matrix.unique) == len(set(prompts))
        assert provider.calls == Counter(set(prompts))
    assert len(provider.calls) == (3 if mask_set else 4)


@pytest.mark.parametrize("how", ["bare", "cached"])
def test_protein_matrix_embeds_each_distinct_accession_once(corpus, how,
                                                            tmp_path):
    records, catalog = corpus
    provider = wrapped(SyntheticProteinProvider(0), how, tmp_path)
    sequences = [catalog.lookup(r.protein_accession).sequence
                 for r in records]
    expected = np.stack([embed_protein([s], SyntheticProteinProvider(0))[0]
                         for s in sequences])
    for _ in range(2):
        provider.calls.clear()
        matrix = protein_matrix(records, catalog, provider)
        assert_bits_equal(matrix[:], expected)
        assert len(matrix.unique) == len(set(sequences))
        assert provider.calls == Counter(set(sequences))
    assert len(provider.calls) == 3


class BatchSizes(CountingProvider):
    """Delegates to `inner` and records the size of each call."""

    def embed(self, texts):
        self.calls[len(texts)] += 1
        return self.inner.embed(texts)


@pytest.mark.parametrize("how", ["bare", "cached"])
def test_matrices_embed_at_most_batch_inputs_per_call(schema, how, tmp_path):
    n = 2 * BATCH + 5
    rng = np.random.default_rng(11)
    catalog = make_catalog(n, seed=4)
    records = [SampleRecord(sample_id=f"s{i}", study_id="st", group_id="g",
                            origin_id=f"o{i}",
                            features=base_features(schema, rng),
                            protein_accession=f"P{i % n:05d}")
               for i in range(n + 9)]
    for name, cls, build in (
            ("protein", SyntheticProteinProvider,
             lambda p: protein_matrix(records, catalog, p)),
            ("text", SyntheticTextProvider,
             lambda p: text_matrix(records, PromptCodes(schema), p))):
        inner = cls(0)
        if how == "cached":
            inner = CachedProvider(inner, EmbeddingStore(tmp_path / name))
        provider = BatchSizes(inner)
        matrix = build(provider)
        assert len(matrix.unique) > BATCH
        assert max(provider.calls) <= BATCH
        assert sum(k * v for k, v in provider.calls.items()) == \
            len(matrix.unique)
        inputs = [catalog.lookup(f"P{i:05d}").sequence for i in range(n)] \
            if name == "protein" else \
            PromptCodes(schema).prompts(records)[0]
        assert_bits_equal(matrix.unique, np.stack(cls(0).embed(inputs)))


def test_empty_record_list_gives_empty_matrices(schema):
    protein, text = SyntheticProteinProvider(0), SyntheticTextProvider(0)
    for matrix, provider in (
            (protein_matrix([], make_catalog(1), protein), protein),
            (text_matrix([], PromptCodes(schema), text), text)):
        assert matrix[:].shape == matrix.unique.shape == (0, provider.dim)
        assert matrix[:].dtype == matrix.unique.dtype == np.float32
