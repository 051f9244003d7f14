"""Embedding providers: synthetic locality-sensitive encoders and the
precomputed-vector provider backed by a cache file."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DimensionError, ProviderError
from .prompts import canonical_hash

PROTEIN_DIM = 2560
TEXT_DIM = 4096

MODALITY_PROTEIN = "protein"
MODALITY_TEXT = "text"


# the synthetic encoders sum at most BATCH inputs per count-matrix product,
# and keep their directions in float64 blocks of GROUP rows (4 MB of text
# directions each); CachedProvider sends its misses in chunks of BATCH
BATCH = 32
GROUP = 128


class EmbeddingProvider:
    """Maps input text (sequence or prompt) to a fixed-dimension vector."""

    provider_id: str
    modality: str
    dim: int

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """The (dim,) float32 vector of each input, in input order."""
        raise NotImplementedError


def _bucket(token: str, n_buckets: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % n_buckets


class _HashedProjectionProvider(EmbeddingProvider):
    """Token counts hashed into buckets, then a seeded Gaussian projection.

    Each bucket owns a fixed pseudo-random direction seeded by (seed, bucket),
    so only the buckets present in the input are ever materialized.  Similar
    inputs share buckets and therefore land near each other.  Each token's
    bucket is hashed once per instance; the memo holds one entry per distinct
    token seen, which is bounded by the vocabulary of the inputs embedded.

    Directions are float64 rows of blocks of GROUP rows, filled in the order
    buckets are first used and allocated a block at a time; `_directions`
    maps each bucket to its row, a view into its block.  A call embeds its
    inputs BATCH at a time as one float64 product: a count matrix, one row
    per input, times the directions.  When the call uses at least half of
    the rows filled so far, the matrix has one column per filled row (zero
    where the call does not use it) and multiplies the blocks in place;
    otherwise it has one column per used bucket in ascending order and the
    used directions are copied, GROUP at a time, into one scratch that the
    call reuses (one kept on the provider slowed later stages that embed
    nothing by about 15%).  Copying nearly every row on every call cost as
    much as the products, and multiplying whole blocks for a call that uses
    a quarter of them made the call slower.  Each row is then normalised
    and cast to float32.  The tests check the vectors bit for bit against the
    original per-bucket loop on both paths, one input at a time and in
    batches, and across BLAS thread counts: BLAS does not fix the order in
    which it adds the float64 terms, and those checks guard that the sums
    still round to the same float32.
    """

    n_buckets: int

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._directions: dict[int, np.ndarray] = {}
        self._rows: dict[int, int] = {}
        self._blocks: list[np.ndarray] = []
        self._buckets: dict[str, int] = {}

    def _tokens(self, text: str) -> list[str]:
        raise NotImplementedError

    def _direction(self, bucket: int) -> np.ndarray:
        cached = self._directions.get(bucket)
        if cached is None:
            row = len(self._rows)
            if row % GROUP == 0:
                self._blocks.append(np.empty((GROUP, self.dim)))
            cached = self._blocks[-1][row % GROUP]
            rng = np.random.default_rng([self.seed, bucket])
            rng.standard_normal(out=cached)
            self._directions[bucket] = cached
            self._rows[bucket] = row
        return cached

    def _counts(self, text: str) -> dict[int, int]:
        if not text:
            raise ProviderError("empty input")
        buckets = self._buckets
        counts: dict[int, int] = {}
        for token in self._tokens(text):
            b = buckets.get(token)
            if b is None:
                b = buckets[token] = _bucket(token, self.n_buckets)
            counts[b] = counts.get(b, 0) + 1
        return counts

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        counts = [self._counts(text) for text in texts]
        vectors = []
        for start in range(0, len(counts), BATCH):
            vectors += self._project(counts[start:start + BATCH])
        return vectors

    def _project(self, counts: list[dict[int, int]]) -> list[np.ndarray]:
        """The unit float32 vector of each input's bucket counts."""
        used = sorted(set().union(*counts))
        for b in used:
            self._direction(b)
        filled = len(self._rows)
        if 2 * len(used) >= filled:
            column, blocks = self._rows, (
                block[:filled - start] for start, block in
                zip(range(0, filled, GROUP), self._blocks))
        else:
            column = {b: j for j, b in enumerate(used)}
            blocks = self._gathered(used)
        matrix = np.zeros((len(counts), len(column)))
        for row, bucket_counts in zip(matrix, counts):
            row[[column[b] for b in bucket_counts]] = list(
                bucket_counts.values())
        sums = np.zeros((len(counts), self.dim))
        start = 0
        for block in blocks:
            sums += matrix[:, start:start + len(block)] @ block
            start += len(block)
        vectors = []
        for vec in sums:
            norm = np.linalg.norm(vec)
            if norm == 0:
                raise ProviderError("degenerate input: zero embedding")
            vectors.append((vec / norm).astype(np.float32))
        return vectors

    def _gathered(self, used: list[int]):
        """The directions of `used`, copied GROUP at a time into one scratch
        that each next block overwrites."""
        scratch = np.empty((min(GROUP, len(used)), self.dim))
        for start in range(0, len(used), GROUP):
            group = used[start:start + GROUP]
            block = scratch[:len(group)]
            for j, b in enumerate(group):
                block[j] = self._directions[b]
            yield block


class SyntheticProteinProvider(_HashedProjectionProvider):
    """Overlapping 3-mer counts hashed into 4096 buckets, projected to 2560."""

    modality = MODALITY_PROTEIN
    dim = PROTEIN_DIM
    n_buckets = 4096

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.provider_id = f"synthetic-protein-{seed}"

    def _tokens(self, text: str) -> list[str]:
        if len(text) < 3:
            return [text]
        return [text[i:i + 3] for i in range(len(text) - 2)]


class SyntheticTextProvider(_HashedProjectionProvider):
    """Word unigram+bigram counts hashed into 8192 buckets, projected to 4096."""

    modality = MODALITY_TEXT
    dim = TEXT_DIM
    n_buckets = 8192

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.provider_id = f"synthetic-text-{seed}"

    def _tokens(self, text: str) -> list[str]:
        words = text.lower().split()
        return words + [f"{a} {b}" for a, b in zip(words, words[1:])]


class PrecomputedProvider(EmbeddingProvider):
    """Serves vectors produced offline by real encoders, keyed by input hash."""

    provider_id = "precomputed"

    def __init__(self, store, modality: str, dim: int):
        self.store = store
        self.modality = modality
        self.dim = dim

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """One store get per input; an input with no stored vector raises
        E_PROVIDER and a stored vector of the wrong dim E_DIM."""
        vectors = []
        for text in texts:
            entry = self.store.get(canonical_hash(text))
            if entry is None:
                raise ProviderError("no precomputed vector for input")
            _, vec = entry  # the store has checked that it is finite
            if vec.shape != (self.dim,):
                raise DimensionError(f"{self.provider_id} vector has shape "
                                     f"{vec.shape}, expected ({self.dim},)")
            vectors.append(vec)
        return vectors


def _embed_checked(texts: list[str], provider: EmbeddingProvider,
                   modality: str) -> list[np.ndarray]:
    """provider.embed(texts) once the provider's modality is checked, and
    `texts` is a list (a str would be embedded a character at a time) with
    no empty input."""
    if provider.modality != modality:
        raise ProviderError(f"provider {provider.provider_id} is not a "
                            f"{modality} provider")
    if isinstance(texts, str):
        raise ProviderError("embed takes a list of inputs, not a str")
    if not all(texts):
        raise ProviderError("empty input")
    return provider.embed(texts)


def embed_protein(sequences: list[str],
                  provider: EmbeddingProvider) -> list[np.ndarray]:
    """The vector of each sequence, in order."""
    return _embed_checked(sequences, provider, MODALITY_PROTEIN)


def embed_text(texts: list[str],
               provider: EmbeddingProvider) -> list[np.ndarray]:
    """The vector of each prompt, in order."""
    return _embed_checked(texts, provider, MODALITY_TEXT)
