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


class EmbeddingProvider:
    """Maps input text (sequence or prompt) to a fixed-dimension vector."""

    provider_id: str
    modality: str
    dim: int

    def embed(self, text: str) -> np.ndarray:
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
    """

    n_buckets: int

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._directions: dict[int, np.ndarray] = {}
        self._buckets: dict[str, int] = {}

    def _tokens(self, text: str) -> list[str]:
        raise NotImplementedError

    def _direction(self, bucket: int) -> np.ndarray:
        cached = self._directions.get(bucket)
        if cached is None:
            rng = np.random.default_rng([self.seed, bucket])
            cached = rng.standard_normal(self.dim)
            self._directions[bucket] = cached
        return cached

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ProviderError("empty input")
        buckets = self._buckets
        counts: dict[int, int] = {}
        for token in self._tokens(text):
            b = buckets.get(token)
            if b is None:
                b = buckets[token] = _bucket(token, self.n_buckets)
            counts[b] = counts.get(b, 0) + 1
        # the sum of count * direction in ascending bucket order, as float64;
        # a count of 1 adds the direction itself, which is the same value
        vec = np.zeros(self.dim, dtype=np.float64)
        scaled = np.empty(self.dim, dtype=np.float64)
        for b in sorted(counts):
            n = counts[b]
            if n == 1:
                vec += self._direction(b)
            else:
                vec += np.multiply(self._direction(b), n, out=scaled)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ProviderError("degenerate input: zero embedding")
        return (vec / norm).astype(np.float32)


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

    def embed(self, text: str) -> np.ndarray:
        entry = self.store.get(canonical_hash(text))
        if entry is None:
            raise ProviderError("no precomputed vector for input")
        _, vec = entry  # the store has checked that it is finite
        if vec.shape != (self.dim,):
            raise DimensionError(f"{self.provider_id} vector has shape "
                                 f"{vec.shape}, expected ({self.dim},)")
        return vec


def embed_protein(sequence: str, provider: EmbeddingProvider) -> np.ndarray:
    if provider.modality != MODALITY_PROTEIN:
        raise ProviderError(f"provider {provider.provider_id} is not a "
                            "protein provider")
    return provider.embed(sequence)


def embed_text(text: str, provider: EmbeddingProvider) -> np.ndarray:
    if provider.modality != MODALITY_TEXT:
        raise ProviderError(f"provider {provider.provider_id} is not a "
                            "text provider")
    if not text:
        raise ProviderError("empty input")
    return provider.embed(text)
