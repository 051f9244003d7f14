"""Record-to-matrix encoding: prompts and sequences through providers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProviderError
from .model import (
    MODALITY_FUSED,
    MODALITY_PROTEIN_ONLY,
    MODALITY_TEXT_ONLY,
    ModelParams,
    forward,
)
from .prompts import render_prompt
from .providers import EmbeddingProvider, embed_protein, embed_text
from .schema import UNKNOWN, FeatureSchema, ProteinCatalog, SampleRecord


@dataclass
class ProviderBundle:
    protein: EmbeddingProvider
    text: EmbeddingProvider


def _embed_rows(inputs: list[str], index: list[int], embed,
                provider: EmbeddingProvider) -> np.ndarray:
    """(len(index), provider.dim) float32 matrix whose row i is
    embed(inputs[index[i]], provider); every input is embedded in one call."""
    vectors = embed(inputs, provider)
    # copy rows straight into the result: gathering them from a stacked
    # distinct-input matrix frees a large block on every call, and glibc
    # then serves later large arrays from a heap it keeps resident
    matrix = np.empty((len(index), provider.dim), dtype=np.float32)
    for row, i in enumerate(index):
        matrix[row] = vectors[i]
    return matrix


def protein_sequence(catalog: ProteinCatalog, accession: str) -> str:
    protein = catalog.lookup(accession)
    if protein is None:
        raise ProviderError(f"accession {accession!r} not in catalog")
    return protein.sequence


def protein_matrix(records: list[SampleRecord], catalog: ProteinCatalog,
                   provider: EmbeddingProvider) -> np.ndarray:
    """One row per record, in record order; each distinct accession is
    embedded once."""
    accessions = [rec.protein_accession for rec in records]
    rows = {acc: i for i, acc in enumerate(dict.fromkeys(accessions))}
    sequences = [protein_sequence(catalog, acc) for acc in rows]
    return _embed_rows(sequences, [rows[acc] for acc in accessions],
                       embed_protein, provider)


def distinct_prompts(records: list[SampleRecord], schema: FeatureSchema,
                     mask_set: frozenset = frozenset()
                     ) -> tuple[list[str], list[int]]:
    """(prompts, index): the distinct prompt texts of `records` in
    first-seen order, and the position of each record's prompt among them.

    render_prompt is a pure function of a record's unmasked feature values
    and the mask set, so a record is rendered only when the tuple of its
    unmasked values is new.
    """
    feature_ids = [f for f in schema.feature_ids if f not in mask_set]
    by_values: dict[tuple, int] = {}
    by_text: dict[str, int] = {}
    index = []
    for rec in records:
        features = rec.features
        key = tuple([features.get(f, UNKNOWN) for f in feature_ids])
        row = by_values.get(key)
        if row is None:
            text = render_prompt(rec, schema, mask_set).text
            row = by_values[key] = by_text.setdefault(text, len(by_text))
        index.append(row)
    return list(by_text), index


def text_matrix(records: list[SampleRecord], schema: FeatureSchema,
                provider: EmbeddingProvider,
                mask_set: frozenset = frozenset()) -> np.ndarray:
    """One row per record, in record order; each distinct prompt is
    embedded once."""
    prompts, index = distinct_prompts(records, schema, mask_set)
    return _embed_rows(prompts, index, embed_text, provider)


def encode_view(records: list[SampleRecord], labels: np.ndarray,
                schema: FeatureSchema, catalog: ProteinCatalog,
                providers: ProviderBundle, modality: str = MODALITY_FUSED,
                mask_set: frozenset = frozenset()):
    """(protein, text, labels) arrays with None for an absent modality."""
    protein = None
    text = None
    if modality in (MODALITY_FUSED, MODALITY_PROTEIN_ONLY):
        protein = protein_matrix(records, catalog, providers.protein)
    if modality in (MODALITY_FUSED, MODALITY_TEXT_ONLY):
        text = text_matrix(records, schema, providers.text, mask_set)
    return protein, text, labels


def predict(params: ModelParams, records: list[SampleRecord],
            providers: ProviderBundle, schema: FeatureSchema,
            catalog: ProteinCatalog,
            mask_set: frozenset = frozenset()) -> np.ndarray:
    """Zero-shot path: render prompts, embed, forward; preserves input order."""
    protein, text, _ = encode_view(records, np.empty(len(records)), schema,
                                   catalog, providers,
                                   params.config.modality, mask_set)
    return forward(params, protein, text)
