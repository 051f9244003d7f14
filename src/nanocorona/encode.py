"""Record-to-matrix encoding: prompts and sequences through providers.

A view encodes to one `model.UniqueRows` per modality the model reads: a
float32 matrix of the view's distinct inputs, each fetched once, and each
record's row index.  Prompts are found through `PromptCodes`.  A
`ProviderBundle` lives for one stage: it keeps the stage's prompt codes,
and the protein rows of the records it encoded last, which every ablation
mask encodes again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ProviderError
from .model import (
    MODALITY_FUSED,
    MODALITY_PROTEIN_ONLY,
    MODALITY_TEXT_ONLY,
    ModelParams,
    UniqueRows,
    forward,
)
from .prompts import PromptCodes
from .providers import EmbeddingProvider, embed_protein, embed_text
from .schema import FeatureSchema, ProteinCatalog, SampleRecord


@dataclass
class ProviderBundle:
    protein: EmbeddingProvider
    text: EmbeddingProvider
    _codes: PromptCodes | None = field(default=None, init=False, repr=False)
    _proteins: tuple = field(default=(None, None, None), init=False,
                             repr=False)  # (records, catalog, their rows)

    def prompt_codes(self, schema: FeatureSchema) -> PromptCodes:
        if self._codes is None or self._codes.schema is not schema:
            self._codes = PromptCodes(schema)
        return self._codes

    def protein_rows(self, records: list[SampleRecord],
                     catalog: ProteinCatalog) -> UniqueRows:
        """protein_matrix through this bundle's provider, fetched again
        only when the records or the catalog differ from the last call's."""
        if self._proteins[1] is not catalog or self._proteins[0] != records:
            self._proteins = (list(records), catalog,
                              protein_matrix(records, catalog, self.protein))
        return self._proteins[2]


def _unique_rows(inputs: list[str], index, embed,
                 provider: EmbeddingProvider) -> UniqueRows:
    """The rows embed(inputs[index[i]], provider); every input is embedded
    in one call."""
    unique = np.asarray(embed(inputs, provider), dtype=np.float32)
    return UniqueRows(unique.reshape(len(inputs), provider.dim),
                      np.asarray(index, dtype=np.intp))


def protein_sequence(catalog: ProteinCatalog, accession: str) -> str:
    protein = catalog.lookup(accession)
    if protein is None:
        raise ProviderError(f"accession {accession!r} not in catalog")
    return protein.sequence


def protein_matrix(records: list[SampleRecord], catalog: ProteinCatalog,
                   provider: EmbeddingProvider) -> UniqueRows:
    """One row per record, in record order, over the distinct accessions
    in first-seen order."""
    rows: dict[str, int] = {}
    index = [rows.setdefault(rec.protein_accession, len(rows))
             for rec in records]
    sequences = [protein_sequence(catalog, acc) for acc in rows]
    return _unique_rows(sequences, index, embed_protein, provider)


def text_matrix(records: list[SampleRecord], codes: PromptCodes,
                provider: EmbeddingProvider,
                mask_set: frozenset = frozenset()) -> UniqueRows:
    """One row per record, in record order, over the distinct prompts in
    first-seen order."""
    prompts, index = codes.prompts(records, mask_set)
    return _unique_rows(prompts, index, embed_text, provider)


def encode_view(records: list[SampleRecord], labels: np.ndarray,
                schema: FeatureSchema, catalog: ProteinCatalog,
                providers: ProviderBundle, modality: str = MODALITY_FUSED,
                mask_set: frozenset = frozenset()):
    """(protein, text, labels), a UniqueRows for each modality the model
    reads and None for the other."""
    protein = None
    text = None
    if modality in (MODALITY_FUSED, MODALITY_PROTEIN_ONLY):
        protein = providers.protein_rows(records, catalog)
    if modality in (MODALITY_FUSED, MODALITY_TEXT_ONLY):
        text = text_matrix(records, providers.prompt_codes(schema),
                           providers.text, mask_set)
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
