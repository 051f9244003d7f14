"""Deterministic prompt rendering for the tabular modality.

A record renders to a fixed template: a task preamble followed by the 29
features in schema order as "name: value" clauses.  Masked or missing
features render the literal token "Unknown".

`PromptCodes` finds the distinct prompts of many records without rendering
each record: it codes every feature value as an int.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import methodcaller

import numpy as np

from .schema import UNKNOWN, FeatureSchema, FeatureValue, SampleRecord

UNKNOWN_TOKEN = "Unknown"

_PREAMBLE = (
    "Predict whether the described protein is enriched in the protein corona "
    "formed on the described nanomaterial, given the experimental conditions. "
    "The protein corona is the layer of proteins that adsorbs onto a "
    "nanomaterial surface in biological fluids; its composition depends on "
    "the nanomaterial's physicochemical properties, the incubation "
    "conditions, and the separation and proteomic analysis protocols. "
    "Experimental descriptors follow."
)


@dataclass(frozen=True)
class PromptText:
    text: str
    canonical_hash: str  # 64-hex-digit SHA-256 of text


def canonical_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_value(value: FeatureValue, unit: str | None) -> str:
    if value.is_unknown:
        return UNKNOWN_TOKEN
    if value.kind == "numeric":
        rendered = _format_number(value.number)
        suffix = value.unit or unit
        if suffix:
            rendered += f" {suffix}"
        return rendered
    return value.text or UNKNOWN_TOKEN


def render_prompt(record: SampleRecord, schema: FeatureSchema,
                  mask_set: frozenset = frozenset()) -> PromptText:
    """Render a record to its canonical prompt, masking the given features."""
    clauses = []
    for fdef in schema.features:
        if fdef.feature_id in mask_set:
            rendered = UNKNOWN_TOKEN
        else:
            value = record.features.get(fdef.feature_id, UNKNOWN)
            rendered = _render_value(value, fdef.unit)
        clauses.append(f"{fdef.display_name}: {rendered}")
    text = _PREAMBLE + "\n" + "\n".join(clauses)
    return PromptText(text=text, canonical_hash=canonical_hash(text))


class PromptCodes:
    """The prompts of records, found through int codes.

    Each distinct value of a feature has a code, Unknown code 0, so a
    record is a row of codes and equal rows render equal prompts.  A mask
    sets its features' columns to 0: a masked feature renders as Unknown.
    Each code row is rendered once in the life of this object, and the
    codes of the records last asked about are kept.
    """

    def __init__(self, schema: FeatureSchema):
        self.schema = schema
        self._codes = [{UNKNOWN: 0} for _ in schema.features]  # value -> code
        self._texts: dict[bytes, str] = {}  # code row -> prompt text
        self._last: tuple = (None, None)    # (records, their codes)

    def codes(self, records: list[SampleRecord]) -> np.ndarray:
        """(len(records), features) int32: each record's row of codes."""
        if self._last[0] != records:
            features = [rec.features for rec in records]
            columns = []
            for fid, codes in zip(self.schema.feature_ids, self._codes):
                column = list(map(methodcaller("get", fid, UNKNOWN),
                                  features))
                for value in dict.fromkeys(column):
                    codes.setdefault(value, len(codes))
                columns.append(list(map(codes.__getitem__, column)))
            self._last = (list(records),
                          np.array(columns, dtype=np.int32).T.copy())
        return self._last[1]

    def prompts(self, records: list[SampleRecord],
                mask_set: frozenset = frozenset()
                ) -> tuple[list[str], np.ndarray]:
        """(texts, index): the distinct prompts of `records` under the
        mask, first seen first, and the position of each record's prompt
        among them."""
        codes = self.codes(records).copy()
        codes[:, [j for j, fid in enumerate(self.schema.feature_ids)
                  if fid in mask_set]] = 0
        keys = list(map(bytes, codes))  # one row's codes each
        first: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        texts: dict[str, int] = {}
        for key, i in first.items():
            if key not in self._texts:
                self._texts[key] = render_prompt(records[i], self.schema,
                                                 mask_set).text
            first[key] = texts.setdefault(self._texts[key], len(texts))
        return list(texts), np.array([first[key] for key in keys],
                                     dtype=np.intp)
