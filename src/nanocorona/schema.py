"""Corpus data model: feature schema, sample records, protein catalogs.

The corpus is exchanged as UTF-8 TSV with a header row.  Unknown values are
encoded as empty cells.  Bookkeeping columns (identifiers, target, fill
provenance) live outside the experimental feature schema.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import (
    BadNumberError,
    BadSequenceError,
    DuplicateAccessionError,
    EncodingError,
    RowShapeError,
    UnknownColumnError,
)

CATEGORICAL = "categorical"
NUMERIC = "numeric"
FREE_TEXT = "free-text"

GROUP_NANOMATERIAL = "nanomaterial"
GROUP_INCUBATION = "incubation"
GROUP_SEPARATION = "separation"
GROUP_PROTEOMIC = "proteomic"

EXPECTED_GROUP_SIZES = {
    GROUP_NANOMATERIAL: 14,
    GROUP_INCUBATION: 9,
    GROUP_SEPARATION: 5,
    GROUP_PROTEOMIC: 1,
}

# Fixed bookkeeping columns, outside the experimental feature schema.
BOOKKEEPING_COLUMNS = (
    "sample_id",
    "study_id",
    "group_id",
    "origin_id",
    "protein_accession",
    "rpa",
    "fill_flags",
    "is_filled_variant",
)

# 20 canonical residues plus the ambiguity codes B, J, O, U, X, Z.
AMINO_ACID_ALPHABET = frozenset("ACDEFGHIKLMNPQRSTVWYBJOUXZ")


@dataclass(frozen=True)
class FeatureDef:
    feature_id: str
    display_name: str
    group: str
    kind: str
    unit: str | None = None


class FeatureValue(NamedTuple):
    """Tagged value: categorical text, numeric with unit, free text, or
    Unknown.  A tuple, so hashing and comparing one runs in C."""

    kind: str  # "categorical" | "numeric" | "text" | "unknown"
    text: str | None = None
    number: float | None = None
    unit: str | None = None

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def to_cell(self) -> str:
        if self.kind == "unknown":
            return ""
        if self.kind == "numeric":
            cell = repr(self.number)
            if self.unit:
                cell += f" {self.unit}"
            return cell
        return self.text or ""


UNKNOWN = FeatureValue(kind="unknown")


def categorical(text: str) -> FeatureValue:
    return FeatureValue(kind="categorical", text=text)


def numeric(number: float, unit: str | None = None) -> FeatureValue:
    return FeatureValue(kind="numeric", number=float(number), unit=unit)


def free_text(text: str) -> FeatureValue:
    return FeatureValue(kind="text", text=text)


class FeatureSchema:
    """Ordered, fixed set of 29 experimental features."""

    def __init__(self, features: list[FeatureDef]):
        ids = [f.feature_id for f in features]
        if len(ids) != len(set(ids)):
            raise ValueError("feature ids must be unique")
        if len(features) != 29:
            raise ValueError(f"schema must hold 29 features, got {len(features)}")
        counts: dict[str, int] = {}
        for f in features:
            counts[f.group] = counts.get(f.group, 0) + 1
        if counts != EXPECTED_GROUP_SIZES:
            raise ValueError(f"bad group sizes: {counts}")
        self.features = tuple(features)
        self._by_id = {f.feature_id: f for f in features}

    def __contains__(self, feature_id: str) -> bool:
        return feature_id in self._by_id

    def __getitem__(self, feature_id: str) -> FeatureDef:
        return self._by_id[feature_id]

    @property
    def feature_ids(self) -> tuple[str, ...]:
        return tuple(f.feature_id for f in self.features)


def default_schema() -> FeatureSchema:
    n, i, s, p = GROUP_NANOMATERIAL, GROUP_INCUBATION, GROUP_SEPARATION, GROUP_PROTEOMIC
    return FeatureSchema([
        FeatureDef("core", "core composition", n, CATEGORICAL),
        FeatureDef("core_type", "core type", n, CATEGORICAL),
        FeatureDef("surface_modification", "surface modification", n, CATEGORICAL),
        FeatureDef("modification_type", "modification charge type", n, CATEGORICAL),
        FeatureDef("shape", "particle shape", n, CATEGORICAL),
        FeatureDef("primary_size", "primary size", n, FREE_TEXT, "nm"),
        FeatureDef("dls_size", "hydrodynamic diameter", n, NUMERIC, "nm"),
        FeatureDef("zeta_potential", "zeta potential", n, NUMERIC, "mV"),
        FeatureDef("pdi", "polydispersity index", n, NUMERIC),
        FeatureDef("concentration", "nanomaterial concentration", n, NUMERIC, "mg/L"),
        FeatureDef("surface_area", "specific surface area", n, NUMERIC, "m2/mL"),
        FeatureDef("functional_group", "functional group", n, CATEGORICAL),
        FeatureDef("synthesis_method", "synthesis method", n, CATEGORICAL),
        FeatureDef("crystallinity", "crystallinity", n, CATEGORICAL),
        FeatureDef("protein_source", "incubation protein source", i, CATEGORICAL),
        FeatureDef("dispersing_medium", "dispersing medium", i, CATEGORICAL),
        FeatureDef("incubation_temperature", "incubation temperature", i, NUMERIC, "C"),
        FeatureDef("incubation_time", "incubation time", i, NUMERIC, "h"),
        FeatureDef("flow_speed", "flow speed", i, NUMERIC, "mL/min"),
        FeatureDef("protein_concentration", "protein concentration", i, NUMERIC, "mg/L"),
        FeatureDef("ph", "pH", i, NUMERIC),
        FeatureDef("ionic_strength", "ionic strength", i, NUMERIC, "mM"),
        FeatureDef("incubation_mode", "incubation mode", i, CATEGORICAL),
        FeatureDef("separation_method", "separation method", s, CATEGORICAL),
        FeatureDef("centrifugation_speed", "centrifugation speed", s, NUMERIC, "g"),
        FeatureDef("centrifugation_time", "centrifugation time", s, NUMERIC, "min"),
        FeatureDef("washing_steps", "washing steps", s, NUMERIC),
        FeatureDef("separation_temperature", "separation temperature", s, NUMERIC, "C"),
        FeatureDef("proteomic_depth", "proteomic depth", p, NUMERIC),
    ])


@dataclass(frozen=True)
class SampleRecord:
    """One nanomaterial-protein pair with fill provenance."""

    sample_id: str
    study_id: str
    group_id: str
    origin_id: str
    features: dict
    protein_accession: str
    rpa: float | None = None
    fill_flags: frozenset = frozenset()
    is_filled_variant: bool = False

    def with_feature(self, feature_id: str, value: FeatureValue,
                     extra_flags: frozenset = frozenset()) -> "SampleRecord":
        feats = dict(self.features)
        feats[feature_id] = value
        return replace(self, features=feats,
                       fill_flags=self.fill_flags | extra_flags)


@dataclass
class ProteinRecord:
    accession: str
    sequence: str
    molecular_weight: float | None = None  # kDa

    def __post_init__(self):
        if not self.sequence:
            raise BadSequenceError(f"empty sequence for {self.accession}")
        bad = set(self.sequence) - AMINO_ACID_ALPHABET
        if bad:
            raise BadSequenceError(
                f"sequence for {self.accession} contains invalid character "
                f"{sorted(bad)[0]!r}")


class ProteinCatalog:
    """Accession-keyed protein records with exact-match lookup."""

    def __init__(self):
        self._records: dict[str, ProteinRecord] = {}

    def add(self, record: ProteinRecord) -> None:
        existing = self._records.get(record.accession)
        if existing is not None and existing.sequence != record.sequence:
            raise DuplicateAccessionError(
                f"accession {record.accession} seen with two different sequences")
        self._records[record.accession] = record

    def lookup(self, accession: str) -> ProteinRecord | None:
        return self._records.get(accession)

    def __contains__(self, accession: str) -> bool:
        return accession in self._records

    def __len__(self) -> int:
        return len(self._records)

    def accessions(self) -> list[str]:
        return sorted(self._records)


@dataclass
class ValidationIssue:
    sample_id: str
    code: str
    message: str


@dataclass
class ValidationReport:
    total: int
    valid: int
    issues: list = field(default_factory=list)

    @property
    def invalid(self) -> int:
        return self.total - self.valid


def parse_number(cell: str, line_no: int, what: str, kind=float):
    """kind(cell) for the cell of `what` on line `line_no` of a table; a
    cell that does not parse, or parses to nan or an infinity, raises
    E_BAD_NUMBER naming the line."""
    try:
        value = kind(cell)
    except ValueError:
        value = math.nan
    if not -math.inf < value < math.inf:  # nan compares false
        raise BadNumberError(f"line {line_no}: {what} {cell!r} is not a "
                             f"finite number")
    return value


def _parse_cell(cell: str, fdef: FeatureDef, line_no: int) -> FeatureValue:
    cell = cell.strip()
    if cell == "":
        return UNKNOWN
    if fdef.kind == CATEGORICAL:
        return categorical(cell)
    if fdef.kind == FREE_TEXT:
        return free_text(cell)
    # numeric: "<number>" or "<number> <unit>"
    parts = cell.split(None, 1)
    value = parse_number(parts[0], line_no, fdef.feature_id)
    unit = parts[1].strip() if len(parts) > 1 else fdef.unit
    return numeric(value, unit)


def read_tsv(path, required: tuple[str, ...] = ()):
    """(header, rows) of a TSV file, rows yielding (line number, {column:
    cell}) one at a time; an empty file has no header and no rows.  The
    only check of a table's encoding, of its required columns and of each
    row's cell count.
    """
    with open(path, "rb") as fh:
        return _split_tsv(fh.read(), path, required)


def _split_tsv(raw: bytes, path, required: tuple[str, ...]):
    """read_tsv of a file whose bytes are `raw`."""
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise EncodingError(f"{path}: line {line}: byte "
                            f"0x{raw[exc.start]:02x} is not UTF-8") from None
    if not lines:
        return [], iter(())
    header = lines[0].split("\t")
    for col in required:
        if col not in header:
            raise UnknownColumnError(f"missing column {col!r}")

    def rows():
        for idx, line in enumerate(lines[1:], start=2):
            cells = line.split("\t")
            if len(cells) != len(header):
                raise RowShapeError(f"line {idx}: expected {len(header)} "
                                    f"cells, got {len(cells)}")
            yield idx, dict(zip(header, cells))
    return header, rows()


# The last sample table parsed, or written and handed over by keep_parse:
# ((sha256 of its bytes, schema.features), its records).  One entry, so a
# process keeps no table but the latest.
_last_parse: tuple = (None, [])


def parse_sample_table(path, schema: FeatureSchema) -> list[SampleRecord]:
    """Parse a TSV sample table into records; empty cells become Unknown.

    The last table parsed is kept, keyed by the sha256 of the file's bytes
    and the schema's features, so parsing the same content again returns a
    new list of the same records; `keep_parse` hands over the records a
    writer has just written in the same way.  Records are shared and
    read-only: no caller may mutate a record's `features` in place
    (`with_feature` and `dataclasses.replace` copy).  Within one parse,
    equal cells of a column share one FeatureValue and equal fill_flags
    cells one frozenset.  A parse that raises keeps nothing.
    """
    global _last_parse
    with open(path, "rb") as fh:
        raw = fh.read()
    key = (hashlib.sha256(raw).digest(), schema.features)
    if _last_parse[0] == key:
        return list(_last_parse[1])
    header, rows = _split_tsv(raw, path, BOOKKEEPING_COLUMNS)
    if not header:
        raise RowShapeError("empty file")
    for col in header:
        if col not in BOOKKEEPING_COLUMNS and col not in schema:
            raise UnknownColumnError(f"unknown column {col!r}")
    columns = [(fdef, {}) for fdef in schema.features]
    flag_sets: dict[str, frozenset] = {}
    records = []
    for idx, row in rows:
        features = {}
        for fdef, parsed in columns:
            cell = row.get(fdef.feature_id, "")
            value = parsed.get(cell)
            if value is None:
                value = parsed[cell] = _parse_cell(cell, fdef, idx)
            features[fdef.feature_id] = value
        rpa_cell = row["rpa"].strip()
        rpa = parse_number(rpa_cell, idx, "rpa") if rpa_cell else None
        flags_cell = row["fill_flags"]
        flags = flag_sets.get(flags_cell)
        if flags is None:
            flags = flag_sets[flags_cell] = frozenset(
                f for f in flags_cell.strip().split(";") if f)
        records.append(SampleRecord(
            sample_id=row["sample_id"],
            study_id=row["study_id"],
            group_id=row["group_id"],
            origin_id=row["origin_id"],
            features=features,
            protein_accession=row["protein_accession"],
            rpa=rpa,
            fill_flags=flags,
            is_filled_variant=row["is_filled_variant"].strip() in ("1", "true", "True"),
        ))
    _last_parse = (key, records)
    return list(records)


def write_atomic(path, data) -> None:
    """Write `data` (str as UTF-8, or bytes-like) to `path`.tmp, then
    `os.replace` it onto `path`: a reader sees the old file or the new."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    os.replace(tmp, path)


def write_json_atomic(path, obj, **dump_kwargs) -> None:
    """write_atomic of the bytes json.dump(obj, **dump_kwargs) writes."""
    write_atomic(path, json.dumps(obj, **dump_kwargs))


def _table_text(header, rows, sep: str) -> str:
    return "".join(sep.join(["" if v is None else str(v) for v in row]) + "\n"
                   for row in itertools.chain([header], rows))


def write_table(path, header, rows, sep: str = "\t"):
    """write_atomic of the header, then each row, a line each: a value as
    str() of it, None as empty.  Every row is formatted first; returns path."""
    write_atomic(path, _table_text(header, rows, sep))
    return path


def write_sample_table(records: list[SampleRecord], path,
                       schema: FeatureSchema) -> bytes:
    """Write records to TSV in schema order; inverse of parse_sample_table.
    Returns the bytes written."""
    feature_ids = schema.feature_ids
    raw = _table_text(BOOKKEEPING_COLUMNS + feature_ids, (
        [rec.sample_id, rec.study_id, rec.group_id, rec.origin_id,
         rec.protein_accession, rec.rpa, ";".join(sorted(rec.fill_flags)),
         "1" if rec.is_filled_variant else "0",
         *[rec.features.get(fid, UNKNOWN).to_cell() for fid in feature_ids]]
        for rec in records), "\t").encode("utf-8")
    write_atomic(path, raw)
    return raw


def keep_parse(raw: bytes, records: list[SampleRecord],
               schema: FeatureSchema) -> None:
    """Make `records` the kept parse of `raw`, the bytes write_sample_table
    wrote of them, when those bytes parse back to records equal to them
    (`_parses_back`): the next parse of that content then reads no row."""
    global _last_parse
    if _parses_back(records, schema):
        _last_parse = ((hashlib.sha256(raw).digest(), schema.features),
                       list(records))


def _parses_back(records: list[SampleRecord], schema: FeatureSchema) -> bool:
    """Whether parse_sample_table, given the bytes write_sample_table makes
    of `records`, returns records equal to them, of the same types and
    with each record's features in schema order.  Each cell must stay in
    its row and column (a printable string holds no tab or line break) and
    parse back to what was written.  Each distinct value object of a
    column is checked once, so the check costs a fraction of a parse."""
    feature_ids = schema.feature_ids
    rows, flag_sets = [], {}
    for rec in records:
        features = rec.features
        if not (type(features) is dict and tuple(features) == feature_ids
                and all(type(v) is str and v.isprintable()
                        for v in (rec.sample_id, rec.study_id, rec.group_id,
                                  rec.origin_id, rec.protein_accession))
                and (rec.rpa is None or type(rec.rpa) is float
                     and math.isfinite(rec.rpa))
                and type(rec.is_filled_variant) is bool
                and type(rec.fill_flags) is frozenset):
            return False
        flag_sets[id(rec.fill_flags)] = rec.fill_flags
        rows.append(tuple(features.values()))
    if not all(type(f) is str and f and f.isprintable() and ";" not in f
               and f == f.strip() for f in set().union(*flag_sets.values())):
        return False
    return all(_cell_parses_back(value, fdef)
               for fdef, column in zip(schema.features, zip(*rows))
               for value in dict(zip(map(id, column), column)).values())


_VALUE_KINDS = {CATEGORICAL: "categorical", FREE_TEXT: "text",
                NUMERIC: "numeric"}


def _cell_parses_back(value: FeatureValue, fdef: FeatureDef) -> bool:
    """Whether _parse_cell(value.to_cell(), fdef) == value, without building
    a value: text that parsing would not strip, a finite float (its repr
    reads back exactly), and a unit that is written or is the column's."""
    if type(value) is not FeatureValue:
        return False
    kind, text, number, unit = value.kind, value.text, value.number, value.unit
    if kind == "unknown":
        return text is None and number is None and unit is None
    if kind != _VALUE_KINDS.get(fdef.kind):
        return False
    if kind == "numeric":
        return text is None and type(number) is float \
            and math.isfinite(number) and (
                type(unit) is str and unit.isprintable()
                and unit == unit.strip() if unit else unit == fdef.unit)
    return number is None and unit is None and type(text) is str \
        and text.isprintable() and text == text.strip() and text != ""


def load_protein_catalog(path) -> ProteinCatalog:
    """Load a TSV catalog with columns accession, sequence, molecular_weight_kda."""
    catalog = ProteinCatalog()
    _, rows = read_tsv(path, ("accession", "sequence", "molecular_weight_kda"))
    for idx, row in rows:
        mw_cell = row["molecular_weight_kda"].strip()
        mw = parse_number(mw_cell, idx, "molecular_weight_kda") \
            if mw_cell else None
        catalog.add(ProteinRecord(
            accession=row["accession"].strip(),
            sequence=row["sequence"].strip(),
            molecular_weight=mw,
        ))
    return catalog


def write_protein_catalog(catalog: ProteinCatalog, path) -> None:
    write_table(path, ("accession", "sequence", "molecular_weight_kda"),
                ((rec.accession, rec.sequence, rec.molecular_weight)
                 for rec in map(catalog.lookup, catalog.accessions())))


def validate_corpus(records: list[SampleRecord], catalog: ProteinCatalog) -> ValidationReport:
    """Check accession resolvability, RPA range, and key uniqueness.

    All problems become report entries; nothing raises and nothing mutates.
    """
    issues = []
    seen_keys: dict[tuple, str] = {}
    flagged: set[str] = set()

    def flag(sample_id: str, code: str, message: str) -> None:
        issues.append(ValidationIssue(sample_id, code, message))
        flagged.add(sample_id)

    for rec in records:
        if rec.protein_accession not in catalog:
            flag(rec.sample_id, "MISSING_PROTEIN",
                 f"accession {rec.protein_accession!r} not in catalog")
        if rec.rpa is not None:
            if rec.rpa < 0:
                flag(rec.sample_id, "NEGATIVE_RPA", f"rpa = {rec.rpa}")
            elif rec.rpa > 1:
                flag(rec.sample_id, "RPA_ABOVE_ONE", f"rpa = {rec.rpa}")
        key = (rec.study_id, rec.group_id, rec.protein_accession, rec.is_filled_variant)
        if key in seen_keys:
            flag(rec.sample_id, "DUPLICATE_KEY",
                 f"duplicates sample {seen_keys[key]}")
        else:
            seen_keys[key] = rec.sample_id
    return ValidationReport(total=len(records),
                            valid=len(records) - len(flagged),
                            issues=issues)
