"""Corpus harmonization: semantic alignment, unit normalization, imputation,
relative-abundance estimation, zero fills, scaling, and labeling."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace

from .errors import (
    EmptyInputError,
    MissingMolecularWeightError,
    NoDataError,
    OutOfRangeError,
    UnknownUnitError,
    ZeroTotalError,
)
from .schema import (
    CATEGORICAL,
    GROUP_INCUBATION,
    GROUP_SEPARATION,
    UNKNOWN,
    FeatureSchema,
    SampleRecord,
    categorical,
    numeric,
    read_tsv,
)

CORE_TYPES = frozenset({
    "metal-based", "metal oxide-based", "carbon-based", "polymer-based",
    "lipid-based", "core-shell", "other",
})
CHARGE_CLASSES = frozenset({"Anionic", "Neutral", "Cationic"})
SHAPE_CLASSES = frozenset({
    "spherical", "rod-like", "sheet-like", "plate-like", "polyhedral", "complex",
})

# RPA threshold of 0.001%, expressed as a fraction.
AFFINITY_THRESHOLD = 1e-5

# Top-n scaling applies only to truncated lists of at most this many proteins.
TOP_N_LIMIT = 150

GLOBAL_FILL_UNIT_FRACTION = 0.10
GLOBAL_FILL_MIN_STUDIES = 3


@dataclass(frozen=True)
class AlignedValue:
    canonical: str
    derived_category: str
    unaligned: bool = False


class AlignmentTable:
    """Per-feature mapping raw string -> (canonical value, derived category)."""

    _category_domains = {
        "core": CORE_TYPES,
        "surface_modification": CHARGE_CLASSES,
        "shape": SHAPE_CLASSES,
    }

    def __init__(self):
        self._entries: dict[str, dict[str, tuple[str, str]]] = defaultdict(dict)

    def add(self, feature_id: str, raw: str, canonical: str, derived: str) -> None:
        domain = self._category_domains.get(feature_id)
        if domain is not None and derived not in domain:
            raise ValueError(
                f"derived category {derived!r} not valid for {feature_id}")
        self._entries[feature_id][raw] = (canonical, derived)

    def get(self, feature_id: str, raw: str) -> tuple[str, str] | None:
        return self._entries.get(feature_id, {}).get(raw)


def load_alignment_table(path) -> AlignmentTable:
    """Load a TSV with columns feature_id, raw, canonical, derived_category."""
    table = AlignmentTable()
    _, rows = read_tsv(path, ("feature_id", "raw", "canonical",
                              "derived_category"))
    for line_no, row in rows:
        try:
            table.add(row["feature_id"], row["raw"], row["canonical"],
                      row["derived_category"])
        except ValueError as exc:
            raise OutOfRangeError(f"line {line_no}: {exc}") from None
    return table


def align_categorical(feature_id: str, raw_text: str,
                      table: AlignmentTable) -> AlignedValue:
    """Map a raw categorical string to its canonical value and derived class.

    Unmapped values pass through unchanged with derived category "other".
    """
    entry = table.get(feature_id, raw_text)
    if entry is None:
        return AlignedValue(canonical=raw_text, derived_category="other",
                            unaligned=True)
    return AlignedValue(canonical=entry[0], derived_category=entry[1])


# core -> derived feature written alongside the canonical value
_DERIVED_TARGETS = {
    "core": "core_type",
    "surface_modification": "modification_type",
}


def apply_alignment(records: list[SampleRecord], table: AlignmentTable,
                    schema: FeatureSchema) -> list[SampleRecord]:
    """Rewrite categorical features through the alignment table.

    For core and surface modification, the derived category is written into
    its companion feature when that feature is still Unknown.
    """
    out = []
    for rec in records:
        feats = dict(rec.features)
        for fid, value in rec.features.items():
            if schema[fid].kind != CATEGORICAL or value.is_unknown:
                continue
            aligned = align_categorical(fid, value.text, table)
            if aligned.unaligned:
                continue
            feats[fid] = categorical(aligned.canonical)
            target = _DERIVED_TARGETS.get(fid)
            if target and feats.get(target, UNKNOWN).is_unknown:
                feats[target] = categorical(aligned.derived_category)
        out.append(replace(rec, features=feats))
    return out


@dataclass(frozen=True)
class RetainedOriginal:
    """Value kept in its original unit with a standardized tag."""

    value: float
    tag: str


# Exact factors to mg/L for mass-per-volume units.
_MASS_VOLUME_FACTORS = {
    "mg/l": 1.0,
    "g/l": 1000.0,
    "ug/l": 1e-3,
    "ng/l": 1e-6,
    "mg/ml": 1000.0,
    "ug/ml": 1.0,
    "ng/ml": 1e-3,
    "g/ml": 1e6,
}

# Factors to mol/L for molar units; conversion needs the molecular weight.
_MOLAR_FACTORS = {
    "mol/l": 1.0,
    "m": 1.0,
    "mmol/l": 1e-3,
    "mm": 1e-3,
    "umol/l": 1e-6,
    "um": 1e-6,
    "nmol/l": 1e-9,
    "nm": 1e-9,
}

# Units that cannot be converted to mg/L; retained with a standardized tag.
_RETAINED_TAGS = {
    "wt%": "wt%",
    "w/v%": "w/v%",
    "v/v%": "v/v%",
    "m2/ml": "m2/mL",
    "m2/l": "m2/L",
    "cm2/ml": "cm2/mL",
}


def _canonical_unit(unit: str) -> str:
    return unit.strip().lower().replace("µ", "u").replace("²", "2")


def normalize_concentration(value: float, unit: str, mw: float | None = None):
    """Convert a concentration to mg/L when possible.

    Molar units convert only when the molecular weight (kDa) is supplied.
    Area/volume and percent-by-weight units are retained with their tag.
    Returns either a float in mg/L or a RetainedOriginal.
    """
    if value < 0:
        raise ValueError(f"negative concentration {value}")
    key = _canonical_unit(unit)
    if key in _MASS_VOLUME_FACTORS:
        return value * _MASS_VOLUME_FACTORS[key]
    if key in _MOLAR_FACTORS:
        if mw is None:
            return RetainedOriginal(value=value, tag=unit.strip())
        # kDa -> g/mol is a factor of 1000; g/L -> mg/L another 1000
        return value * _MOLAR_FACTORS[key] * mw * 1000.0 * 1000.0
    if key in _RETAINED_TAGS:
        return RetainedOriginal(value=value, tag=_RETAINED_TAGS[key])
    raise UnknownUnitError(f"unit {unit!r} not recognized")


def _group_key(rec: SampleRecord, keys: tuple[str, ...]) -> tuple:
    parts = []
    for fid in keys:
        value = rec.features.get(fid, UNKNOWN)
        parts.append(None if value.is_unknown else value.text)
    return tuple(parts)


# The numeric features a filled variant imputes, and the grouping keys whose
# levels impute_numeric_weighted backs off through, finest first.
IMPUTE_FEATURES = ("dls_size", "zeta_potential", "pdi", "concentration",
                   "surface_area")
GROUPING_KEYS = ("core", "core_type", "surface_modification",
                 "modification_type", "shape")


def impute_numeric_weighted(records: list[SampleRecord], feature_id: str,
                            grouping_keys: tuple[str, ...]) -> list[SampleRecord]:
    """Fill Unknown numeric values with the record-weighted group mean.

    The finest grouping level with at least one observation wins; levels back
    off by dropping trailing grouping keys, ending at the global mean.
    """
    observed = [(rec, rec.features[feature_id].number)
                for rec in records
                if not rec.features.get(feature_id, UNKNOWN).is_unknown]
    if not observed:
        raise NoDataError(f"feature {feature_id!r} observed nowhere")

    # a level is a prefix of a record's group key: the full key first, then
    # with trailing components dropped, ending at the empty key, the global
    # mean, which always has an observation.  Prefixes of different lengths
    # never compare equal, so one dict holds every level.  Each record's
    # full key is computed once.
    sums: dict[tuple, float] = defaultdict(float)
    counts: dict[tuple, int] = defaultdict(int)
    for rec, value in observed:
        full = _group_key(rec, grouping_keys)
        for n in range(len(full) + 1):
            sums[full[:n]] += value
            counts[full[:n]] += 1

    unit = observed[0][0].features[feature_id].unit

    out = []
    flag = frozenset({f"imputed:{feature_id}"})
    for rec in records:
        if not rec.features.get(feature_id, UNKNOWN).is_unknown:
            out.append(rec)
            continue
        full = _group_key(rec, grouping_keys)
        gk = next(full[:n] for n in range(len(full), -1, -1)
                  if full[:n] in counts)
        filled = sums[gk] / counts[gk]
        out.append(rec.with_feature(feature_id, numeric(filled, unit), flag))
    return out


# Fixed protocol defaults; everything else falls back to the corpus mode.
PROTOCOL_DEFAULTS = {
    "incubation_temperature": numeric(37.0, "C"),
    "dispersing_medium": categorical("water"),
}


def impute_protocol_defaults(records: list[SampleRecord],
                             schema: FeatureSchema) -> list[SampleRecord]:
    """Fill missing incubation/separation features with defaults or the mode."""
    protocol_ids = [f.feature_id for f in schema.features
                    if f.group in (GROUP_INCUBATION, GROUP_SEPARATION)]
    modes: dict[str, object] = {}
    for fid in protocol_ids:
        tally = Counter()
        for rec in records:
            value = rec.features.get(fid, UNKNOWN)
            if value.is_unknown:
                continue
            key = value.text if schema[fid].kind == CATEGORICAL else value.number
            tally[key] += 1
        if tally:
            best = max(sorted(tally), key=lambda k: tally[k])
            if schema[fid].kind == CATEGORICAL:
                modes[fid] = categorical(best)
            else:
                modes[fid] = numeric(best, schema[fid].unit)

    out = []
    for rec in records:
        updated = rec
        for fid in protocol_ids:
            if not updated.features.get(fid, UNKNOWN).is_unknown:
                continue
            fill = PROTOCOL_DEFAULTS.get(fid, modes.get(fid))
            if fill is None:
                continue
            updated = updated.with_feature(fid, fill,
                                           frozenset({f"imputed:{fid}"}))
        out.append(updated)
    return out


@dataclass(frozen=True)
class QuantityObservation:
    protein_accession: str
    quantity: float
    quantity_kind: str  # rpa | spectral_count | intensity | peptide_number |
                        # molar_mass_fraction | empai | ibaq
    molecular_weight: float | None = None  # kDa

    def __post_init__(self):
        if self.quantity < 0:
            raise ValueError(f"negative quantity {self.quantity}")


def estimate_rpa(observations: list[QuantityObservation],
                 method: str) -> dict[str, float]:
    """Turn per-protein quantities into relative abundances summing to 1.

    methods: "normalization" divides each quantity by the total;
    "mw_normalization" first divides by the molecular weight; "ibaq" and
    "empai" treat the supplied per-protein values as already comparable and
    simply normalize them.
    """
    if not observations:
        raise ZeroTotalError("no observations")
    kinds = {obs.quantity_kind for obs in observations}
    if len(kinds) > 1:
        raise ValueError(f"mixed quantity kinds: {sorted(kinds)}")
    if method == "mw_normalization":
        weights = []
        for obs in observations:
            if obs.molecular_weight is None:
                raise MissingMolecularWeightError(
                    f"no molecular weight for {obs.protein_accession}")
            weights.append(obs.quantity / obs.molecular_weight)
    elif method in ("normalization", "ibaq", "empai"):
        weights = [obs.quantity for obs in observations]
    else:
        raise ValueError(f"unknown method {method!r}")
    total = sum(weights)
    if total <= 0:
        raise ZeroTotalError("quantities sum to zero")
    return {obs.protein_accession: w / total
            for obs, w in zip(observations, weights)}


def _fill_record(template: SampleRecord, accession: str, flag: str,
                 suffix: str) -> SampleRecord:
    new_id = f"{template.study_id}:{template.group_id}:{accession}:{suffix}"
    return replace(
        template,
        sample_id=new_id,
        origin_id=new_id,
        protein_accession=accession,
        rpa=0.0,
        fill_flags=frozenset({flag}),
    )


def local_fill(study_records: list[SampleRecord]) -> list[SampleRecord]:
    """Equalize protein sets across a study's groups with zero-RPA records."""
    if not study_records:
        return []
    studies = {rec.study_id for rec in study_records}
    if len(studies) > 1:
        raise ValueError(f"records span multiple studies: {sorted(studies)}")
    by_group: dict[str, list[SampleRecord]] = defaultdict(list)
    for rec in study_records:
        by_group[rec.group_id].append(rec)
    union = sorted({rec.protein_accession for rec in study_records})
    out = list(study_records)
    for group_id in sorted(by_group):
        present = {rec.protein_accession for rec in by_group[group_id]}
        template = by_group[group_id][0]
        for acc in union:
            if acc not in present:
                out.append(_fill_record(template, acc, "local_fill", "localfill"))
    return out


@dataclass
class ReferenceCurve:
    """Median cumulative abundance of the n top-ranked proteins, n = 1..150."""

    cumulative: dict[int, float]

    def __call__(self, n: int) -> float:
        return self.cumulative[n]


def build_reference_curve(complete_studies: list[list[float]],
                          max_n: int = TOP_N_LIMIT) -> ReferenceCurve:
    """Build the top-n cumulative-abundance curve from complete profiles.

    Each study is its full list of RPA values (must sum to 1 within 1e-6).
    Studies with fewer than n proteins contribute 1.0 at that n.
    """
    if not complete_studies:
        raise EmptyInputError("no complete studies")
    sorted_studies = []
    for values in complete_studies:
        total = sum(values)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"study RPA sums to {total}, expected 1")
        sorted_studies.append(sorted(values, reverse=True))
    cumulative = {}
    for n in range(1, max_n + 1):
        per_study = []
        for values in sorted_studies:
            if n >= len(values):
                per_study.append(1.0)
            else:
                per_study.append(sum(values[:n]))
        per_study.sort()
        m = len(per_study)
        if m % 2 == 1:
            median = per_study[m // 2]
        else:
            median = 0.5 * (per_study[m // 2 - 1] + per_study[m // 2])
        cumulative[n] = median
    return ReferenceCurve(cumulative)


@dataclass
class ScaleResult:
    records: list
    scaled: bool
    note: str | None = None


def top_n_scale(study_records: list[SampleRecord],
                curve: ReferenceCurve) -> ScaleResult:
    """Rescale a truncated top-ranked-only study by the reference curve.

    Applies only when the study lists at most 150 proteins; larger studies
    pass through with a NOT_SCALED note.
    """
    total = sum(rec.rpa or 0.0 for rec in study_records)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(
            f"study RPA sums to {total}; top-n scaling expects a truncated "
            "list summing to 1")
    n = len({rec.protein_accession for rec in study_records})
    if n > TOP_N_LIMIT:
        return ScaleResult(records=list(study_records), scaled=False,
                           note="NOT_SCALED")
    factor = curve(n)
    scaled = [replace(rec, rpa=(rec.rpa or 0.0) * factor,
                      fill_flags=rec.fill_flags | {"topn_scaled"})
              for rec in study_records]
    return ScaleResult(records=scaled, scaled=True)


def global_fill(corpus: list[SampleRecord]) -> list[SampleRecord]:
    """Zero-fill commonly observed proteins across the whole corpus.

    A protein qualifies when it is detected in more than 10% of distinct
    (study, group) units and in at least 3 studies.
    """
    units: dict[tuple, SampleRecord] = {}
    protein_units: dict[str, set] = defaultdict(set)
    protein_studies: dict[str, set] = defaultdict(set)
    for rec in corpus:
        unit = (rec.study_id, rec.group_id)
        units.setdefault(unit, rec)
        protein_units[rec.protein_accession].add(unit)
        protein_studies[rec.protein_accession].add(rec.study_id)
    n_units = len(units)
    eligible = sorted(
        acc for acc in protein_units
        if len(protein_units[acc]) > GLOBAL_FILL_UNIT_FRACTION * n_units
        and len(protein_studies[acc]) >= GLOBAL_FILL_MIN_STUDIES)
    out = list(corpus)
    for acc in eligible:
        for unit in sorted(units):
            if unit not in protein_units[acc]:
                out.append(_fill_record(units[unit], acc, "global_fill",
                                        "globalfill"))
    return out


def binarize(rpa: float) -> int:
    """Affinity label: 1 strictly above the 0.001% RPA threshold, else 0."""
    if not 0.0 <= rpa <= 1.0:
        raise ValueError(f"rpa {rpa} outside [0, 1]")
    return 1 if rpa > AFFINITY_THRESHOLD else 0
