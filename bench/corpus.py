"""Seeded corpus generator for the pipeline benchmark.

A corpus is studies x groups x proteins.  A group is one nanomaterial under
one set of experimental conditions, so every protein listed in a group shares
that group's prompt.  Each study owns a private protein pool, half of it
family A (strong binders, listed by every group) and half family B (each
group lists a rotating window of them), plus a cyclic share of a corpus-wide
common pool.  Local fill then adds each group's unlisted family-B proteins,
and global fill adds the common proteins that sit in at least three studies
and more than a tenth of all (study, group) units.  Pool membership is
arranged so that the row, sequence and prompt counts depend on the shape
only; the seed draws sequences, conditions and labels.

`expected` computes, from the sampled sets alone and without running the
program, the counts the curate and embed stages must produce: curated rows
(after local fill, global fill and filled variants), unique sequences and
unique prompts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

BOOKKEEPING_COLUMNS = ("sample_id", "study_id", "group_id", "origin_id",
                       "protein_accession", "rpa", "fill_flags",
                       "is_filled_variant")

# Same thresholds as the curation rules the expectations mirror.
AFFINITY_THRESHOLD = 1e-5
GLOBAL_FILL_UNIT_FRACTION = 0.10
GLOBAL_FILL_MIN_STUDIES = 3

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
# Two residue families: the synthetic 3-mer encoder separates them, so the
# protein half of the planted signal is learnable from the sequence alone.
FAMILY_A = "ACDEFGHIKL"
FAMILY_B = "MNPQRSTVWY"
SEQ_LEN = (150, 300)   # (min, max) residues of a catalog sequence

CORES = ("gold", "silica", "iron oxide", "polystyrene", "liposome",
         "graphene oxide")
CORE_TYPES = ("metal-based", "metal oxide-based", "metal oxide-based",
              "polymer-based", "lipid-based", "carbon-based")
SURFACES = ("citrate", "PEG", "amine", "carboxyl", "none")
SHAPES = ("spherical", "rod-like", "sheet-like")
MEDIA = ("water", "PBS", "HEPES")
SOURCES = ("human plasma", "human serum", "fetal bovine serum")
SEPARATIONS = ("centrifugation", "magnetic", "size exclusion")


@dataclass(frozen=True)
class CorpusShape:
    studies: int
    groups_per_study: int
    private_pool: int        # proteins private to each study, half family A
    listed_b: int            # family-B private proteins each group lists
    common_pool: int         # proteins shared across studies
    common_per_study: int    # common proteins every group of a study lists
    unknown_every: int       # every n-th group misses dls_size, incubation_time


@dataclass
class Corpus:
    corpus_rows: list        # list of dicts keyed by column
    catalog_rows: list       # (accession, sequence, mw)
    expected: dict


def _sequence(rng, length: int, family_a: bool) -> str:
    alphabet = FAMILY_A if family_a else FAMILY_B
    # mostly family residues with some shared background, so families overlap
    # in 3-mer space without collapsing onto each other
    own = rng.integers(0, len(alphabet), length)
    background = rng.integers(0, len(AMINO_ACIDS), length)
    use_bg = rng.random(length) < 0.1
    return "".join(AMINO_ACIDS[b] if bg else alphabet[o]
                   for o, b, bg in zip(own, background, use_bg))


def _group_features(schema, rng, g: int, unknown: bool) -> tuple[dict, bool]:
    """Cells for one group, and whether its surface charge is cationic."""
    core = int(rng.integers(0, len(CORES)))
    cationic = bool(rng.integers(0, 2))
    cells = {}
    for fdef in schema.features:
        if fdef.kind == "numeric":
            cells[fdef.feature_id] = repr(float(np.round(
                rng.uniform(1, 100), 3)))
        elif fdef.kind == "categorical":
            cells[fdef.feature_id] = f"{fdef.feature_id} type " \
                f"{int(rng.integers(0, 3))}"
        else:
            cells[fdef.feature_id] = ""
    cells.update({
        "core": CORES[core],
        "core_type": CORE_TYPES[core],
        "surface_modification": SURFACES[int(rng.integers(0, len(SURFACES)))],
        "modification_type": "Cationic" if cationic else "Anionic",
        "shape": SHAPES[int(rng.integers(0, len(SHAPES)))],
        # unique per group, so no two groups render the same prompt
        "primary_size": f"diameter {10 + g} nm",
        "dispersing_medium": MEDIA[int(rng.integers(0, len(MEDIA)))],
        "protein_source": SOURCES[int(rng.integers(0, len(SOURCES)))],
        "separation_method": SEPARATIONS[
            int(rng.integers(0, len(SEPARATIONS)))],
    })
    if unknown:
        # dls_size is imputed by group mean and incubation_time by the
        # corpus mode, so the filled variant always renders a new prompt
        cells["dls_size"] = ""
        cells["incubation_time"] = ""
    return cells, cationic


def generate(shape: CorpusShape, schema, seed: int) -> Corpus:
    """Draw a corpus of the given shape; the same seed gives the same rows."""
    rng = np.random.default_rng([seed, 20250714])
    n_common = shape.common_pool
    half = shape.private_pool // 2
    n_proteins = n_common + shape.studies * shape.private_pool
    # common proteins are family B; even positions of each private pool are
    # family A, odd ones family B
    family_a = np.zeros(n_proteins, dtype=bool)
    for s in range(shape.studies):
        base = n_common + s * shape.private_pool
        family_a[base:base + 2 * half:2] = True
    # lengths cycle through the range, so total residues do not vary by seed
    lo, hi = SEQ_LEN
    lengths = lo + (np.arange(n_proteins) * 53) % (hi - lo + 1)
    order = rng.permutation(n_proteins)   # accession numbering hides pools
    accessions = [f"BP{order[i]:06d}" for i in range(n_proteins)]
    catalog_rows = [(accessions[i],
                     _sequence(rng, int(lengths[i]), bool(family_a[i])),
                     float(10 + i % 150))
                    for i in range(n_proteins)]

    rows = []
    study_units = []  # per study: (group ids, protein union, unknown groups)
    g_global = 0
    for s in range(shape.studies):
        study = f"S{s:04d}"
        base = n_common + s * shape.private_pool
        pool_a = list(range(base, base + 2 * half, 2))
        pool_b = list(range(base + 1, base + 2 * half, 2))
        common = [(s * shape.common_per_study + j) % n_common
                  for j in range(shape.common_per_study)]
        offset = int(rng.integers(0, half))
        union = set(common) | set(pool_a)
        groups, unknown_groups = [], []
        for g in range(shape.groups_per_study):
            group = f"G{g:03d}"
            unknown = g_global % shape.unknown_every == 0
            cells, cationic = _group_features(schema, rng, g_global, unknown)
            listed_b = [pool_b[(offset + g * shape.listed_b + j) % half]
                        for j in range(shape.listed_b)]
            members = sorted(set(common) | set(pool_a) | set(listed_b))
            union.update(listed_b)
            groups.append(group)
            if unknown:
                unknown_groups.append(group)
            # stratified uniforms: each group's positive count stays close
            # to its expectation, so label balance barely moves with the seed
            draws = (rng.permutation(len(members))
                     + rng.random(len(members))) / len(members)
            for p, u in zip(members, draws):
                # affinity depends on the protein family and on the surface
                # charge together
                logit = 6.0 * (family_a[p] - 0.5) + 3.0 * (cationic - 0.5)
                if u < 1.0 / (1.0 + math.exp(-logit)):
                    rpa = float(10 ** rng.uniform(-4, -2))
                else:
                    rpa = float(rng.uniform(0, 0.5 * AFFINITY_THRESHOLD))
                sid = f"{study}-{group}-{accessions[p]}"
                row = dict(cells)
                row.update({
                    "sample_id": sid, "study_id": study, "group_id": group,
                    "origin_id": sid, "protein_accession": accessions[p],
                    "rpa": repr(rpa), "fill_flags": "",
                    "is_filled_variant": "0",
                })
                rows.append(row)
            g_global += 1
        study_units.append((groups, union, unknown_groups))

    return Corpus(corpus_rows=rows, catalog_rows=catalog_rows,
                  expected=_expected(study_units, n_raw=len(rows)))


def _expected(study_units, n_raw: int) -> dict:
    """Closed-form curate/embed counts from the sampled sets.

    Local fill gives every group its study's protein union.  A protein then
    sits in all units of each study that lists it, so it is globally eligible
    when those units exceed a tenth of all units and it spans three studies;
    global fill adds it to every unit.  Each record with an unknown feature
    (all rows of the unknown groups, fills included) gains a filled variant
    with its own prompt.
    """
    n_units = sum(len(groups) for groups, _, _ in study_units)
    units_of: dict[int, int] = {}
    studies_of: dict[int, int] = {}
    for groups, union, _ in study_units:
        for p in union:
            units_of[p] = units_of.get(p, 0) + len(groups)
            studies_of[p] = studies_of.get(p, 0) + 1
    eligible = {p for p in units_of
                if units_of[p] > GLOBAL_FILL_UNIT_FRACTION * n_units
                and studies_of[p] >= GLOBAL_FILL_MIN_STUDIES}
    curated = 0
    unknown_groups = 0
    for groups, union, unknown in study_units:
        per_unit = len(union | eligible)
        curated += (len(groups) + len(unknown)) * per_unit
        unknown_groups += len(unknown)
    return {
        "raw_rows": n_raw,
        "curated_rows": curated,
        "unique_sequences": len(units_of),
        "unique_prompts": n_units + unknown_groups,
        "units": n_units,
        "globally_filled_proteins": len(eligible),
    }


def write(corpus: Corpus, schema, directory: str) -> tuple[str, str]:
    """Write corpus.tsv and catalog.tsv; return their paths."""
    os.makedirs(directory, exist_ok=True)
    corpus_path = os.path.join(directory, "corpus.tsv")
    catalog_path = os.path.join(directory, "catalog.tsv")
    header = list(BOOKKEEPING_COLUMNS) + list(schema.feature_ids)
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in corpus.corpus_rows:
            fh.write("\t".join(row[c] for c in header) + "\n")
    with open(catalog_path, "w", encoding="utf-8") as fh:
        fh.write("accession\tsequence\tmolecular_weight_kda\n")
        for acc, seq, mw in corpus.catalog_rows:
            fh.write(f"{acc}\t{seq}\t{mw!r}\n")
    return corpus_path, catalog_path
