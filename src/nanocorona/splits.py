"""Train/validation/test partitioning with counterpart co-location and
RPA-stratified train/val balance, plus task views."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .boxcox import BoxCoxTransform, boxcox_apply
from .curation import AFFINITY_THRESHOLD, binarize
from .errors import EmptyCorpusError
from .schema import SampleRecord, parse_number, read_tsv, write_table

logger = logging.getLogger(__name__)

TEST_FRACTION = 0.10
TRAIN_OF_POOL = 8.0 / 9.0
DEFAULT_N_BINS = 10

ZERO_BIN = -1  # dedicated bin for zero / non-affinity origins


@dataclass
class SplitAssignment:
    assignment: dict  # origin_id -> "train" | "val" | "test"
    bins: dict = field(default_factory=dict)  # origin_id -> bin index

    def split_of(self, origin_id: str) -> str:
        return self.assignment[origin_id]


def _origin_rpa(corpus: list[SampleRecord]) -> dict[str, float | None]:
    """RPA per origin, preferring the raw member of a counterpart pair."""
    by_origin: dict[str, dict[bool, float | None]] = {}
    for rec in corpus:
        by_origin.setdefault(rec.origin_id, {})[rec.is_filled_variant] = rec.rpa
    out = {}
    for origin, members in by_origin.items():
        if False in members:
            out[origin] = members[False]
        else:
            out[origin] = next(iter(members.values()))
    return out


def quantile_bin_edges(affinity_rpas,
                       n_bins: int = DEFAULT_N_BINS) -> list[float]:
    """Interior quantile edges over affinity RPA values, a list or an array.

    Bin membership under any strictly monotone transform of RPA is identical
    to binning the raw values, so edges are computed on the raw scale.
    """
    if len(affinity_rpas) == 0:
        return []
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    return [float(q) for q in np.quantile(affinity_rpas, qs)]


def _bin_index(rpa: float | None, bin_edges: list[float]) -> int:
    if rpa is None or rpa <= AFFINITY_THRESHOLD:
        return ZERO_BIN
    return int(np.searchsorted(bin_edges, rpa, side="right"))


def stratify_train_val(pool: list[tuple], bin_edges: list[float],
                       seed: int) -> tuple[list, list]:
    """Split (origin_id, rpa) pairs into train/val at 8:1 within each bin."""
    if not pool:
        raise EmptyCorpusError("empty pool")
    rng = np.random.default_rng(seed)
    by_bin: dict[int, list[str]] = {}
    for origin_id, rpa in pool:
        by_bin.setdefault(_bin_index(rpa, bin_edges), []).append(origin_id)
    train, val = [], []
    for b in sorted(by_bin):
        members = sorted(by_bin[b])
        rng.shuffle(members)
        n_train = int(round(len(members) * TRAIN_OF_POOL))
        train.extend(members[:n_train])
        val.extend(members[n_train:])
    return train, val


def assign_splits(corpus: list[SampleRecord], seed: int,
                  n_bins: int = DEFAULT_N_BINS) -> SplitAssignment:
    """Assign every origin to train/val/test.

    The test set is a seeded uniform 10% of origins; the remainder is
    stratified into train/val by binned RPA.  Counterpart pairs share an
    origin_id and therefore always land in the same split.
    """
    if not corpus:
        raise EmptyCorpusError("no records")
    rpa_by_origin = _origin_rpa(corpus)
    origins = sorted(rpa_by_origin)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(origins))
    n_test = int(round(len(origins) * TEST_FRACTION))
    test = {origins[i] for i in order[:n_test]}
    pool = [(o, rpa_by_origin[o]) for o in origins if o not in test]
    affinity = [r for _, r in pool if r is not None and r > AFFINITY_THRESHOLD]
    bin_edges = quantile_bin_edges(affinity, n_bins)
    train, val = stratify_train_val(pool, bin_edges, seed)
    assignment = {o: "test" for o in test}
    assignment.update({o: "train" for o in train})
    assignment.update({o: "val" for o in val})
    bins = {o: _bin_index(rpa_by_origin[o], bin_edges) for o in origins}
    return SplitAssignment(assignment=assignment, bins=bins)


def write_split_manifest(assignment: SplitAssignment, path) -> None:
    write_table(path, ("origin_id", "split", "bin"),
                ((origin, split, assignment.bins.get(origin, ZERO_BIN))
                 for origin, split in sorted(assignment.assignment.items())))


def read_split_manifest(path) -> SplitAssignment:
    assignment, bins = {}, {}
    _, rows = read_tsv(path, ("origin_id", "split", "bin"))
    for idx, row in rows:
        origin = row["origin_id"]
        assignment[origin] = row["split"]
        bins[origin] = parse_number(row["bin"], idx, "bin", int)
    return SplitAssignment(assignment=assignment, bins=bins)


@dataclass
class TaskView:
    task: str  # "classification" | "regression"
    records: list
    labels: np.ndarray

    @property
    def sample_ids(self) -> list[str]:
        return [rec.sample_id for rec in self.records]

    def __len__(self) -> int:
        return len(self.records)


def split_records(corpus: list[SampleRecord], assignment: SplitAssignment,
                  split: str) -> list[SampleRecord]:
    return [rec for rec in corpus
            if assignment.assignment.get(rec.origin_id) == split]


def classification_view(split_samples: list[SampleRecord]) -> TaskView:
    records = [rec for rec in split_samples if rec.rpa is not None]
    labels = np.array([binarize(rec.rpa) for rec in records], dtype=np.float64)
    return TaskView(task="classification", records=records, labels=labels)


def regression_view(split_samples: list[SampleRecord],
                    transform: BoxCoxTransform) -> TaskView:
    """Affinity-only view with Box-Cox-transformed RPA targets."""
    records = [rec for rec in split_samples
               if rec.rpa is not None and binarize(rec.rpa) == 1]
    if not records:
        logger.warning("regression view is empty: no affinity samples")
        return TaskView(task="regression", records=[],
                        labels=np.empty(0, dtype=np.float64))
    targets = np.array([boxcox_apply(rec.rpa, transform) for rec in records],
                       dtype=np.float64)
    return TaskView(task="regression", records=records, labels=targets)

