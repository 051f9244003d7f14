"""Partitioning tests: 8:1:1 ratios, counterpart co-location, per-bin
stratification, determinism, manifests, and task views."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nanocorona.boxcox import BoxCoxTransform, boxcox_apply
from nanocorona.errors import BadNumberError, EmptyCorpusError
from nanocorona.splits import (
    ZERO_BIN,
    assign_splits,
    classification_view,
    quantile_bin_edges,
    read_split_manifest,
    regression_view,
    split_records,
    stratify_train_val,
    write_split_manifest,
)
from nanocorona.schema import SampleRecord

from conftest import base_features


def _corpus(schema, n_origins, seed=0, affinity_fraction=0.7,
            with_variants=False):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_origins):
        feats = base_features(schema, rng)
        rpa = float(rng.uniform(1e-4, 1e-1)) \
            if rng.uniform() < affinity_fraction \
            else float(rng.uniform(0, 5e-6))
        origin = f"o{i:06d}"
        records.append(SampleRecord(
            sample_id=f"s{i:06d}", study_id=f"st{i % 7}", group_id="g0",
            origin_id=origin, features=feats,
            protein_accession=f"P{i % 40:05d}", rpa=rpa))
        if with_variants:
            records.append(dataclasses.replace(
                records[-1], sample_id=f"s{i:06d}::filled",
                is_filled_variant=True))
    return records


class TestAssignSplits:
    def test_ratios_within_one_percent(self, schema):
        corpus = _corpus(schema, 10_000)
        assignment = assign_splits(corpus, seed=11)
        counts = {"train": 0, "val": 0, "test": 0}
        for split in assignment.assignment.values():
            counts[split] += 1
        total = sum(counts.values())
        assert total == 10_000
        assert abs(counts["train"] / total - 0.8) <= 0.01
        assert abs(counts["val"] / total - 0.1) <= 0.01
        assert abs(counts["test"] / total - 0.1) <= 0.01

    def test_counterpart_colocation_is_total(self, schema):
        corpus = _corpus(schema, 400, with_variants=True)
        assignment = assign_splits(corpus, seed=3)
        for rec in corpus:
            raw = next(r for r in corpus
                       if r.origin_id == rec.origin_id
                       and not r.is_filled_variant)
            assert assignment.split_of(rec.origin_id) == \
                assignment.split_of(raw.origin_id)
        # every sample is placed
        placed = {assignment.assignment[r.origin_id] for r in corpus}
        assert placed <= {"train", "val", "test"}

    def test_per_bin_train_fraction(self, schema):
        corpus = _corpus(schema, 10_000)
        assignment = assign_splits(corpus, seed=5)
        per_bin = {}
        for origin, split in assignment.assignment.items():
            if split == "test":
                continue
            b = assignment.bins[origin]
            per_bin.setdefault(b, []).append(split)
        assert set(per_bin) >= set(range(10)) | {ZERO_BIN}
        for b, splits in per_bin.items():
            frac = splits.count("train") / len(splits)
            assert abs(frac - 8 / 9) <= 0.02, f"bin {b}: {frac}"

    def test_deterministic_per_seed(self, schema):
        corpus = _corpus(schema, 500)
        a = assign_splits(corpus, seed=21)
        b = assign_splits(corpus, seed=21)
        c = assign_splits(corpus, seed=22)
        assert a.assignment == b.assignment
        assert a.assignment != c.assignment

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            assign_splits([], seed=0)


class TestBins:
    def test_quantile_edges_are_interior(self):
        rng = np.random.default_rng(0)
        values = list(rng.uniform(1e-4, 1e-1, 1000))
        edges = quantile_bin_edges(values, n_bins=10)
        assert len(edges) == 9
        assert edges == sorted(edges)
        assert min(values) < edges[0] and edges[-1] < max(values)

    def test_bins_invariant_under_monotone_transform(self, schema):
        # binning on raw RPA equals binning on any strictly monotone
        # transform of it (quantiles commute with monotone maps)
        corpus = _corpus(schema, 600)
        assignment = assign_splits(corpus, seed=2)
        transform = BoxCoxTransform(0.3)
        rpas = {r.origin_id: r.rpa for r in corpus}
        affinity = sorted(o for o in rpas if rpas[o] > 1e-5)
        raw_order = sorted(affinity, key=lambda o: rpas[o])
        z_order = sorted(
            affinity, key=lambda o: boxcox_apply(rpas[o], transform))
        assert raw_order == z_order
        bins_in_order = [assignment.bins[o] for o in raw_order]
        assert bins_in_order == sorted(bins_in_order)

    def test_zero_bin_membership(self, schema):
        corpus = _corpus(schema, 300)
        assignment = assign_splits(corpus, seed=8)
        for rec in corpus:
            if rec.rpa <= 1e-5:
                assert assignment.bins[rec.origin_id] == ZERO_BIN
            else:
                assert assignment.bins[rec.origin_id] >= 0


class TestStratifyTrainVal:
    def test_counts_per_bin(self):
        pool = [(f"o{i}", 0.01 * (1 + i % 10)) for i in range(900)]
        edges = quantile_bin_edges([r for _, r in pool], 10)
        train, val = stratify_train_val(pool, edges, seed=0)
        assert len(train) + len(val) == 900
        assert set(train).isdisjoint(val)

    def test_empty_pool(self):
        with pytest.raises(EmptyCorpusError):
            stratify_train_val([], [], seed=0)


class TestManifest:
    def test_roundtrip(self, tmp_path, schema):
        corpus = _corpus(schema, 80)
        assignment = assign_splits(corpus, seed=1)
        path = tmp_path / "split.tsv"
        write_split_manifest(assignment, path)
        loaded = read_split_manifest(path)
        assert loaded.assignment == assignment.assignment
        assert loaded.bins == assignment.bins

    def test_bad_bin_names_its_line(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("origin_id\tsplit\tbin\no1\ttrain\t0\n"
                        "o2\tval\tx\n")
        with pytest.raises(BadNumberError, match="line 3"):
            read_split_manifest(path)

    def test_write_is_deterministic(self, tmp_path, schema):
        corpus = _corpus(schema, 50)
        assignment = assign_splits(corpus, seed=1)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_split_manifest(assignment, p1)
        write_split_manifest(assignment, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestTaskViews:
    def test_split_records_filters_by_assignment(self, schema):
        corpus = _corpus(schema, 100)
        assignment = assign_splits(corpus, seed=0)
        train = split_records(corpus, assignment, "train")
        assert all(assignment.split_of(r.origin_id) == "train" for r in train)
        total = sum(len(split_records(corpus, assignment, s))
                    for s in ("train", "val", "test"))
        assert total == len(corpus)

    def test_classification_view_labels(self, schema):
        corpus = _corpus(schema, 200)
        view = classification_view(corpus)
        for rec, label in zip(view.records, view.labels):
            assert label == (1.0 if rec.rpa > 1e-5 else 0.0)

    def test_regression_view_targets_and_membership(self, schema):
        corpus = _corpus(schema, 200)
        transform = BoxCoxTransform(0.2)
        view = regression_view(corpus, transform)
        assert all(r.rpa > 1e-5 for r in view.records)
        for rec, target in zip(view.records, view.labels):
            assert target == pytest.approx(boxcox_apply(rec.rpa, transform))

    def test_regression_view_empty_warns(self, schema, caplog):
        corpus = [r for r in _corpus(schema, 100) if r.rpa <= 1e-5]
        with caplog.at_level("WARNING"):
            view = regression_view(corpus, BoxCoxTransform(0.0))
        assert len(view) == 0
        assert any("empty" in m for m in caplog.messages)

