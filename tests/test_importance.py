"""Ablation and importance tests on constructed fixtures: causal vs null
features, idempotent masking, pair interactions, single-modality models,
and report assembly."""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np
import pytest

from nanocorona.boxcox import BoxCoxTransform
from nanocorona.encode import ProviderBundle, encode_view, predict
from nanocorona.errors import SameFeatureError, ViewMismatchError
from nanocorona.importance import (
    NEUTRAL,
    REDUNDANCY,
    SYNERGY,
    ModalityEvaluation,
    ablate_feature,
    ablate_pair,
    classify_interaction,
    evaluate_view,
    importance_report,
    modality_report,
    train_single_modality,
    write_importance_report,
)
from nanocorona.metrics import rank_auc
from nanocorona.model import forward, init_params, train
from nanocorona.providers import SyntheticProteinProvider, SyntheticTextProvider
from nanocorona.schema import UNKNOWN
from nanocorona.splits import (
    assign_splits,
    classification_view,
    regression_view,
    split_records,
)

from conftest import make_labeled_corpus, small_config


@pytest.fixture(scope="module")
def providers():
    return ProviderBundle(SyntheticProteinProvider(0), SyntheticTextProvider(0))


def _views(records, task="classification",
           transform=BoxCoxTransform(0.0, "fixture")):
    assignment = assign_splits(records, seed=1)
    out = {}
    for split in ("train", "val", "test"):
        members = split_records(records, assignment, split)
        out[split] = (classification_view(members)
                      if task == "classification"
                      else regression_view(members, transform))
    return out


def _encode(views, schema, catalog, providers, modality="fused"):
    return {s: encode_view(v.records, v.labels, schema, catalog, providers,
                           modality)
            for s, v in views.items()}


@pytest.fixture(scope="module")
def text_task(schema, providers):
    """Classification model whose label depends only on the core feature."""
    records, catalog = make_labeled_corpus(schema, 500, seed=0,
                                           label_rule="text")
    views = _views(records)
    data = _encode(views, schema, catalog, providers)
    params, _ = train(data["train"], data["val"], small_config())
    return {"params": params, "views": views, "catalog": catalog,
            "data": data}


@pytest.fixture(scope="module")
def additive_task(schema, providers):
    """Regression model over two independent additive causal features."""
    records, catalog = make_labeled_corpus(schema, 500, seed=5,
                                           label_rule="additive")
    views = _views(records, task="regression")
    data = _encode(views, schema, catalog, providers)
    cfg = small_config(task="regression", learning_rate=3e-3,
                       max_epochs=80, patience=20)
    params, history = train(data["train"], data["val"], cfg)
    assert max(history.val_metric) > 0.9  # fixture sanity
    return {"params": params, "views": views, "catalog": catalog}


class TestEvaluateView:
    def test_constant_target_regression_view_scores_negative_mse(
            self, schema, providers, additive_task):
        # R^2 is undefined on constant targets; the view gets the metric
        # early stopping uses there, the negative mean squared error
        params, catalog = additive_task["params"], additive_task["catalog"]
        test = additive_task["views"]["test"]
        view = dataclasses.replace(test, labels=np.full(len(test), 0.5))
        scores = predict(params, view.records, providers, schema, catalog)
        assert evaluate_view(params, view, schema, catalog, providers) == \
            -float(np.mean((scores - view.labels) ** 2))


class TestAblationMetricKind:
    """Each record names the metric `evaluate_view` scored the view by (a
    classification view's "F1": TestAblateFeature)."""

    @pytest.mark.parametrize("labels, kind", [
        (None, "R2"), ("constant", "-MSE"), ("one_row", "-MSE")])
    def test_regression_view(self, schema, providers, additive_task, labels,
                             kind):
        params, catalog = additive_task["params"], additive_task["catalog"]
        view = additive_task["views"]["test"]
        if labels == "constant":
            view = dataclasses.replace(view, labels=np.full(len(view), 0.5))
        elif labels == "one_row":
            view = dataclasses.replace(view, records=view.records[:1],
                                       labels=view.labels[:1])
        record = ablate_feature(params, view, "core", schema, catalog,
                                providers)
        assert record.metric_kind == kind
        assert record.metric_full == evaluate_view(params, view, schema,
                                                   catalog, providers)


class TestClassifyInteraction:
    def test_sign_and_threshold(self):
        assert classify_interaction(0.05, epsilon=0.01) == SYNERGY
        assert classify_interaction(-0.05, epsilon=0.01) == REDUNDANCY
        assert classify_interaction(0.005, epsilon=0.01) == NEUTRAL
        # boundary values are neutral
        assert classify_interaction(0.01, epsilon=0.01) == NEUTRAL
        assert classify_interaction(-0.01, epsilon=0.01) == NEUTRAL


class TestAblateFeature:
    def test_causal_feature_large_delta(self, schema, providers, text_task):
        record = ablate_feature(text_task["params"],
                                text_task["views"]["test"], "core", schema,
                                text_task["catalog"], providers)
        assert record.metric_kind == "F1"
        assert record.delta > 0.2

    def test_null_feature_small_delta(self, schema, providers, text_task):
        # crystallinity is constant across the corpus and label-independent
        record = ablate_feature(text_task["params"],
                                text_task["views"]["test"], "crystallinity",
                                schema, text_task["catalog"], providers)
        assert abs(record.delta) < 0.03

    def test_already_unknown_feature_zero_delta(self, schema, providers,
                                                text_task):
        view = text_task["views"]["test"]
        blanked = dataclasses.replace(view, records=[
            rec.with_feature("flow_speed", UNKNOWN) for rec in view.records])
        record = ablate_feature(text_task["params"], blanked, "flow_speed",
                                schema, text_task["catalog"], providers)
        assert record.delta == 0.0
        assert record.metric_ablated == record.metric_full

    def test_unknown_feature_name_rejected(self, schema, providers,
                                           text_task):
        with pytest.raises(ValueError, match="no_such"):
            ablate_feature(text_task["params"], text_task["views"]["test"],
                           "no_such", schema, text_task["catalog"], providers)

    def test_metric_full_reused_when_supplied(self, schema, providers,
                                              text_task):
        record = ablate_feature(text_task["params"],
                                text_task["views"]["test"], "core", schema,
                                text_task["catalog"], providers,
                                metric_full=0.75)
        assert record.metric_full == 0.75
        assert record.delta == 0.75 - record.metric_ablated


class TestAblatePair:
    def _singles(self, task, schema, providers, features):
        full = evaluate_view(task["params"], task["views"]["test"], schema,
                             task["catalog"], providers)
        return {f: ablate_feature(task["params"], task["views"]["test"], f,
                                  schema, task["catalog"], providers,
                                  metric_full=full)
                for f in features}

    def test_symmetric(self, schema, providers, text_task):
        singles = self._singles(text_task, schema, providers,
                                ["core", "shape"])
        ab = ablate_pair(text_task["params"], text_task["views"]["test"],
                         "core", "shape", schema, text_task["catalog"],
                         providers, singles)
        ba = ablate_pair(text_task["params"], text_task["views"]["test"],
                         "shape", "core", schema, text_task["catalog"],
                         providers, singles)
        assert ab.pair == ba.pair == ("core", "shape")
        assert ab.delta_pair == ba.delta_pair
        assert ab.interaction == ba.interaction

    def test_same_feature_rejected(self, schema, providers, text_task):
        with pytest.raises(SameFeatureError):
            ablate_pair(text_task["params"], text_task["views"]["test"],
                        "core", "core", schema, text_task["catalog"],
                        providers, {})

    def test_additive_features_near_zero_interaction(self, schema, providers,
                                                     additive_task):
        singles = self._singles(additive_task, schema, providers,
                                ["core", "dispersing_medium"])
        # both causal features individually matter
        assert singles["core"].delta > 0.2
        assert singles["dispersing_medium"].delta > 0.2
        record = ablate_pair(additive_task["params"],
                             additive_task["views"]["test"], "core",
                             "dispersing_medium", schema,
                             additive_task["catalog"], providers, singles,
                             epsilon=0.05)
        assert record.interaction == record.delta_pair - \
            (record.delta_f + record.delta_g)
        assert abs(record.interaction) < 0.05
        assert record.classification == NEUTRAL

    def test_duplicated_causal_features_are_synergistic(self, schema,
                                                        providers):
        # surface_modification copies core, so either alone carries the
        # label; single deltas stay small and the joint delta is large
        records, catalog = make_labeled_corpus(schema, 500, seed=2,
                                               label_rule="text")
        records = [rec.with_feature("surface_modification",
                                    rec.features["core"])
                   for rec in records]
        views = _views(records)
        data = _encode(views, schema, catalog,
                       ProviderBundle(providers.protein, providers.text))
        params, _ = train(data["train"], data["val"], small_config())
        task = {"params": params, "views": views, "catalog": catalog}
        singles = self._singles(task, schema, providers,
                                ["core", "surface_modification"])
        record = ablate_pair(params, views["test"], "core",
                             "surface_modification", schema, catalog,
                             providers, singles)
        assert record.delta_pair > singles["core"].delta + \
            singles["surface_modification"].delta
        assert record.classification == SYNERGY


class TestSingleModality:
    def test_absent_modality_has_no_blocks(self):
        protein_only = init_params(small_config(modality="protein_only"))
        text_only = init_params(small_config(modality="text_only"))
        assert not any("proj_text" in k for k in protein_only.blocks)
        assert not any("proj_protein" in k for k in text_only.blocks)
        assert any(k.startswith("attn_self.") for k in protein_only.blocks)

    def test_protein_only_solves_sequence_task(self, schema, providers):
        records, catalog = make_labeled_corpus(schema, 400, seed=7,
                                               label_rule="protein")
        views = _views(records)
        data = _encode(views, schema, catalog, providers,
                       modality="protein_only")
        params, _ = train_single_modality(data["train"], data["val"],
                                          "protein_only", small_config())
        scores = forward(params, data["val"][0], None)
        assert rank_auc(scores, data["val"][2]) >= 0.9

    def test_text_task_separates_modalities(self, schema, providers,
                                            text_task):
        views = text_task["views"]
        catalog = text_task["catalog"]
        aucs = {}
        for modality in ("text_only", "protein_only"):
            data = _encode(views, schema, catalog, providers, modality)
            params, _ = train_single_modality(data["train"], data["val"],
                                              modality, small_config())
            scores = forward(params, data["val"][0], data["val"][1])
            aucs[modality] = rank_auc(scores, data["val"][2])
        assert aucs["text_only"] >= 0.9
        assert aucs["protein_only"] <= 0.6

    def test_bad_modality_rejected(self):
        with pytest.raises(ValueError):
            train_single_modality(None, None, "fused", small_config())


class TestFusionOutperformsSingles:
    def test_xor_task_needs_both_modalities(self, schema, providers):
        records, catalog = make_labeled_corpus(schema, 500, seed=3,
                                               label_rule="xor")
        views = _views(records)
        aucs = {}
        for modality in ("fused", "protein_only", "text_only"):
            data = _encode(views, schema, catalog, providers, modality)
            cfg = small_config(modality=modality)
            params, _ = train(data["train"], data["val"], cfg)
            scores = forward(params, data["val"][0], data["val"][1])
            aucs[modality] = rank_auc(scores, data["val"][2])
        assert aucs["fused"] - aucs["protein_only"] >= 0.1
        assert aucs["fused"] - aucs["text_only"] >= 0.1


class TestModalityReport:
    def _evaluation(self, modality, metrics, ids=("s1", "s2")):
        return ModalityEvaluation(modality=modality, metrics=metrics,
                                  sample_ids=list(ids))

    def test_three_rows_per_metric_and_gaps(self):
        report = modality_report(
            self._evaluation("fused", {"f1": 0.9, "auc": 0.95}),
            self._evaluation("protein_only", {"f1": 0.6, "auc": 0.7}),
            self._evaluation("text_only", {"f1": 0.8, "auc": 0.85}))
        assert len(report["rows"]) == 6
        assert report["gaps"]["f1"]["vs_protein_only"] == pytest.approx(0.3)
        assert report["gaps"]["auc"]["vs_text_only"] == pytest.approx(0.1)

    def test_undefined_metric_gap_is_none(self):
        report = modality_report(
            self._evaluation("fused", {"auc": 0.9}),
            self._evaluation("protein_only", {"auc": None}),
            self._evaluation("text_only", {"auc": 0.8}))
        assert report["gaps"]["auc"]["vs_protein_only"] is None

    def test_mismatched_views_rejected(self):
        with pytest.raises(ViewMismatchError):
            modality_report(
                self._evaluation("fused", {"f1": 0.9}),
                self._evaluation("protein_only", {"f1": 0.6},
                                 ids=("s1", "s3")),
                self._evaluation("text_only", {"f1": 0.8}))


class TestImportanceReport:
    def _records(self):
        from nanocorona.importance import AblationRecord, InteractionRecord
        singles = [
            AblationRecord("a", 0.9, 0.8, 0.1, "F1"),
            AblationRecord("b", 0.9, 0.5, 0.4, "F1"),
            AblationRecord("c", 0.9, 0.88, 0.02, "F1"),
        ]
        pairs = [InteractionRecord(("a", "b"), 0.6, 0.1, 0.4, 0.1, SYNERGY),
                 InteractionRecord(("a", "c"), 0.1, 0.1, 0.02, -0.02,
                                   REDUNDANCY)]
        return singles, pairs

    def test_features_ranked_by_delta(self):
        singles, pairs = self._records()
        report = importance_report(singles, pairs)
        assert [row["feature"] for row in report["features"]] == \
            ["b", "a", "c"]

    def test_magnitude_is_absolute_interaction(self):
        singles, pairs = self._records()
        report = importance_report(singles, pairs)
        for row in report["interactions"]:
            assert row["magnitude"] == abs(row["interaction"])

    def test_empty_interactions_allowed(self):
        singles, _ = self._records()
        report = importance_report(singles, [])
        assert report["interactions"] == []

    def test_written_files(self, tmp_path):
        singles, pairs = self._records()
        report = importance_report(singles, pairs)
        json_path = tmp_path / "importance.json"
        csv_path = tmp_path / "importance.csv"
        write_importance_report(report, json_path, csv_path)
        assert json.loads(json_path.read_text()) == report
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "kind"
        assert len(rows) == 1 + len(singles) + len(pairs)
