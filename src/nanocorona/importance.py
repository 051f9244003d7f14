"""Ablation-based modality importance, per-feature importance, and pairwise
synergy/redundancy analysis over a frozen model."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .encode import ProviderBundle, predict
from .errors import SameFeatureError, ViewMismatchError
from .model import (
    MODALITY_PROTEIN_ONLY,
    MODALITY_TEXT_ONLY,
    ModelConfig,
    ModelParams,
    metric_kind,
    score,
    train,
)
from .schema import (
    FeatureSchema,
    ProteinCatalog,
    write_json_atomic,
    write_table,
)
from .splits import TaskView

DEFAULT_EPSILON = 0.01

SYNERGY = "synergy"
REDUNDANCY = "redundancy"
NEUTRAL = "neutral"


@dataclass
class AblationRecord:
    feature: str
    metric_full: float
    metric_ablated: float
    delta: float
    metric_kind: str  # model.metric_kind of the view: "F1" | "R2" | "-MSE"


@dataclass
class InteractionRecord:
    pair: tuple
    delta_pair: float
    delta_f: float
    delta_g: float
    interaction: float
    classification: str


def classify_interaction(interaction: float,
                         epsilon: float = DEFAULT_EPSILON) -> str:
    if interaction > epsilon:
        return SYNERGY
    if interaction < -epsilon:
        return REDUNDANCY
    return NEUTRAL


def evaluate_view(params: ModelParams, view: TaskView, schema: FeatureSchema,
                  catalog: ProteinCatalog, providers: ProviderBundle,
                  mask_set: frozenset = frozenset()) -> float:
    """The metric early stopping maximises (`model.score`) on a view."""
    return score(predict(params, view.records, providers, schema, catalog,
                         mask_set), view.labels, params.config.task)


def train_single_modality(train_data, val_data, modality: str,
                          config: ModelConfig):
    """Train a one-modality model: self-attention over the single stream.

    train_data/val_data are (protein, text, labels) arrays; the absent
    modality must be None.
    """
    if modality not in (MODALITY_PROTEIN_ONLY, MODALITY_TEXT_ONLY):
        raise ValueError(f"bad modality {modality!r}")
    return train(train_data, val_data, replace(config, modality=modality))


def ablate_feature(params: ModelParams, eval_view: TaskView, feature: str,
                   schema: FeatureSchema, catalog: ProteinCatalog,
                   providers: ProviderBundle,
                   metric_full: float | None = None) -> AblationRecord:
    """Mask one feature to Unknown across the view and measure the drop."""
    if feature not in schema:
        raise ValueError(f"unknown feature {feature!r}")
    if metric_full is None:
        metric_full = evaluate_view(params, eval_view, schema, catalog,
                                    providers)
    metric_ablated = evaluate_view(params, eval_view, schema, catalog,
                                   providers, frozenset({feature}))
    return AblationRecord(feature=feature, metric_full=metric_full,
                          metric_ablated=metric_ablated,
                          delta=metric_full - metric_ablated,
                          metric_kind=metric_kind(eval_view.labels,
                                                  params.config.task))


def ablate_pair(params: ModelParams, eval_view: TaskView, f: str, g: str,
                schema: FeatureSchema, catalog: ProteinCatalog,
                providers: ProviderBundle, singles: dict,
                epsilon: float = DEFAULT_EPSILON) -> InteractionRecord:
    """Mask two features together and compare against the sum of singles."""
    if f == g:
        raise SameFeatureError(f"pair members must differ, got {f!r} twice")
    rec_f, rec_g = singles[f], singles[g]
    metric_full = rec_f.metric_full
    metric_pair = evaluate_view(params, eval_view, schema, catalog,
                                providers, frozenset({f, g}))
    delta_pair = metric_full - metric_pair
    interaction = delta_pair - (rec_f.delta + rec_g.delta)
    return InteractionRecord(
        pair=tuple(sorted((f, g))),
        delta_pair=delta_pair,
        delta_f=rec_f.delta,
        delta_g=rec_g.delta,
        interaction=interaction,
        classification=classify_interaction(interaction, epsilon))


@dataclass
class ModalityEvaluation:
    modality: str  # "fused" | "protein_only" | "text_only"
    metrics: dict
    sample_ids: list


def modality_report(full: ModalityEvaluation, protein_only: ModalityEvaluation,
                    text_only: ModalityEvaluation) -> dict:
    """Tabulate per-metric values and gaps across the three models."""
    evaluations = (full, protein_only, text_only)
    id_sets = {tuple(e.sample_ids) for e in evaluations}
    if len(id_sets) != 1:
        raise ViewMismatchError("evaluations cover different sample sets")
    metric_names = sorted(set().union(*(e.metrics for e in evaluations)))
    rows = []
    for name in metric_names:
        for e in evaluations:
            rows.append({"metric": name, "modality": e.modality,
                         "value": e.metrics.get(name)})
    gaps = {}
    for name in metric_names:
        fv = full.metrics.get(name)
        if fv is None:
            continue
        gaps[name] = {
            "vs_protein_only": (fv - protein_only.metrics[name]
                                if protein_only.metrics.get(name) is not None
                                else None),
            "vs_text_only": (fv - text_only.metrics[name]
                             if text_only.metrics.get(name) is not None
                             else None),
        }
    return {"rows": rows, "gaps": gaps}


def importance_report(records: list[AblationRecord],
                      interactions: list[InteractionRecord]) -> dict:
    """Features ranked by descending delta plus interaction figure data."""
    ranked = sorted(records, key=lambda r: (-r.delta, r.feature))
    return {
        "features": [{"feature": r.feature, "delta": r.delta,
                      "metric_full": r.metric_full,
                      "metric_ablated": r.metric_ablated,
                      "metric_kind": r.metric_kind}
                     for r in ranked],
        "interactions": [{"pair": list(r.pair),
                          "delta_pair": r.delta_pair,
                          "delta_f": r.delta_f,
                          "delta_g": r.delta_g,
                          "interaction": r.interaction,
                          "magnitude": abs(r.interaction),
                          "class": r.classification}
                         for r in interactions],
    }


def write_importance_report(report: dict, json_path, csv_path) -> None:
    rows = [("feature", row["feature"], row["delta"], None, None, None)
            for row in report["features"]]
    rows += [("interaction", "+".join(row["pair"]), None, row["interaction"],
              row["magnitude"], row["class"])
             for row in report["interactions"]]
    write_json_atomic(json_path, report, indent=1, sort_keys=True)
    write_table(csv_path, ("kind", "name", "delta", "interaction",
                           "magnitude", "class"), rows, sep=",")
