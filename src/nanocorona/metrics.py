"""Classification and regression evaluation metrics."""

from __future__ import annotations

import numpy as np

from .boxcox import BoxCoxTransform, boxcox_invert
from .errors import ZeroVarianceError

AUC_UNDEFINED = None


def rank_auc(scores, labels):
    """AUC as the Mann-Whitney rank statistic with midrank tie handling.

    Returns None when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        return AUC_UNDEFINED
    # ranks start at 1; the c tied values whose last rank is r share the
    # mean of their ranks, r - (c - 1) / 2
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum = float(np.sum(ranks[labels == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def classification_metrics(scores, labels, threshold: float = 0.5) -> dict:
    """Accuracy, precision, recall, F1 at a threshold, plus rank-based AUC."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be equal-length and nonempty")
    predicted = (scores > threshold).astype(int)
    tp = int(np.sum((predicted == 1) & (labels == 1)))
    fp = int(np.sum((predicted == 1) & (labels == 0)))
    fn = int(np.sum((predicted == 0) & (labels == 1)))
    tn = int(np.sum((predicted == 0) & (labels == 0)))
    accuracy = (tp + tn) / scores.size
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "auc": rank_auc(scores, labels),
    }


def regression_metrics(predictions, targets,
                       transform: BoxCoxTransform | None = None) -> dict:
    """R^2, MSE, MAE in transform space; raw space added when invertible."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.size < 2:
        raise ValueError("need >= 2 matching predictions and targets")
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    if ss_tot == 0:
        raise ZeroVarianceError("constant targets")
    residuals = predictions - targets
    metrics = {
        "r2": 1.0 - float(np.sum(residuals ** 2)) / ss_tot,
        "mse": float(np.mean(residuals ** 2)),
        "mae": float(np.mean(np.abs(residuals))),
    }
    if transform is not None:
        # predictions may fall outside the invertible domain (1 + lam*z > 0);
        # clamp them to its edge so raw-space metrics stay defined
        clamped = predictions
        if transform.lam > 0:
            clamped = np.maximum(predictions, -1.0 / transform.lam + 1e-12)
        elif transform.lam < 0:
            clamped = np.minimum(predictions, -1.0 / transform.lam - 1e-12)
        raw_pred = boxcox_invert(clamped, transform)
        raw_true = boxcox_invert(targets, transform)
        raw_res = raw_pred - raw_true
        raw_tot = float(np.sum((raw_true - raw_true.mean()) ** 2))
        metrics["raw_mse"] = float(np.mean(raw_res ** 2))
        metrics["raw_mae"] = float(np.mean(np.abs(raw_res)))
        metrics["raw_r2"] = (1.0 - float(np.sum(raw_res ** 2)) / raw_tot
                             if raw_tot > 0 else None)
    return metrics
