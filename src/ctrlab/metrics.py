"""Evaluation metrics for binary CTR prediction.

AUC is computed with the rank-sum formulation: assign average ranks to the
pooled scores, then AUC = (R_pos - n_pos(n_pos+1)/2) / (n_pos * n_neg).
This is O(n log n) and handles ties by average rank, which is equivalent to
counting tied positive/negative pairs as half-concordant. Tied blocks are
found without a per-row loop: the run boundaries of equal neighbours in the
stably sorted scores, compared in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError, UsageError

__all__ = ["auc", "logloss", "per_domain_report"]

_CLAMP = 1e-7


def _check_pair(scores, labels):
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape != labels.shape:
        raise UsageError(
            f"scores and labels differ in length: {scores.size} vs {labels.size}")
    if scores.size == 0:
        raise UsageError("empty score array")
    if not np.all(np.isfinite(scores)):
        raise MetricError("scores contain non-finite values")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise MetricError("labels must be 0 or 1")
    return scores, labels


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties replaced by the mean rank of the tied block."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # A tied block is a run of equal neighbours in sorted order; block k
    # spans sorted positions starts[k]..ends[k] inclusive.
    breaks = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [scores.size])) - 1
    ranks = np.empty(scores.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative."""
    scores, labels = _check_pair(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(
            f"AUC undefined for single-class labels (pos={n_pos}, neg={n_neg})")
    ranks = _average_ranks(scores)
    rank_sum = ranks[labels == 1.0].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels) -> float:
    """Mean binary cross-entropy; scores clamped away from {0,1}."""
    scores, labels = _check_pair(scores, labels)
    p = np.clip(scores, _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def per_domain_report(scores_by_domain: dict, labels_by_domain: dict,
                      overall: str = "pooled") -> dict:
    """Per-domain AUC/logloss plus a combined figure.

    overall="pooled" ranks all domains' scores together; overall="mean"
    averages the per-domain AUCs. The two answer different questions and the
    report records which one was used.
    """
    if overall not in ("pooled", "mean"):
        raise UsageError(f"unknown overall mode {overall!r}")
    if set(scores_by_domain) != set(labels_by_domain):
        raise UsageError("scores and labels cover different domains")
    if not scores_by_domain:
        raise UsageError("no domains to report on")
    report = {"domains": {}, "overall_mode": overall}
    for name in sorted(scores_by_domain):
        s, y = scores_by_domain[name], labels_by_domain[name]
        try:
            report["domains"][name] = {
                "auc": auc(s, y),
                "logloss": logloss(s, y),
                "count": int(np.asarray(s).size),
            }
        except MetricError as exc:
            raise MetricError(f"domain {name}: {exc}") from exc
    if overall == "pooled":
        all_s = np.concatenate([np.asarray(scores_by_domain[n], dtype=float).ravel()
                                for n in sorted(scores_by_domain)])
        all_y = np.concatenate([np.asarray(labels_by_domain[n], dtype=float).ravel()
                                for n in sorted(labels_by_domain)])
        report["overall_auc"] = auc(all_s, all_y)
        report["overall_logloss"] = logloss(all_s, all_y)
    else:
        vals = [report["domains"][n]["auc"] for n in report["domains"]]
        report["overall_auc"] = float(np.mean(vals))
        lls = [report["domains"][n]["logloss"] for n in report["domains"]]
        report["overall_logloss"] = float(np.mean(lls))
    return report
