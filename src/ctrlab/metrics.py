"""Evaluation metrics for binary CTR prediction.

AUC is the Mann-Whitney rank-sum statistic (Hanley & McNeil, Radiology
1982): AUC = (R_pos - n_pos(n_pos+1)/2) / (n_pos * n_neg), where R_pos sums
the 1-based ranks of the positives and a tied block of scores shares its
mean rank, which counts tied positive/negative pairs as half-concordant.

The rank sum is read off one sort, and that sort need not be stable:
every member of a tied block gets the block's mean rank, so R_pos is the
sum over blocks of the block's positive count times its mean rank,
whatever order the block's members are in. Every such term is a multiple
of 1/2 and, below about 9e7 rows, every partial sum is below 2^52, so
float64 adds them exactly in any order: the sum is the same number
however the rows are sorted or grouped.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError, UsageError
from .nn import bce_terms

__all__ = ["auc", "logloss", "per_domain_report", "OVERALL_MODES"]

OVERALL_MODES = ("pooled", "mean")


def _check_pair(scores, labels):
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape != labels.shape:
        raise UsageError(
            f"scores and labels differ in length: {scores.size} vs {labels.size}")
    if scores.size == 0:
        raise UsageError("empty score array")
    if not np.isfinite(scores).all():
        raise MetricError("scores contain non-finite values")
    if not ((labels == 0.0) | (labels == 1.0)).all():
        raise MetricError("labels must be 0 or 1")
    return scores, labels


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative."""
    scores, labels = _check_pair(scores, labels)
    n_pos = int(np.add.reduce(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(
            f"AUC undefined for single-class labels (pos={n_pos}, neg={n_neg})")
    order = np.argsort(scores)
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # A tied block is a run of equal neighbours in sorted order; block k
    # spans sorted positions starts[k]..ends[k] inclusive.
    breaks = (sorted_scores[1:] != sorted_scores[:-1]).nonzero()[0] + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [scores.size])) - 1
    block_pos = np.add.reduceat(sorted_labels, starts)
    rank_sum = np.add.reduce(block_pos * (0.5 * (starts + ends) + 1.0))
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels) -> float:
    """Mean binary cross-entropy, over the clamped terms of nn.bce_terms."""
    _, terms = bce_terms(*_check_pair(scores, labels))
    return float(np.add.reduce(terms) / terms.size)


def per_domain_report(scores_by_domain: list, labels_by_domain: list,
                      overall: str = "pooled") -> dict:
    """Per-domain AUC/logloss plus a combined figure.

    Entry d of each list holds domain d's scores or labels; its figures go
    under the key ``str(d)``, in domain order. overall="pooled" ranks all
    domains' scores together; overall="mean" averages the per-domain AUCs.
    The two answer different questions and the report records which one
    was used.
    """
    if overall not in OVERALL_MODES:
        raise UsageError(f"unknown overall mode {overall!r}")
    if len(scores_by_domain) != len(labels_by_domain):
        raise UsageError(f"scores cover {len(scores_by_domain)} domains, "
                         f"labels {len(labels_by_domain)}")
    if not scores_by_domain:
        raise UsageError("no domains to report on")
    report = {"domains": {}, "overall_mode": overall}
    for d, (s, y) in enumerate(zip(scores_by_domain, labels_by_domain)):
        try:
            report["domains"][str(d)] = {
                "auc": auc(s, y),
                "logloss": logloss(s, y),
                "count": int(np.size(s)),
            }
        except (MetricError, UsageError) as exc:
            raise type(exc)(f"domain {d}: {exc}") from exc
    if overall == "pooled":
        all_s = np.concatenate([np.asarray(s, dtype=float).ravel()
                                for s in scores_by_domain])
        all_y = np.concatenate([np.asarray(y, dtype=float).ravel()
                                for y in labels_by_domain])
        report["overall_auc"] = auc(all_s, all_y)
        report["overall_logloss"] = logloss(all_s, all_y)
    else:
        figures = report["domains"].values()
        report["overall_auc"] = float(np.mean([f["auc"] for f in figures]))
        report["overall_logloss"] = float(
            np.mean([f["logloss"] for f in figures]))
    return report
