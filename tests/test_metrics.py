import numpy as np
import pytest

from ctrlab import metrics
from ctrlab.errors import MetricError, UsageError


def pairwise_auc(scores, labels):
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly,
    ties counting one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_average_ranks(scores: np.ndarray) -> np.ndarray:
    """Reference tie-averaged ranks: one Python pass over the sorted rows."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=float)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def loop_auc(scores, labels) -> float:
    """Reference ``auc``: the loop's tie-averaged ranks, summed over the
    positives as floats."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    rank_sum = loop_average_ranks(scores)[labels == 1.0].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestAuc:
    def test_worked_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert metrics.auc(scores, labels) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert metrics.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_perfectly_wrong(self):
        assert metrics.auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_scores(self):
        assert metrics.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_tie_counts_half(self):
        # one concordant pair, one tied pair -> (1 + 0.5) / 2
        assert metrics.auc([0.3, 0.3, 0.1], [1, 0, 0]) == pytest.approx(0.75)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            n = int(rng.integers(5, 60))
            # quantized scores to force plenty of ties
            scores = rng.integers(0, 8, size=n) / 8.0
            labels = (rng.random(n) < 0.5).astype(float)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
            assert metrics.auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12), trial

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(23)
        scores = rng.random(40)
        labels = (rng.random(40) < 0.4).astype(float)
        labels[:2] = [0.0, 1.0]
        base = metrics.auc(scores, labels)
        assert metrics.auc(3.0 * scores + 2.0, labels) == pytest.approx(base)
        assert metrics.auc(np.exp(scores), labels) == pytest.approx(base)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(29)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.5).astype(float)
        labels[:2] = [0.0, 1.0]
        a = metrics.auc(scores, labels)
        b = metrics.auc(-scores, 1.0 - labels)
        assert a == pytest.approx(b)

    def test_single_class_raises(self):
        with pytest.raises(MetricError):
            metrics.auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricError):
            metrics.auc([0.1, 0.9], [0, 0])

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            metrics.auc([0.1], [0, 1])


class TestLogloss:
    def test_half_predictions(self):
        assert metrics.logloss([0.5, 0.5], [0, 1]) == pytest.approx(np.log(2.0))

    def test_hand_evaluated(self):
        got = metrics.logloss([0.9, 0.2], [1, 0])
        want = -(np.log(0.9) + np.log(0.8)) / 2.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_clamping_keeps_finite(self):
        assert np.isfinite(metrics.logloss([0.0, 1.0], [1, 0]))

    def test_better_calibration_scores_lower(self):
        labels = [1, 1, 0, 0]
        sharp = metrics.logloss([0.9, 0.8, 0.1, 0.2], labels)
        blunt = metrics.logloss([0.6, 0.6, 0.4, 0.4], labels)
        assert sharp < blunt


class TestPerDomainReport:
    def _toy(self):
        scores = {"A": np.array([0.8, 0.2, 0.7, 0.3]),
                  "B": np.array([0.6, 0.4])}
        labels = {"A": np.array([1.0, 0.0, 1.0, 0.0]),
                  "B": np.array([1.0, 0.0])}
        return scores, labels

    def test_per_domain_values(self):
        scores, labels = self._toy()
        rep = metrics.per_domain_report(scores, labels)
        assert rep["domains"]["A"]["auc"] == 1.0
        assert rep["domains"]["B"]["auc"] == 1.0
        assert rep["domains"]["A"]["count"] == 4
        assert rep["overall_mode"] == "pooled"

    def test_pooled_vs_mean_differ_when_scales_differ(self):
        # each domain separates perfectly but their score ranges interleave,
        # so pooled ranking is imperfect while the mean of per-domain AUCs is 1
        scores = {"A": np.array([0.9, 0.6]), "B": np.array([0.5, 0.3])}
        labels = {"A": np.array([1.0, 0.0]), "B": np.array([1.0, 0.0])}
        pooled = metrics.per_domain_report(scores, labels, overall="pooled")
        mean = metrics.per_domain_report(scores, labels, overall="mean")
        assert mean["overall_auc"] == pytest.approx(1.0)
        assert pooled["overall_auc"] < 1.0

    def test_pooled_matches_concatenated_oracle(self):
        scores, labels = self._toy()
        rep = metrics.per_domain_report(scores, labels, overall="pooled")
        all_s = np.concatenate([scores["A"], scores["B"]])
        all_y = np.concatenate([labels["A"], labels["B"]])
        assert rep["overall_auc"] == pytest.approx(pairwise_auc(all_s, all_y))

    def test_domain_key_mismatch(self):
        scores, labels = self._toy()
        del labels["B"]
        with pytest.raises(UsageError):
            metrics.per_domain_report(scores, labels)

    def test_bad_overall_mode(self):
        scores, labels = self._toy()
        with pytest.raises(UsageError):
            metrics.per_domain_report(scores, labels, overall="median")


class TestMetricProperties:
    def test_domain_id_attached_to_metric_errors(self):
        scores = {"A": np.array([0.2, 0.8])}
        labels = {"A": np.array([1.0, 1.0])}  # single class
        with pytest.raises(MetricError, match="domain A"):
            metrics.per_domain_report(scores, labels)

    def test_logloss_lower_bounded_by_true_probabilities(self):
        # no scorer beats the true conditional probabilities on average
        rng = np.random.default_rng(31)
        n = 100_000
        p_true = rng.uniform(0.05, 0.95, size=n)
        labels = (rng.random(n) < p_true).astype(float)
        base = metrics.logloss(p_true, labels)
        for seed in range(3):
            noisy = np.clip(
                p_true + np.random.default_rng(seed).normal(0, 0.1, n),
                0.01, 0.99)
            assert metrics.logloss(noisy, labels) >= base
        assert metrics.logloss(np.full(n, labels.mean()), labels) >= base


def two_class_labels(n: int, seed: int) -> np.ndarray:
    labels = (np.random.default_rng(seed).random(n) < 0.3).astype(float)
    labels[:2] = [1.0, 0.0]
    return labels


class TestAverageRanks:
    """The AUC read off one unstable sort equals the AUC of the loop's
    tie-averaged ranks bit for bit."""

    @pytest.mark.parametrize("scores", [
        np.random.default_rng(5).integers(0, 1000, 200_000) / 1000.0,
        np.full(50, 0.25),
        np.array([0.7, 0.2]),
        np.linspace(-1.0, 1.0, 101),
        np.linspace(1.0, -1.0, 101),
        np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0]),
        np.random.default_rng(6).random(2_000),
    ], ids=["heavy-ties-200k", "all-tied", "single", "increasing",
            "decreasing", "signed-zeros", "no-ties-2000"])
    def test_bit_identical_to_loop(self, scores):
        # "single" is the one pair a two-class AUC needs.
        for seed in range(3):
            labels = two_class_labels(scores.size, seed)
            expected = loop_auc(scores, labels)
            got = metrics.auc(scores, labels)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
