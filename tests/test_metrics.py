import numpy as np
import pytest

from ctrlab import metrics, nn
from ctrlab.errors import MetricError, UsageError
from helpers import MAX_SUBNORMAL
import reference as ref


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


def wrapper_logloss(scores, labels) -> float:
    """Reference ``logloss`` arithmetic through np.clip and np.mean."""
    scores, labels = metrics._check_pair(scores, labels)
    p = np.clip(scores, nn.CLAMP_EPS, 1.0 - nn.CLAMP_EPS)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def wrapper_report(scores_by_domain, labels_by_domain,
                   overall="pooled") -> dict:
    """Reference ``per_domain_report`` with the log-loss of
    ``wrapper_logloss``."""
    report = {"domains": {}, "overall_mode": overall}
    for d in range(len(scores_by_domain)):
        s, y = scores_by_domain[d], labels_by_domain[d]
        try:
            report["domains"][str(d)] = {
                "auc": metrics.auc(s, y),
                "logloss": wrapper_logloss(s, y),
                "count": int(np.asarray(s).size),
            }
        except (MetricError, UsageError) as exc:
            raise type(exc)(f"domain {d}: {exc}") from exc
    if overall == "pooled":
        all_s = np.concatenate([np.asarray(s, dtype=float).ravel()
                                for s in scores_by_domain])
        all_y = np.concatenate([np.asarray(y, dtype=float).ravel()
                                for y in labels_by_domain])
        report["overall_auc"] = metrics.auc(all_s, all_y)
        report["overall_logloss"] = wrapper_logloss(all_s, all_y)
    else:
        vals = [report["domains"][n]["auc"] for n in report["domains"]]
        report["overall_auc"] = float(np.mean(vals))
        lls = [report["domains"][n]["logloss"] for n in report["domains"]]
        report["overall_logloss"] = float(np.mean(lls))
    return report


def edge_scores(n: int, seed: int) -> np.ndarray:
    """Scores in [0, 1] with signed zeros, subnormals, values on and past
    the clamp, exact ones and ties."""
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    edges = np.array([0.0, -0.0, 5e-324, MAX_SUBNORMAL, 1e-8, 1e-7,
                      1.0 - 1e-7, 1.0 - 1e-8, 1.0, 0.5, 0.5])
    spots = rng.permutation(n)[:n // 2]
    scores[spots] = np.resize(edges, spots.size)
    return scores


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
        scores = [np.array([0.8, 0.2, 0.7, 0.3]), np.array([0.6, 0.4])]
        labels = [np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 0.0])]
        return scores, labels

    def test_per_domain_values(self):
        scores, labels = self._toy()
        rep = metrics.per_domain_report(scores, labels)
        assert rep["domains"]["0"]["auc"] == 1.0
        assert rep["domains"]["1"]["auc"] == 1.0
        assert rep["domains"]["0"]["count"] == 4
        assert rep["overall_mode"] == "pooled"

    def test_pooled_vs_mean_differ_when_scales_differ(self):
        # each domain separates perfectly but their score ranges interleave,
        # so pooled ranking is imperfect while the mean of per-domain AUCs is 1
        scores = [np.array([0.9, 0.6]), np.array([0.5, 0.3])]
        labels = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        pooled = metrics.per_domain_report(scores, labels, overall="pooled")
        mean = metrics.per_domain_report(scores, labels, overall="mean")
        assert mean["overall_auc"] == pytest.approx(1.0)
        assert pooled["overall_auc"] < 1.0

    def test_pooled_matches_concatenated_oracle(self):
        scores, labels = self._toy()
        rep = metrics.per_domain_report(scores, labels, overall="pooled")
        all_s = np.concatenate(scores)
        all_y = np.concatenate(labels)
        assert rep["overall_auc"] == pytest.approx(pairwise_auc(all_s, all_y))

    @pytest.mark.parametrize("overall", metrics.OVERALL_MODES)
    def test_every_figure_from_the_public_calls(self, overall, monkeypatch):
        """Each domain's AUC and log-loss, and the pooled pair's, come from
        one call each of the public auc and logloss, in domain order."""
        calls = []

        def recording(name):
            real = getattr(metrics, name)

            def call(scores, labels):
                real(scores, labels)
                calls.append((name, len(scores)))
                return float(len(calls))  # which call gave a figure
            monkeypatch.setattr(metrics, name, call)

        recording("auc")
        recording("logloss")
        scores, labels = self._toy()
        report = metrics.per_domain_report(scores, labels, overall=overall)
        per_domain = [("auc", 4), ("logloss", 4), ("auc", 2), ("logloss", 2)]
        assert report["domains"] == {
            "0": {"auc": 1.0, "logloss": 2.0, "count": 4},
            "1": {"auc": 3.0, "logloss": 4.0, "count": 2}}
        if overall == "pooled":
            assert calls == per_domain + [("auc", 6), ("logloss", 6)]
            assert (report["overall_auc"], report["overall_logloss"]) == (
                5.0, 6.0)
        else:
            assert calls == per_domain
            assert (report["overall_auc"], report["overall_logloss"]) == (
                2.0, 3.0)

    def test_domain_key_mismatch(self):
        scores, labels = self._toy()
        del labels[1]
        with pytest.raises(UsageError, match="^scores cover 2 domains, "
                                             "labels 1$"):
            metrics.per_domain_report(scores, labels)

    def test_domains_in_numeric_order(self, monkeypatch):
        """At 11 domains the report and the pooled arrays run 0, 1, 2, ...,
        10, not in the strings' order 0, 1, 10, 2, ...; domain d has d + 2
        rows."""
        scores = [np.linspace(0.1, 0.9, d + 2) for d in range(11)]
        labels = [np.arange(d + 2) % 2.0 for d in range(11)]
        pooled = []
        auc = metrics.auc

        def recording(s, y):
            pooled[:] = [s, y]
            return auc(s, y)

        monkeypatch.setattr(metrics, "auc", recording)
        report = metrics.per_domain_report(scores, labels)
        assert list(report["domains"]) == [str(d) for d in range(11)]
        assert [f["count"] for f in report["domains"].values()] == list(
            range(2, 13))
        assert pooled[0].tobytes() == np.concatenate(scores).tobytes()
        assert pooled[1].tobytes() == np.concatenate(labels).tobytes()

    def test_bad_overall_mode(self):
        scores, labels = self._toy()
        with pytest.raises(UsageError):
            metrics.per_domain_report(scores, labels, overall="median")


class TestMetricProperties:
    def test_domain_id_attached_to_metric_errors(self):
        scores = [np.array([0.2, 0.8])]
        labels = [np.array([1.0, 1.0])]  # single class
        with pytest.raises(MetricError, match="domain 0"):
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
            expected = ref.loop_auc(scores, labels)
            got = metrics.auc(scores, labels)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestSameBitsAsWrapperExpressions:
    """``logloss`` calls ufuncs directly, with the bits of the wrapper
    expressions, alone and in a report, and the report's errors."""

    @pytest.mark.parametrize("n", [1, 2, 3, 128, 5_000])
    def test_logloss(self, n):
        scores = edge_scores(n, n)
        labels = two_class_labels(n, n) if n > 1 else np.array([1.0])
        labels[::3] = np.where(labels[::3] == 0.0, -0.0, 1.0)
        got = metrics.logloss(scores, labels)
        assert np.isfinite(got)
        assert np.float64(got).tobytes() == np.float64(
            wrapper_logloss(scores, labels)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 128, 5_000])
    def test_logloss_is_the_training_loss(self, n):
        """``logloss`` and ``nn.bce_loss`` average the terms of one
        ``nn.bce_terms``, so they give the same bits on finite scores."""
        scores = edge_scores(n, n)
        labels = two_class_labels(n, n) if n > 1 else np.array([1.0])
        labels[::3] = np.where(labels[::3] == 0.0, -0.0, 1.0)
        loss, _ = nn.bce_loss(scores, labels)
        assert np.float64(metrics.logloss(scores, labels)).tobytes() == (
            np.float64(loss).tobytes())

    @pytest.mark.parametrize("overall", ["pooled", "mean"])
    def test_report(self, overall):
        scores = [edge_scores(n, d) for d, n in enumerate([2, 9, 400])]
        labels = [two_class_labels(s.size, d + 7)
                  for d, s in enumerate(scores)]
        labels[1][:4] = [-0.0, 1.0, -0.0, 1.0]
        got = metrics.per_domain_report(scores, labels, overall=overall)
        want = wrapper_report(scores, labels, overall=overall)
        assert got == want
        for key in ("overall_auc", "overall_logloss"):
            assert np.float64(got[key]).tobytes() == np.float64(
                want[key]).tobytes()

    @pytest.mark.parametrize("bad, error", [
        ({"scores": np.array([0.2, np.nan, 0.4])}, MetricError),
        ({"scores": np.array([0.2, np.inf, 0.4])}, MetricError),
        ({"labels": np.array([1.0, 2.0, 0.0])}, MetricError),
        ({"labels": np.array([1.0, 1.0, 1.0])}, MetricError),
        ({"scores": np.array([0.2, 0.4])}, UsageError),
        ({"scores": np.array([]), "labels": np.array([])}, UsageError),
    ])
    def test_errors(self, bad, error):
        scores = [np.array([0.3, 0.6]), np.array([0.1, 0.5, 0.9])]
        labels = [np.array([0.0, 1.0]), np.array([1.0, 0.0, 1.0])]
        scores[1] = bad.get("scores", scores[1])
        labels[1] = bad.get("labels", labels[1])
        with pytest.raises(error) as got:
            metrics.per_domain_report(scores, labels)
        with pytest.raises(error) as want:
            wrapper_report(scores, labels)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("domain 1: ")
