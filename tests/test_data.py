import numpy as np
import pytest

from ctrlab import data as D
from ctrlab.errors import ConfigError, DataError, SchemaError, SplitError
from ctrlab.metrics import auc


def two_field_schema(domains=2):
    return D.Schema(domains=domains,
                    fields=(D.FeatureField("f0", 8), D.FeatureField("f1", 32)))


def onehot(features, vocab_sizes):
    cols = []
    for j, v in enumerate(vocab_sizes):
        block = np.zeros((features.shape[0], v))
        block[np.arange(features.shape[0]), features[:, j]] = 1.0
        cols.append(block)
    return np.concatenate(cols, axis=1)


def train_logreg(X, y, steps=300, lr=0.5):
    w = np.zeros(X.shape[1])
    b = 0.0
    n = X.shape[0]
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        g = p - y
        w -= lr * (X.T @ g) / n
        b -= lr * g.mean()
    return w, b


def logreg_scores(X, w, b):
    return 1.0 / (1.0 + np.exp(-(X @ w + b)))


class LoopSampler(D.QuotaSampler):
    """Reference sampler: draws each sample in a per-sample Python loop.

    Counts the de-duplication swaps it makes, so a test can show that its
    case really exercises them.
    """

    def __init__(self, datas, quotas, rng):
        super().__init__(datas, quotas, rng)
        self.swaps = 0

    def _draw_domain(self, d: int) -> np.ndarray:
        dd, quota = self.datas[d], self.quotas[d]
        n = len(dd)
        taken = []
        taken_set = set()
        dedup = n >= quota
        for _ in range(quota):
            if self._cursors[d] == n:
                self._perms[d] = self.rng.permutation(n)
                self._cursors[d] = 0
            perm, cur = self._perms[d], self._cursors[d]
            if dedup and perm[cur] in taken_set:
                j = cur + 1
                while j < n and perm[j] in taken_set:
                    j += 1
                if j < n:
                    perm[cur], perm[j] = perm[j], perm[cur]
                    self.swaps += 1
            taken.append(perm[cur])
            taken_set.add(int(perm[cur]))
            self._cursors[d] += 1
        return np.array(taken, dtype=np.int64)


class TestSchema:
    def test_round_trip_json(self):
        s = two_field_schema(3)
        again = D.Schema.from_json(s.to_json())
        assert again == s
        assert again.header() == "domain,label,f0,f1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            D.Schema(domains=1,
                     fields=(D.FeatureField("x", 2), D.FeatureField("x", 2)))

    def test_bad_vocab_rejected(self):
        with pytest.raises(SchemaError):
            D.Schema(domains=1, fields=(D.FeatureField("x", 0),))

    def test_file_round_trip(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "schema.json"
        s.save(path)
        assert D.Schema.load(path) == s


class TestParseRow:
    def test_direct_parse(self):
        s = two_field_schema()
        sample = D.parse_row("1,1,4,17", s, line_no=2)
        assert sample == D.Sample(domain=1, label=1, features=(4, 17))

    def test_wrong_column_count_is_malformed(self):
        assert D.parse_row("1,1,4", two_field_schema(), 2) is None

    def test_non_integer_is_malformed(self):
        assert D.parse_row("1,1,4,spam", two_field_schema(), 2) is None

    def test_feature_at_vocab_size_names_field(self):
        with pytest.raises(DataError, match="f0"):
            D.parse_row("0,1,8,0", two_field_schema(), 5)

    def test_error_carries_line_number(self):
        with pytest.raises(DataError, match="line 5"):
            D.parse_row("0,1,8,0", two_field_schema(), 5)

    def test_domain_out_of_range(self):
        with pytest.raises(DataError):
            D.parse_row("2,1,0,0", two_field_schema(domains=2), 3)

    def test_bad_label(self):
        with pytest.raises(DataError):
            D.parse_row("0,3,0,0", two_field_schema(), 3)


class TestCsvIO:
    def test_empty_file_after_header(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "empty.csv"
        path.write_text(s.header() + "\n")
        ds = D.load_csv(path, s)
        assert ds.counts("all") == [0, 0]
        assert ds.malformed == 0

    def test_header_mismatch(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "bad.csv"
        path.write_text("domain,label,f0\n")
        with pytest.raises(SchemaError, match="f1"):
            D.load_csv(path, s)

    def test_malformed_rows_counted_not_fatal(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "messy.csv"
        path.write_text(s.header() + "\n0,1,2,3\nnot,a,row\n1,0,4,5\n")
        ds = D.load_csv(path, s)
        assert ds.malformed == 1
        assert ds.counts("all") == [1, 1]

    def test_vocab_violation_is_fatal_with_line(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "oob.csv"
        path.write_text(s.header() + "\n0,1,2,3\n0,1,2,32\n")
        with pytest.raises(DataError, match="line 3"):
            D.load_csv(path, s)

    def test_save_load_round_trip(self, tmp_path):
        spec = D.AffinitySpec(2, np.eye(2), np.array([0.1, 0.1]))
        ds = D.synth_generate(spec, [20, 30], seed=5)
        path = tmp_path / "ds.csv"
        D.save_csv(ds, path)
        again = D.load_csv(path, ds.schema)
        assert again.counts("all") == [20, 30]
        for d in range(2):
            np.testing.assert_array_equal(again.domain("all", d).features,
                                          ds.domain("all", d).features)
            np.testing.assert_array_equal(again.domain("all", d).labels,
                                          ds.domain("all", d).labels)


def synthetic(sizes, seed=0):
    d = len(sizes)
    spec = D.AffinitySpec(d, np.eye(d), np.zeros(d))
    return D.synth_generate(spec, sizes, seed=seed)


class TestSplit:
    def test_eight_one_one(self):
        ds = synthetic([100, 100])
        out = D.split(ds, (0.8, 0.1, 0.1), seed=1)
        assert out.counts("train") == [80, 80]
        assert out.counts("val") == [10, 10]
        assert out.counts("test") == [10, 10]

    def test_all_train_when_relaxed(self):
        ds = synthetic([7, 9])
        out = D.split(ds, (1.0, 0.0, 0.0), seed=1, enforce_min=False)
        assert out.counts("train") == [7, 9]
        assert out.counts("val") == [0, 0]

    def test_same_seed_identical(self):
        ds = synthetic([50, 37])
        a = D.split(ds, (0.8, 0.1, 0.1), seed=9)
        b = D.split(ds, (0.8, 0.1, 0.1), seed=9)
        for part in D.PARTITIONS:
            for d in range(2):
                np.testing.assert_array_equal(a.domain(part, d).features,
                                              b.domain(part, d).features)

    def test_is_a_partition(self):
        ds = synthetic([41, 53], seed=3)
        out = D.split(ds, (0.8, 0.1, 0.1), seed=2)
        for d in range(2):
            whole = ds.domain("all", d)
            rows = {tuple(r) for r in whole.features}
            pieces = [out.domain(p, d) for p in D.PARTITIONS]
            assert sum(len(p) for p in pieces) == len(whole)
            seen = []
            for p in pieces:
                seen += [tuple(r) for r in p.features]
            # row multisets match (rows are almost surely unique here)
            assert sorted(seen) == sorted(tuple(r) for r in whole.features)
            assert rows == set(seen)

    def test_minimum_size_enforced(self):
        ds = synthetic([2, 50])
        with pytest.raises(SplitError, match="domain 0"):
            D.split(ds, (0.8, 0.1, 0.1), seed=0)

    def test_small_domain_gets_all_partitions(self):
        ds = synthetic([5, 50])
        out = D.split(ds, (0.8, 0.1, 0.1), seed=0)
        for part in D.PARTITIONS:
            assert len(out.domain(part, 0)) >= 1

    def test_bad_fractions(self):
        ds = synthetic([10, 10])
        with pytest.raises(ConfigError):
            D.split(ds, (0.5, 0.2, 0.2), seed=0)


class TestEqualQuotas:
    def test_paper_batch(self):
        assert D.equal_quotas(4096, 3) == [1366, 1365, 1365]

    def test_divisible(self):
        assert D.equal_quotas(6, 3) == [2, 2, 2]

    def test_sums_to_batch(self):
        for b in (7, 97, 4096):
            for d in (2, 3, 5):
                q = D.equal_quotas(b, d)
                assert sum(q) == b
                assert max(q) - min(q) <= 1

    def test_too_small(self):
        with pytest.raises(ConfigError):
            D.equal_quotas(2, 3)


class TestQuotaSampler:
    def _sampler(self, sizes, quotas, seed=0):
        ds = synthetic(sizes, seed=1)
        rng = np.random.default_rng(seed)
        return D.QuotaSampler([ds.domain("all", d) for d in range(len(sizes))],
                              quotas, rng), ds

    def test_exact_quota_counts(self):
        sampler, _ = self._sampler([10, 10, 10], [2, 2, 2])
        batch = sampler.next_batch()
        assert len(batch) == 3
        for feats, labels in batch:
            assert feats.shape[0] == 2
            assert labels.shape[0] == 2

    def test_wrap_reshuffles_without_batch_duplicates(self):
        sampler, _ = self._sampler([3, 3], [2, 2], seed=4)
        for _ in range(40):  # many wraps
            batch = sampler.next_batch()
            for feats, _ in batch:
                rows = [tuple(r) for r in feats]
                assert len(set(rows)) == len(rows)

    def test_epoch_coverage(self):
        sizes, quota, batches = [7], [3], 21
        ds = synthetic([7, 7], seed=2)
        dd = ds.domain("all", 0)
        sampler = D.QuotaSampler([dd], quota, np.random.default_rng(0))
        visits = {tuple(r): 0 for r in dd.features}
        for _ in range(batches):
            feats, _ = sampler.next_batch()[0]
            for r in feats:
                visits[tuple(r)] += 1
        floor_passes = (batches * quota[0]) // sizes[0]
        assert all(v >= floor_passes for v in visits.values())

    def test_quota_exceeding_domain_allows_repeats(self):
        sampler, _ = self._sampler([2], [5])
        feats, labels = sampler.next_batch()[0]
        assert feats.shape[0] == 5

    def test_zero_quota_rejected(self):
        with pytest.raises(ConfigError, match="zero quota"):
            self._sampler([10, 10], [2, 0])

    def test_empty_domain_rejected(self):
        ds = synthetic([10, 10])
        empty = D.DomainData.empty(ds.schema.num_fields)
        with pytest.raises(ConfigError, match="empty"):
            D.QuotaSampler([empty], [2], np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        a, _ = self._sampler([9, 9], [4, 4], seed=11)
        b, _ = self._sampler([9, 9], [4, 4], seed=11)
        for _ in range(5):
            for (fa, la), (fb, lb) in zip(a.next_batch(), b.next_batch()):
                np.testing.assert_array_equal(fa, fb)
                np.testing.assert_array_equal(la, lb)


class TestSamplerMatchesLoop:
    """The shipped sampler draws exactly the reference loop's sequence."""

    @staticmethod
    def index_domains(sizes):
        # One feature column holding the row's own index, so every batch's
        # features are its index array.
        return [D.DomainData(np.arange(n).reshape(-1, 1), np.zeros(n))
                for n in sizes]

    def run_both(self, sizes, quotas, epochs=3, seed=9):
        datas = self.index_domains(sizes)
        shipped = D.QuotaSampler(datas, quotas, np.random.default_rng(seed))
        loop = LoopSampler(datas, quotas, np.random.default_rng(seed))
        # An epoch is one pass over the largest domain, in batches.
        batches = epochs * max(-(-n // q) for n, q in zip(sizes, quotas))
        for _ in range(batches):
            for (got, _), (want, _) in zip(shipped.next_batch(),
                                           loop.next_batch()):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        assert (shipped.rng.bit_generator.state
                == loop.rng.bit_generator.state)
        return loop

    def test_cursor_lands_on_end_of_permutation(self):
        self.run_both([12], [4])

    def test_wrap_with_dedup_swaps(self):
        loop = self.run_both([5], [3], epochs=20)
        assert loop.swaps > 0

    def test_quota_equals_domain_size(self):
        self.run_both([6], [6])

    def test_quota_exceeds_domain_size(self):
        self.run_both([3], [8], epochs=5)

    def test_domains_of_different_sizes(self):
        loop = self.run_both([40, 7, 3, 16], [5, 4, 5, 16], epochs=5)
        assert loop.swaps > 0


class TestSynthGenerate:
    def test_deterministic(self):
        spec = D.AffinitySpec(3, np.eye(3), np.full(3, 0.1))
        a = D.synth_generate(spec, [40, 40, 40], seed=7)
        b = D.synth_generate(spec, [40, 40, 40], seed=7)
        for d in range(3):
            np.testing.assert_array_equal(a.domain("all", d).features,
                                          b.domain("all", d).features)
            np.testing.assert_array_equal(a.domain("all", d).labels,
                                          b.domain("all", d).labels)

    def test_records_spec_and_respects_vocab(self):
        spec = D.AffinitySpec(2, np.eye(2), np.zeros(2))
        ds = D.synth_generate(spec, [30, 30], seed=1, vocab_size=8)
        assert ds.affinity is spec
        for d in range(2):
            feats = ds.domain("all", d).features
            assert feats.min() >= 0 and feats.max() < 8

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            D.AffinitySpec(2, np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
        with pytest.raises(ConfigError):
            D.AffinitySpec(2, np.eye(2) * 2.0, np.zeros(2))
        with pytest.raises(ConfigError):
            D.AffinitySpec(2, np.eye(2), np.array([0.1, 0.9]))

    def test_identity_affinity_foreign_domains_uninformative(self):
        # train a linear probe on domain 0; foreign AUC must hover at chance
        spec = D.AffinitySpec(3, np.eye(3), np.zeros(3))
        ds = D.synth_generate(spec, [5000, 5000, 5000], seed=42)
        vocab = ds.schema.vocab_sizes
        home = ds.domain("all", 0)
        w, b = train_logreg(onehot(home.features, vocab), home.labels)
        home_auc = auc(logreg_scores(onehot(home.features, vocab), w, b),
                       home.labels)
        assert home_auc >= 0.80
        for d in (1, 2):
            foreign = ds.domain("all", d)
            scores = logreg_scores(onehot(foreign.features, vocab), w, b)
            assert auc(scores, foreign.labels) <= 0.55

    def test_planted_overlap_transfers_and_disjoint_does_not(self):
        # A borrows B's concept heavily, C's not at all
        affinity = np.array([[1.0, 0.8, 0.0],
                             [0.8, 1.0, 0.0],
                             [0.0, 0.0, 1.0]])
        spec = D.AffinitySpec(3, affinity, np.array([0.05, 0.05, 0.05]))
        ds = D.synth_generate(spec, [4000, 4000, 4000], seed=11)
        vocab = ds.schema.vocab_sizes
        a = ds.domain("all", 0)

        def probe_auc(train_d):
            src = ds.domain("all", train_d)
            w, b = train_logreg(onehot(src.features, vocab), src.labels)
            return auc(logreg_scores(onehot(a.features, vocab), w, b), a.labels)

        assert probe_auc(1) >= 0.70   # similar domain transfers
        assert probe_auc(2) <= 0.55   # disjoint domain does not
