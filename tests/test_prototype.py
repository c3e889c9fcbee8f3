import re

import numpy as np
import pytest

from ctrlab import nn
from ctrlab import prototype as proto
from ctrlab.errors import ConfigError, UsageError
from helpers import (SPECIAL_VALUES, numeric_gradient, relative_error,
                     same_bits, with_specials)
import reference as ref


def oracle_domain_distance(a, b):
    """Brute-force nested loop over prototypes."""
    vals = []
    for p in a:
        vals.append(min(np.linalg.norm(p - q) for q in b))
    return sum(vals) / len(vals)


def pair_distance(a, b):
    """``distance_matrix``'s entry for the ordered pair (a, b)."""
    return proto.distance_matrix([a, b])[0, 1]


def wrapper_reconstruction(coder, h):
    """Reference ``ProtoCoder.reconstruction``: a new array per step and
    the loss by ndarray.sum."""
    h = coder._check_batch(h)
    order = proto._sort_order(h)
    hs = h[order]
    p = coder.enc_w.values @ hs + coder.enc_b.values[:, None]
    h_hat = coder.dec_w.values @ p + coder.dec_b.values[:, None]
    diff = hs - h_hat
    loss = float((diff * diff).sum())
    coder._cache = {"order": order, "hs": hs, "p": p, "diff": diff}
    return loss, p


def wrapper_proto_backward(coder, scale=1.0):
    """Reference ``ProtoCoder.backward`` with the bias sums by
    ndarray.sum."""
    c, coder._cache = coder._cache, None
    order, hs, p, diff = c["order"], c["hs"], c["p"], c["diff"]
    dh_hat = -2.0 * diff * scale
    coder.dec_w.grad += dh_hat @ p.T
    coder.dec_b.grad += dh_hat.sum(axis=1)
    dp = coder.dec_w.values.T @ dh_hat
    coder.enc_w.grad += dp @ hs.T
    coder.enc_b.grad += dp.sum(axis=1)
    dhs = coder.enc_w.values.T @ dp + 2.0 * diff * scale
    dh = np.empty_like(dhs)
    dh[order] = dhs
    return dh


def make_coder(batch=6, protos=2, domain=0, seed=0):
    return proto.ProtoCoder(domain, batch, protos, np.random.default_rng(seed))


class TestSizes:
    @pytest.mark.parametrize("changes, named", [
        ({"batch": 5.5}, "batch_count must be an integer, got 5.5"),
        ({"protos": 2.2}, "num_prototypes must be an integer, got 2.2"),
        ({"batch": True}, "batch_count must be an integer, got True"),
        ({"domain": 1.0}, "domain must be an integer, got 1.0"),
        ({"batch": 0}, "batch_count must be >= 1, got 0"),
        ({"protos": 0}, "num_prototypes must be >= 1, got 0"),
        ({"domain": -1}, "domain must be >= 0, got -1"),
    ])
    def test_bad_sizes_rejected(self, changes, named):
        """A count that is not a non-negative (domain) or positive integer
        fails with a ConfigError naming it, instead of being truncated."""
        with pytest.raises(ConfigError) as err:
            make_coder(**changes)
        assert str(err.value) == named

    def test_numpy_integers_kept_as_ints(self):
        coder = make_coder(batch=np.int64(5), protos=np.uint8(2),
                           domain=np.int32(1))
        assert (coder.domain, coder.batch_count) == (1, 5)
        assert type(coder.domain) is type(coder.batch_count) is int
        assert coder.enc_w.values.shape == (2, 5)


class TestEncode:
    def test_uniform_row_is_batch_mean(self):
        coder = make_coder(batch=5, protos=1)
        coder.enc_w.values[...] = 1.0 / 5.0
        coder.enc_b.values[...] = 0.0
        h = np.random.default_rng(1).normal(size=(5, 3))
        p = coder.encode(h)
        np.testing.assert_allclose(p, h.mean(axis=0, keepdims=True))

    def test_selector_rows_pick_first_m(self):
        coder = make_coder(batch=4, protos=2)
        coder.enc_w.values = np.array([[1.0, 0.0, 0.0, 0.0],
                                       [0.0, 1.0, 0.0, 0.0]])
        coder.enc_b.values[...] = 0.0
        # batch already in sorted order so the stable sort is the identity
        h = np.array([[0.0, 5.0], [1.0, -2.0], [2.0, 0.5], [3.0, 9.0]])
        np.testing.assert_allclose(coder.encode(h), h[:2])

    def test_order_insensitive(self):
        coder = make_coder(batch=8, protos=3, seed=5)
        rng = np.random.default_rng(2)
        h = rng.normal(size=(8, 4))
        perm = rng.permutation(8)
        np.testing.assert_array_equal(coder.encode(h), coder.encode(h[perm]))

    def test_wrong_batch_count(self):
        coder = make_coder(batch=6)
        with pytest.raises(ConfigError):
            coder.encode(np.zeros((5, 3)))


def sort_cases():
    """Row sets for ``_sort_order``. Where column 0 ties, the later
    columns order the tied rows against their index order, so a missed
    fallback to the full lexsort shows."""
    base = np.random.default_rng(12).normal(size=(12, 3))
    cases = {name: base.copy() for name in (
        "tie", "signed zero", "two nan", "one nan", "constant", "distinct")}
    h = cases["tie"]
    h[[2, 7, 9], 0] = h[4, 0]
    h[[2, 4, 7, 9], 1] = [3.0, 1.0, 1.0, -2.0]
    cases["signed zero"][[3, 8], :2] = [[0.0, 1.0], [-0.0, -1.0]]
    cases["two nan"][[1, 6], :2] = [[np.nan, 5.0], [np.nan, -5.0]]
    cases["one nan"][5, 0] = np.nan
    cases["constant"][:, 0] = 1.0
    cases["constant"][::2, 1] = 0.5
    return cases


class TestSortOrder:
    CASES = sort_cases()

    @pytest.mark.parametrize("case", CASES)
    def test_same_order_as_lexsort(self, case):
        h = self.CASES[case]
        assert proto._sort_order(h).tobytes() == ref.lexsort_order(h).tobytes()


class TestDecodeAndReconstruction:
    def test_inverse_map_reconstructs_perfectly(self):
        coder = make_coder(batch=3, protos=3, seed=7)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + np.eye(3)  # generically invertible
        coder.enc_w.values = a
        coder.enc_b.values[...] = 0.0
        coder.dec_w.values = np.linalg.pinv(a)
        coder.dec_b.values[...] = 0.0
        h = rng.normal(size=(3, 4))
        loss, _ = coder.reconstruction(h)
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_zero_decoder_loss_is_squared_norm(self):
        coder = make_coder(batch=4, protos=2, seed=8)
        coder.dec_w.values[...] = 0.0
        coder.dec_b.values[...] = 0.0
        h = np.random.default_rng(4).normal(size=(4, 3))
        loss, _ = coder.reconstruction(h)
        assert loss == pytest.approx(float((h * h).sum()), rel=1e-12)

    def test_training_reduces_loss_ninety_percent(self):
        coder = make_coder(batch=6, protos=2, seed=9)
        h = np.random.default_rng(5).normal(size=(6, 4))
        store = nn.ParamStore(coder.params())
        first, _ = coder.reconstruction(h)
        coder.backward()
        nn.sgd_step(store, lr=0.01)
        last = first
        for _ in range(499):
            last, _ = coder.reconstruction(h)
            coder.backward()
            nn.sgd_step(store, lr=0.01)
        assert last <= 0.1 * first

    def test_reconstruction_invariant_to_row_order(self):
        coder = make_coder(batch=7, protos=3, seed=10)
        rng = np.random.default_rng(6)
        h = rng.normal(size=(7, 5))
        loss_a, p_a = coder.reconstruction(h)
        loss_b, p_b = coder.reconstruction(h[rng.permutation(7)])
        assert loss_a == loss_b
        np.testing.assert_array_equal(p_a, p_b)

    def test_backward_without_forward(self):
        with pytest.raises(UsageError):
            make_coder().backward()


class TestReconstructionGradients:
    def setup_method(self):
        self.coder = make_coder(batch=5, protos=2, seed=11)
        self.h = np.random.default_rng(7).normal(size=(5, 4))

    def _objective(self):
        return self.coder.reconstruction(self.h)[0]

    def test_parameter_gradients(self):
        self.coder.reconstruction(self.h)
        self.coder.backward()
        for p in self.coder.params():
            fd = numeric_gradient(self._objective, p.values)
            assert relative_error(p.grad, fd) < 1e-4, p.name
            p.grad[...] = 0.0

    def test_representation_gradient_respects_row_order(self):
        self.coder.reconstruction(self.h)
        dh = self.coder.backward()
        fd = numeric_gradient(self._objective, self.h)
        assert relative_error(dh, fd) < 1e-4

    def test_scale_multiplies_everything(self):
        self.coder.reconstruction(self.h)
        dh_full = self.coder.backward(scale=1.0)
        grads_full = [p.grad.copy() for p in self.coder.params()]
        for p in self.coder.params():
            p.grad[...] = 0.0
        self.coder.reconstruction(self.h)
        dh_quarter = self.coder.backward(scale=0.25)
        np.testing.assert_allclose(dh_quarter, 0.25 * dh_full)
        for p, g in zip(self.coder.params(), grads_full):
            np.testing.assert_allclose(p.grad, 0.25 * g)


class TestDomainDistance:
    def test_single_source_member_is_zero(self):
        protos = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert pair_distance(np.array([[3.0, 4.0]]), protos) == 0.0

    def test_single_source_nearest_of_two(self):
        protos = np.array([[1.0, 0.0], [3.0, 0.0]])
        assert pair_distance(np.zeros((1, 2)), protos) == \
            pytest.approx(1.0)

    def test_single_rows_are_plain_l2(self):
        got = pair_distance(np.array([[1.0, 1.0]]), np.array([[4.0, 5.0]]))
        assert got == pytest.approx(5.0)

    def test_empty_target_set(self):
        with pytest.raises(UsageError):
            pair_distance(np.zeros((1, 2)), np.zeros((0, 2)))

    def test_self_distance_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            protos = rng.normal(size=(rng.integers(1, 6), 3))
            assert pair_distance(protos, protos) == 0.0

    def test_planted_asymmetric_pair(self):
        a = np.array([[0.0, 0.0], [4.0, 0.0]])
        b = np.array([[0.0, 0.0]])
        assert pair_distance(a, b) == pytest.approx(2.0)
        assert pair_distance(b, a) == pytest.approx(0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        shift = rng.normal(size=3)
        assert pair_distance(a + shift, b + shift) == pytest.approx(
            pair_distance(a, b), rel=1e-12)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m_a, m_b = rng.integers(1, 17, size=2)
            h = int(rng.integers(1, 33))
            a = rng.normal(scale=3.0, size=(m_a, h))
            b = rng.normal(scale=3.0, size=(m_b, h))
            assert abs(pair_distance(a, b)
                       - oracle_domain_distance(a, b)) < 1e-12


class TestDistanceMatrix:
    def test_identical_sets_zero_matrix(self):
        s = np.random.default_rng(11).normal(size=(4, 3))
        out = proto.distance_matrix([s, s.copy(), s.copy()])
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_planted_pair_matrix(self):
        a = np.array([[0.0, 0.0], [4.0, 0.0]])
        b = np.array([[0.0, 0.0]])
        np.testing.assert_allclose(proto.distance_matrix([a, b]),
                                   [[0.0, 2.0], [0.0, 0.0]])

    def test_collinear_ordering(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[10.0], [11.0]])
        c = np.array([[30.0], [31.0]])
        m = proto.distance_matrix([a, b, c])
        for i in range(3):
            for j in range(3):
                assert m[i, j] == pytest.approx(
                    oracle_domain_distance([a, b, c][i], [a, b, c][j]))
        assert m[0, 1] < m[0, 2]
        assert m[2, 1] < m[2, 0]
        assert proto.rank_domains(m, 0) == [0, 1, 2]
        assert proto.rank_domains(m, 2) == [2, 1, 0]

    def test_diagonal_always_zero(self):
        rng = np.random.default_rng(12)
        sets = [rng.normal(size=(rng.integers(1, 8), 4)) for _ in range(4)]
        m = proto.distance_matrix(sets)
        np.testing.assert_array_equal(np.diag(m), np.zeros(4))
        assert np.all(m >= 0.0)

    @pytest.mark.parametrize("ragged", [False, True])
    def test_same_bits_as_per_pair_loop(self, ragged):
        """Ten or more prototypes per set, so a mean or squared-distance sum
        grouped differently from ``reference.domain_distance``'s would
        show."""
        rng = np.random.default_rng(15)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 20))
            sizes = rng.integers(1, 40, size=d) if ragged else [10] * d
            sets = [rng.normal(scale=rng.uniform(0.1, 100.0), size=(m, dim))
                    for m in sizes]
            got = proto.distance_matrix(sets)
            assert got.tobytes() == ref.loop_distance_matrix(sets).tobytes()

    @pytest.mark.parametrize("sets", [
        [np.zeros((2, 3))],
        [np.zeros((2, 3)), np.zeros(3)],
        [np.zeros((2, 3)), np.zeros((0, 3))],
        [np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 4))],
        [np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(3)],
        [np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((0, 3))],
        [np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((2, 4))],
    ], ids=["one set", "1-D set", "empty set", "dim mismatch",
            "dim mismatch before 1-D set", "dim mismatch before empty set",
            "empty set before dim mismatch"])
    def test_same_errors_as_per_pair_loop(self, sets):
        with pytest.raises(UsageError) as expected:
            ref.loop_distance_matrix(sets)
        message = re.escape(str(expected.value))
        with pytest.raises(UsageError, match=f"^{message}$"):
            proto.distance_matrix(sets)


class TestRankDomains:
    def test_worked_ordering(self):
        m = np.array([[0.0, 1.2, 3.4],
                      [1.0, 0.0, 9.0],
                      [2.0, 1.0, 0.0]])
        assert proto.rank_domains(m, 0) == [0, 1, 2]

    def test_tie_break_ascending_id(self):
        m = np.full((4, 4), 7.0)
        np.fill_diagonal(m, 0.0)
        assert proto.rank_domains(m, 2) == [2, 0, 1, 3]

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(13)
        m = rng.uniform(1.0, 5.0, size=(4, 4))
        np.fill_diagonal(m, 0.0)
        perm = [2, 0, 3, 1]  # new id -> old id
        pm = m[np.ix_(perm, perm)]
        old_rank = proto.rank_domains(m, perm[1])
        new_rank = proto.rank_domains(pm, 1)
        assert [perm[j] for j in new_rank] == old_rank

    def test_own_domain_first_even_with_other_zeros(self):
        m = np.zeros((3, 3))
        assert proto.rank_domains(m, 2) == [2, 0, 1]


class TestDistanceRound:
    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(14)
        coders = [make_coder(batch=6, protos=3, domain=d, seed=20 + d)
                  for d in range(3)]
        hs = [rng.normal(size=(6, 4)) for _ in range(3)]
        got = proto.distance_round(hs, coders)
        protos = [c.encode(h) for c, h in zip(coders, hs)]
        np.testing.assert_array_equal(got, proto.distance_matrix(protos))

    def test_size_mismatch(self):
        with pytest.raises(UsageError):
            proto.distance_round([np.zeros((6, 4))], [])


class TestDistanceCsv:
    def test_round_trip(self, tmp_path):
        m = np.array([[0.0, 1.5], [2.25, 0.0]])
        path = tmp_path / "dist.csv"
        proto.save_distance_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "domain,0,1"
        assert lines[1].startswith("0,")
        parsed = np.array([[float(v) for v in line.split(",")[1:]]
                           for line in lines[1:]])
        np.testing.assert_array_equal(parsed, m)


class TestSameBitsAsWrapperExpressions:
    """Direct ufunc calls give the bits of the expressions they replace,
    on inputs holding signed zeros, subnormals and, where the arithmetic
    allows, infinities and NaN."""

    @pytest.mark.parametrize("specials", ["finite", "all"])
    @pytest.mark.parametrize("batch, dim", [(1, 1), (2, 3), (16, 8), (64, 9)])
    def test_reconstruction_and_backward(self, batch, dim, specials):
        values = SPECIAL_VALUES[:5] if specials == "finite" else SPECIAL_VALUES
        # Magnitudes far apart, so adding the squares in another order
        # would round differently.
        h = with_specials((batch, dim), batch + dim, values) * np.logspace(
            -3, 3, dim)
        coders = [make_coder(batch=batch, protos=3, seed=4) for _ in range(2)]
        for coder in coders:
            for p in coder.params():
                p.values[...] = with_specials(p.values.shape, p.values.size,
                                              SPECIAL_VALUES[:5])
        with np.errstate(all="ignore"):
            encoded = coders[0].encode(h)
            loss, p = coders[0].reconstruction(h)
            dh = coders[0].backward(scale=0.25)
            want_loss, want_p = wrapper_reconstruction(coders[1], h)
            want_dh = wrapper_proto_backward(coders[1], scale=0.25)
        assert same_bits(np.float64(loss), np.float64(want_loss))
        assert same_bits(p, want_p)
        assert same_bits(encoded, want_p)
        assert same_bits(dh, want_dh)
        for a, b in zip(coders[0].params(), coders[1].params()):
            assert same_bits(a.grad, b.grad), a.name
        if specials == "finite":
            assert np.isfinite(loss) and np.isfinite(dh).all()

    @pytest.mark.parametrize("specials", ["finite", "all"])
    def test_distances(self, specials):
        values = SPECIAL_VALUES[:5] if specials == "finite" else SPECIAL_VALUES
        rng = np.random.default_rng(3)
        sets = [with_specials((int(m), 6), i, values, scale=10.0)
                for i, m in enumerate(rng.integers(1, 14, size=5))]
        with np.errstate(all="ignore"):
            assert same_bits(proto.distance_matrix(sets),
                             ref.loop_distance_matrix(sets))
