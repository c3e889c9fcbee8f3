import numpy as np
import pytest

from ctrlab import nn
from ctrlab.backbone import Backbone, build_mask, expert_owners
from ctrlab.errors import ConfigError, DataError, InvariantError, UsageError


def small_net(seed=0, vocab=(5, 7), embed_dim=2, expert_counts=(1, 1, 1),
              expert_hidden=4, repr_dim=3, tower_hidden=4):
    return Backbone(vocab, embed_dim, expert_counts, expert_hidden,
                    repr_dim, tower_hidden, np.random.default_rng(seed))


def rand_features(net, n, seed=1):
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, v, size=n) for v in net.vocab_sizes]
    return np.stack(cols, axis=1)


def relative_error(a, b, floor=1e-4):
    a, b = np.asarray(a), np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


class TestExpertOwners:
    def test_one_each(self):
        np.testing.assert_array_equal(expert_owners([1, 1, 1]), [0, 1, 2])

    def test_uneven(self):
        np.testing.assert_array_equal(expert_owners([2, 1]), [0, 0, 1])

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            expert_owners([1, 0])


class TestBuildMask:
    def test_self_only(self):
        masks = build_mask([{0}, {1}, {2}], [1, 1, 1])
        for d in range(3):
            assert (masks[d] == 0.0).sum() == 1
            assert masks[d][d] == 0.0

    def test_all_domains_is_zero_mask(self):
        masks = build_mask([{0, 1, 2}] * 3, [1, 1, 1])
        np.testing.assert_array_equal(masks, np.zeros((3, 3)))

    def test_owner_map_oracle(self):
        masks = build_mask([{0, 2}, {1}, {2}], [2, 1, 1])
        np.testing.assert_array_equal(masks[0], [0.0, 0.0, -np.inf, 0.0])

    def test_missing_self_is_invariant_violation(self):
        with pytest.raises(InvariantError):
            build_mask([{1}, {1}], [1, 1])

    def test_unknown_domain(self):
        with pytest.raises(ConfigError):
            build_mask([{0, 5}, {1}], [1, 1])


class TestEmbed:
    def test_concatenation(self):
        net = small_net(vocab=(2, 2), embed_dim=2)
        net.embeddings[0].values = np.array([[9.0, 9.0], [1.0, 2.0]])
        net.embeddings[1].values = np.array([[3.0, 4.0], [8.0, 8.0]])
        x = net.embed(np.array([[1, 0]]))
        np.testing.assert_array_equal(x, [[1.0, 2.0, 3.0, 4.0]])

    def test_zero_table(self):
        net = small_net()
        for emb in net.embeddings:
            emb.values[...] = 0.0
        x = net.embed(rand_features(net, 4))
        np.testing.assert_array_equal(x, np.zeros((4, net.x_dim)))

    def test_out_of_vocab(self):
        net = small_net(vocab=(3, 3))
        with pytest.raises(DataError):
            net.embed(np.array([[0, 3]]))

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_error_names_the_offending_field(self, bad):
        net = small_net(vocab=(5, 7, 4))
        feats = np.array([[0, 0, 0], [4, bad, 3]])
        with pytest.raises(DataError,
                           match=r"^field 1 index outside \[0, 7\)$"):
            net.embed(feats)

    def test_lowest_bad_field_is_named(self):
        net = small_net(vocab=(5, 7, 4))
        feats = np.array([[0, 0, 4], [0, -2, 0]])
        with pytest.raises(DataError, match=r"^field 1 index outside"):
            net.embed(feats)

    def test_embedding_gradient_matches_finite_differences(self):
        net = small_net(seed=3)
        feats = rand_features(net, 6, seed=4)
        feats[0] = feats[1]  # force index collision to exercise accumulation
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])

        def loss():
            preds, _ = net.forward_domain(feats, 0, cache=False)
            return nn.bce_loss(preds, labels)[0]

        preds, _ = net.forward_domain(feats, 0)
        _, dpreds = nn.bce_loss(preds, labels)
        net.backward_domain(0, dpreds)
        for emb in net.embeddings:
            fd = nn.numeric_gradient(loss, emb.values)
            assert relative_error(emb.grad, fd) < 1e-4, emb.name


class TestGateWeights:
    """Gate weights as forward_domain composes them: the masked softmax of
    a domain's gate logits."""

    def test_zero_gate_is_uniform(self):
        net = small_net()
        net.gate_w[0].values[...] = 0.0
        x = net.embed(rand_features(net, 2))
        g = nn.masked_softmax(net.gate_logits(x, 0), np.zeros(3))
        np.testing.assert_allclose(g, np.full((2, 3), 1 / 3))

    def test_dominant_logit_saturates(self):
        net = small_net()
        net.gate_w[1].values[...] = 0.0
        net.gate_b[1].values = np.array([50.0, 0.0, 0.0])
        x = net.embed(rand_features(net, 1))
        g = nn.masked_softmax(net.gate_logits(x, 1), np.zeros(3))
        assert g[0, 0] > 0.999999

    def test_exp_normalize_oracle(self):
        net = small_net()
        net.gate_w[2].values[...] = 0.0
        net.gate_b[2].values = np.array([1.0, 2.0, 3.0])
        x = net.embed(rand_features(net, 1))
        g = nn.masked_softmax(net.gate_logits(x, 2), np.zeros(3))
        np.testing.assert_allclose(g[0], [0.09003, 0.24473, 0.66524], atol=5e-6)


class TestMaskedForward:
    def test_full_share_bit_identical_to_unmasked(self):
        net = small_net(seed=7)
        feats = rand_features(net, 5)
        masks = build_mask([{0, 1, 2}] * 3, net.expert_counts)
        for d in range(3):
            a, ha = net.forward_domain(feats, d, masks=None, cache=False)
            b, hb = net.forward_domain(feats, d, masks=masks, cache=False)
            assert np.array_equal(a, b)
            assert np.array_equal(ha, hb)

    def test_self_only_mask_yields_own_expert(self):
        net = small_net(seed=8)
        feats = rand_features(net, 4)
        masks = build_mask([{0}, {1}, {2}], net.expert_counts)
        x = net.embed(feats)
        _, h = net.forward_domain(feats, 1, masks=masks, cache=False)
        own = net.experts[1].forward(x, cache=False)
        np.testing.assert_allclose(h, own)  # single unmasked expert gets weight 1

    def test_symmetric_mask_weights(self):
        net = small_net()
        net.gate_w[0].values[...] = 0.0
        net.gate_b[0].values = np.array([1.0, 1.0, 1.0])
        masks = build_mask([{0, 2}, {1}, {2}], net.expert_counts)
        x = net.embed(rand_features(net, 2))
        g = nn.masked_softmax(net.gate_logits(x, 0), masks[0])
        np.testing.assert_allclose(g, np.tile([0.5, 0.0, 0.5], (2, 1)))
        assert np.all(g[:, 1] == 0.0)

    def test_masked_weights_sum_to_one_with_exact_zeros(self):
        net = small_net(seed=9, expert_counts=(2, 1, 1))
        feats = rand_features(net, 6)
        masks = build_mask([{0, 1}, {1}, {0, 2}], net.expert_counts)
        x = net.embed(feats)
        for d in range(3):
            g = nn.masked_softmax(net.gate_logits(x, d), masks[d])
            np.testing.assert_allclose(g.sum(axis=1), np.ones(6), atol=1e-12)
            banned = np.isneginf(masks[d])
            assert np.all(g[:, banned] == 0.0)

    def test_output_invariant_to_masked_expert_parameters(self):
        net = small_net(seed=10)
        feats = rand_features(net, 5)
        masks = build_mask([{0, 1}, {1}, {2}], net.expert_counts)
        before, h_before = net.forward_domain(feats, 0, masks=masks, cache=False)
        for p in net.experts[2].params():  # domain 2 is masked out for domain 0
            p.values += 123.456
        after, h_after = net.forward_domain(feats, 0, masks=masks, cache=False)
        assert np.array_equal(before, after)
        assert np.array_equal(h_before, h_after)

    def test_no_gradient_reaches_masked_experts(self):
        net = small_net(seed=11)
        feats = rand_features(net, 8)
        labels = (np.arange(8) % 2).astype(float)
        masks = build_mask([{0, 1}, {1}, {2}], net.expert_counts)
        preds, _ = net.forward_domain(feats, 0, masks=masks)
        _, dpreds = nn.bce_loss(preds, labels)
        net.backward_domain(0, dpreds)
        for p in net.experts[2].params():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
        # active experts did receive gradient
        assert any(np.any(p.grad != 0.0) for p in net.experts[0].params())
        assert any(np.any(p.grad != 0.0) for p in net.experts[1].params())


class TestPredict:
    def test_zero_tower_gives_half(self):
        net = small_net()
        for p in net.towers[0].params():
            p.values[...] = 0.0
        preds = net.predict(rand_features(net, 3), 0)
        np.testing.assert_allclose(preds, [0.5, 0.5, 0.5])

    def test_open_interval(self):
        net = small_net(seed=12)
        preds = net.predict(rand_features(net, 20), 2)
        assert np.all(preds > 0.0) and np.all(preds < 1.0)

    def test_end_to_end_gradients_match_finite_differences(self):
        net = small_net(seed=13, expert_counts=(2, 1), vocab=(4, 6),
                        embed_dim=3, expert_hidden=5, repr_dim=4)
        feats = rand_features(net, 6, seed=14)
        labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        masks = build_mask([{0, 1}, {1}], net.expert_counts)

        def loss():
            preds, _ = net.forward_domain(feats, 0, masks=masks, cache=False)
            return nn.bce_loss(preds, labels)[0]

        preds, _ = net.forward_domain(feats, 0, masks=masks)
        _, dpreds = nn.bce_loss(preds, labels)
        net.backward_domain(0, dpreds)
        checked = 0
        for p in net.params():
            if np.all(p.grad == 0.0):
                continue  # masked or unused parameters carry no gradient
            fd = nn.numeric_gradient(loss, p.values)
            assert relative_error(p.grad, fd) < 1e-4, p.name
            checked += 1
        assert checked >= 8


class TestBackwardDiscipline:
    def test_backward_without_forward(self):
        net = small_net()
        with pytest.raises(UsageError):
            net.backward_domain(0, np.zeros(3))

    def test_backward_wrong_domain(self):
        net = small_net()
        net.forward_domain(rand_features(net, 3), 1)
        with pytest.raises(UsageError):
            net.backward_domain(0, np.zeros(3))
