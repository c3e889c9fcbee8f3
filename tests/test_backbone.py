import numpy as np
import pytest

from ctrlab import nn
from ctrlab.backbone import Backbone, build_mask, expert_owners
from ctrlab.errors import ConfigError, DataError, InvariantError, UsageError
from test_nn import (SPECIAL_VALUES, numeric_gradient, same_bits,
                     with_specials, wrapper_mlp_backward,
                     wrapper_softmax_backward)


def small_net(seed=0, vocab=(5, 7), embed_dim=2, expert_counts=(1, 1, 1),
              expert_hidden=4, repr_dim=3, tower_hidden=4):
    return Backbone(vocab, embed_dim, expert_counts, expert_hidden,
                    repr_dim, tower_hidden, np.random.default_rng(seed))


def unmasked(net):
    """All-zero masks: every domain mixes every expert."""
    return np.zeros((net.num_domains, net.num_experts))


def rand_features(net, n, seed=1):
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, v, size=n) for v in net.vocab_sizes]
    return np.stack(cols, axis=1)


def field_tables(net, table):
    """``table`` split at the field offsets: one (vocab, embed_dim) view per
    field."""
    return np.split(table, np.cumsum(net.vocab_sizes)[:-1])


def loop_embed(net, features):
    """Reference ``Backbone.embed``: one gather per field, concatenated."""
    features = np.asarray(features, dtype=np.int64)
    tables = field_tables(net, net.embedding.values)
    pieces = [table[features[:, j]] for j, table in enumerate(tables)]
    return np.concatenate(pieces, axis=1)


def loop_embed_backward(net, features, dx):
    """Reference ``Backbone._embed_backward``: one 2-D np.add.at per field."""
    for j, grad in enumerate(field_tables(net, net.embedding.grad)):
        sl = dx[:, j * net.embed_dim:(j + 1) * net.embed_dim]
        np.add.at(grad, features[:, j], sl)


def broadcast_embed_backward(net, features, dx):
    """Reference ``Backbone._embed_backward``: the flat index broadcast
    through an (n, fields, embed_dim) array."""
    cols = np.arange(net.embed_dim)
    flat = ((features + net._field_offsets)[:, :, None] * net.embed_dim
            + cols)
    np.add.at(net.embedding.grad.reshape(-1), flat.reshape(-1),
              dx.reshape(-1))


def wrapper_backward_domain(net, d, dpreds, dh_extra=None):
    """Reference ``Backbone.backward_domain``: zeros_like, ndarray.sum for
    the gate sums and the reference Mlp and embedding backward passes."""
    cache, net._cache = net._cache, None
    x, gate, outs = cache["x"], cache["gate"], cache["outs"]
    dh = wrapper_mlp_backward(net.towers[d],
                              np.asarray(dpreds).reshape(-1, 1))
    if dh_extra is not None:
        dh = dh + dh_extra
    dgate = np.zeros_like(gate)
    dx = np.zeros_like(x)
    for i, out in outs.items():
        dgate[:, i] = (out * dh).sum(axis=1)
        dx += wrapper_mlp_backward(net.experts[i], gate[:, i:i + 1] * dh)
    dlogits = wrapper_softmax_backward(gate, dgate)
    net.gate_w[d].grad += dlogits.T @ x
    net.gate_b[d].grad += dlogits.sum(axis=0)
    dx += dlogits @ net.gate_w[d].values
    broadcast_embed_backward(net, cache["features"], dx)


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
        net.embedding.values[...] = [[9.0, 9.0], [1.0, 2.0],
                                     [3.0, 4.0], [8.0, 8.0]]
        x = net.embed(np.array([[1, 0]]))
        np.testing.assert_array_equal(x, [[1.0, 2.0, 3.0, 4.0]])

    def test_zero_table(self):
        net = small_net()
        net.embedding.values[...] = 0.0
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

    @pytest.mark.parametrize("bad", [1.7, -0.5, np.nan, np.inf])
    def test_non_whole_feature_rejected(self, bad):
        net = small_net(vocab=(3, 3))
        with pytest.raises(DataError, match="whole numbers"):
            net.embed(np.array([[0.0, bad]]))

    def test_whole_float_features_are_indices(self):
        net = small_net(vocab=(3, 3))
        np.testing.assert_array_equal(net.embed(np.array([[2.0, 1.0]])),
                                      net.embed(np.array([[2, 1]])))

    def test_same_bits_as_per_field_gathers(self):
        net = small_net(seed=6, vocab=tuple(range(2, 18)), embed_dim=3)
        feats = rand_features(net, 300, seed=7)
        x = net.embed(feats)
        assert x.flags.c_contiguous
        assert x.tobytes() == loop_embed(net, feats).tobytes()

    def test_in_place_table_edit_is_read(self):
        net = small_net(vocab=(3, 4))
        net.embedding.values[3 + 2] = [7.0, -7.0]
        x = net.embed(np.array([[0, 2]]))
        np.testing.assert_array_equal(x[0, 2:], [7.0, -7.0])

    def test_table_is_one_draw_of_every_field(self):
        """One (sum of vocab, embed_dim) draw: the bits the per-field draws
        gave, with the generator left in the same state."""
        vocab, dim = (3, 9, 2, 5), 3
        rng = np.random.default_rng(6)
        per_field = np.concatenate([nn.uniform_init(rng, (v, dim), dim)
                                    for v in vocab])
        net = small_net(seed=6, vocab=vocab, embed_dim=dim)
        assert net.embedding.values.shape == (sum(vocab), dim)
        assert net.embedding.values.tobytes() == per_field.tobytes()
        expert_w = nn.uniform_init(rng, (4, 4 * dim), 4 * dim)
        assert net.experts[0].weights[0].values.tobytes() == expert_w.tobytes()

    def test_packed_into_a_store(self):
        """A store that repacks every param changes no prediction or
        gradient bit; the gradients land in the store's flat array, and
        in-place edits of the table through the Param are read."""
        def run(pack):
            net = small_net(seed=6, vocab=(3, 9, 2, 5), embed_dim=3)
            store = nn.ParamStore(net.params()) if pack else None
            rng = np.random.default_rng(8)
            outs = []
            for d in (0, 1):
                preds, _ = net.forward_domain(rand_features(net, 64, d), d,
                                              unmasked(net))
                net.backward_domain(d, rng.normal(size=preds.shape))
                outs.append(preds.tobytes())
            grads = b"".join(p.grad.tobytes() for p in net.params())
            if pack:
                assert store.grad.tobytes() == grads
                net.embedding.values[3 + 4] = [7.0, -7.0, 0.5]
                x = net.embed(np.array([[0, 4, 0, 0]]))
                np.testing.assert_array_equal(x[0, 3:6], [7.0, -7.0, 0.5])
            return outs + [grads]

        assert run(pack=True) == run(pack=False)

    def test_gradient_same_bits_as_per_field_add_at(self, monkeypatch):
        """Two backward passes onto nonzero gradients, with repeated rows."""
        def grads():
            net = small_net(seed=6, vocab=(3, 9, 2, 5), embed_dim=3)
            rng = np.random.default_rng(8)
            net.embedding.grad[...] = rng.normal(size=net.embedding.grad.shape)
            for d in (0, 1):
                preds, _ = net.forward_domain(rand_features(net, 64, d), d,
                                              unmasked(net))
                net.backward_domain(d, rng.normal(size=preds.shape))
            return net.embedding.grad.tobytes()

        shipped = grads()
        monkeypatch.setattr(Backbone, "_embed_backward", loop_embed_backward)
        assert grads() == shipped

    def test_embedding_gradient_matches_finite_differences(self):
        net = small_net(seed=3)
        feats = rand_features(net, 6, seed=4)
        feats[0] = feats[1]  # force index collision to exercise accumulation
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])

        masks = unmasked(net)

        def loss():
            preds, _ = net.forward_domain(feats, 0, masks, cache=False)
            return nn.bce_loss(preds, labels)[0]

        preds, _ = net.forward_domain(feats, 0, masks)
        _, dpreds = nn.bce_loss(preds, labels)
        net.backward_domain(0, dpreds)
        fd = numeric_gradient(loss, net.embedding.values)
        assert relative_error(net.embedding.grad, fd) < 1e-4


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
            a, ha = net.forward_domain(feats, d, masks=unmasked(net),
                                       cache=False)
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


class TestNoCacheForward:
    @pytest.mark.parametrize("subsets", [
        [{0, 1, 2}] * 3, [{0}, {1}, {2}], [{0, 2}, {0, 1}, {1, 2}]])
    def test_same_bits_as_cached_forward(self, subsets):
        net = small_net(seed=15, expert_counts=(2, 1, 3))
        masks = build_mask(subsets, net.expert_counts)
        for d in range(3):
            feats = rand_features(net, 130, seed=d)
            preds, h = net.forward_domain(feats, d, masks=masks)
            fast_preds, fast_h = net.forward_domain(feats, d, masks=masks,
                                                    cache=False)
            assert fast_preds.tobytes() == preds.tobytes()
            assert fast_h.tobytes() == h.tobytes()
            assert net.predict(feats, d, masks).tobytes() == preds.tobytes()

    def test_output_is_the_callers(self):
        """Writing to a no-cache forward's outputs changes no param, and a
        cached forward before it still backs the same gradients."""
        def grads(predict_between):
            net = small_net(seed=16, expert_counts=(2, 1, 1))
            masks = build_mask([{0, 2}, {1}, {2}], net.expert_counts)
            feats = rand_features(net, 40)
            before = [p.values.copy() for p in net.params()]
            preds, _ = net.forward_domain(feats, 0, masks=masks)
            if predict_between:
                fast_preds, fast_h = net.forward_domain(feats, 0, masks=masks,
                                                        cache=False)
                fast_preds[...] = np.nan
                fast_h[...] = np.nan
            for p, value in zip(net.params(), before):
                assert p.values.tobytes() == value.tobytes(), p.name
            net.backward_domain(0, preds - 0.5)
            return [p.grad.copy() for p in net.params()]

        for a, b in zip(grads(False), grads(True)):
            assert a.tobytes() == b.tobytes()


class TestPredict:
    def test_zero_tower_gives_half(self):
        net = small_net()
        for p in net.towers[0].params():
            p.values[...] = 0.0
        preds = net.predict(rand_features(net, 3), 0, unmasked(net))
        np.testing.assert_allclose(preds, [0.5, 0.5, 0.5])

    def test_open_interval(self):
        net = small_net(seed=12)
        preds = net.predict(rand_features(net, 20), 2, unmasked(net))
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
            fd = numeric_gradient(loss, p.values)
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
        net.forward_domain(rand_features(net, 3), 1, unmasked(net))
        with pytest.raises(UsageError):
            net.backward_domain(0, np.zeros(3))


class TestSameBitsAsWrapperExpressions:
    """The backward pass's direct ufunc calls and the repeat-and-tile
    embedding index give the bits of the expressions they replace, on
    gradients holding signed zeros, subnormals, infinities and NaN."""

    @pytest.mark.parametrize("embed_dim", [1, 3, 4])
    @pytest.mark.parametrize("rows", [1, 2, 256])
    def test_embed_backward_index(self, embed_dim, rows):
        """Few rows per field, so most entries are hit many times, and
        magnitudes far apart, so a different order of the adds would round
        differently."""
        def grad(backward):
            net = small_net(seed=2, vocab=(3, 1, 4, 2), embed_dim=embed_dim)
            net.embedding.grad[...] = with_specials(net.embedding.grad.shape,
                                                    5, SPECIAL_VALUES[:5])
            values = np.concatenate([SPECIAL_VALUES, [1e16, -1e16, 1.0, 3.0]])
            dx = with_specials((rows, net.x_dim), 6, values, scale=1e8)
            with np.errstate(invalid="ignore"):  # inf + -inf
                backward(net, rand_features(net, rows, seed=7), dx)
            return net.embedding.grad

        shipped = grad(Backbone._embed_backward)
        assert same_bits(shipped, grad(broadcast_embed_backward))

    @pytest.mark.parametrize("specials", ["finite", "all"])
    @pytest.mark.parametrize("subsets", [
        [{0, 1, 2}] * 3, [{0, 2}, {1}, {1, 2}]])
    def test_backward_domain(self, subsets, specials):
        """The gate sums, the zero-filled gradients and the expert and
        tower passes: every parameter's gradient has the reference's bits."""
        values = SPECIAL_VALUES[:5] if specials == "finite" else SPECIAL_VALUES
        nets = [small_net(seed=9, expert_counts=(2, 1, 2)) for _ in range(2)]
        masks = build_mask(subsets, nets[0].expert_counts)
        backward = [Backbone.backward_domain, wrapper_backward_domain]
        for d in range(3):
            feats = rand_features(nets[0], 33, seed=d)
            dpreds = with_specials(33, 10 + d, values)
            dh_extra = with_specials((33, nets[0].repr_dim), 20 + d, values)
            with np.errstate(all="ignore"):
                for net, back in zip(nets, backward):
                    net.forward_domain(feats, d, masks)
                    back(net, d, dpreds, dh_extra)
        for p, q in zip(nets[0].params(), nets[1].params()):
            assert same_bits(p.grad, q.grad), p.name
        if specials == "finite":
            assert all(np.isfinite(p.grad).all() for p in nets[0].params())
