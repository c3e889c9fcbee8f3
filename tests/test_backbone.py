import numpy as np
import pytest

from ctrlab import nn
from ctrlab.backbone import Backbone, build_mask, expert_owners
from ctrlab.config import RunConfig
from ctrlab.errors import ConfigError, DataError, NumericError, UsageError
from helpers import (FINITE_SPECIALS, FOLD_ROWS, SPECIAL_VALUES,
                     assert_close, numeric_gradient, relative_error,
                     same_bits, same_bits_apart_from_nan, with_random_biases,
                     with_specials)
import reference as ref


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


def broadcast_embed_backward(net, features, dx):
    """Reference ``Backbone._embed_backward``: the flat index broadcast
    through an (n, fields, embed_dim) array."""
    cols = np.arange(net.embed_dim)
    flat = ((features + net._field_offsets)[:, :, None] * net.embed_dim
            + cols)
    np.add.at(net.embedding.grad.reshape(-1), flat.reshape(-1),
              dx.reshape(-1))


class TestExpertOwners:
    def test_one_each(self):
        np.testing.assert_array_equal(expert_owners([1, 1, 1]), [0, 1, 2])

    def test_uneven(self):
        np.testing.assert_array_equal(expert_owners([2, 1]), [0, 0, 1])

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            expert_owners([1, 0])

    def test_fractional_count_named(self):
        """A fractional count is refused, not truncated to an integer."""
        with pytest.raises(ConfigError,
                           match=r"^expert_counts\[0\] must be an integer"):
            expert_owners([1.5, 2])


class TestExpertCountRule:
    @pytest.mark.parametrize("counts, named", [
        ([1, 0], "expert_counts[1] must be >= 1, got 0"),
        ([1, True], "expert_counts[1] must be an integer, got True"),
        (2, "expert_counts must be a list, got 2")],
        ids=["zero", "bool", "scalar"])
    def test_one_message_from_every_entry_point(self, counts, named):
        """RunConfig, expert_owners and Backbone apply one rule to the
        counts, so each refuses them with the same message."""
        dataset = {"kind": "synth", "affinity": [[1.0, 0.0], [0.0, 1.0]],
                   "noise": [0.0, 0.0], "sizes": [50, 50]}
        calls = [lambda: RunConfig(domains=2, dataset=dataset,
                                   expert_counts=counts),
                 lambda: expert_owners(counts),
                 lambda: small_net(expert_counts=counts)]
        for call in calls:
            with pytest.raises(ConfigError) as err:
                call()
            assert str(err.value) == named


class TestBuildMask:
    def test_self_only(self):
        masks = build_mask([[0], [1], [2]], [1, 1, 1])
        for d in range(3):
            assert (masks[d] == 0.0).sum() == 1
            assert masks[d][d] == 0.0

    def test_all_domains_is_zero_mask(self):
        masks = build_mask([[0, 1, 2]] * 3, [1, 1, 1])
        np.testing.assert_array_equal(masks, np.zeros((3, 3)))

    def test_owner_map_oracle(self):
        masks = build_mask([[0, 2], [1], [2]], [2, 1, 1])
        np.testing.assert_array_equal(masks[0], [0.0, 0.0, -np.inf, 0.0])

    def test_same_masks_as_isin_reference(self):
        """The membership row indexed by each expert's owner gives, bit for
        bit, the masks of an np.isin over the owners per domain."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            domains = int(rng.integers(1, 9))
            counts = rng.integers(1, 4, size=domains).tolist()
            subsets = [rng.permutation([d] + [j for j in range(domains)
                                              if j != d and rng.random() < 0.5])
                       .tolist() for d in range(domains)]
            owners = np.repeat(np.arange(domains), counts)
            want = np.full((domains, owners.size), -np.inf)
            for d, subset in enumerate(subsets):
                want[d, np.isin(owners, subset)] = 0.0
            got = build_mask(subsets, counts)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (subsets, counts)

    def test_missing_self_is_invariant_violation(self):
        with pytest.raises(ConfigError, match="must contain domain 0"):
            build_mask([[1], [1]], [1, 1])

    def test_unknown_domain(self):
        with pytest.raises(ConfigError):
            build_mask([[0, 5], [1]], [1, 1])

    @pytest.mark.parametrize("entry", [1.7, True])
    def test_entry_that_is_not_an_integer(self, entry):
        """A float or bool entry is refused, not cast to a domain id."""
        with pytest.raises(ConfigError,
                           match=r"^subsets\[0\] entry must be an integer"):
            build_mask([[0, entry], [1]], [1, 1])


class TestVocabSizes:
    @pytest.mark.parametrize("vocab, named", [
        ((2.5, 2.5), "vocab_sizes[0] must be an integer, got 2.5"),
        (("4", 4), "vocab_sizes[0] must be an integer, got '4'"),
        ((4, True), "vocab_sizes[1] must be an integer, got True"),
        ((4, 0), "vocab_sizes[1] must be >= 1, got 0"),
        ((4, -3), "vocab_sizes[1] must be >= 1, got -3"),
        ((), "vocab_sizes needs at least one field"),
        ((4, 2 ** 40), f"vocab_sizes[1] must be <= {2 ** 31}, got {2 ** 40}"),
    ])
    def test_bad_vocab_sizes_rejected(self, vocab, named):
        """A size that is not a positive integer, or whose indices do not
        all fit int32, fails with a ConfigError naming its field index,
        instead of being truncated or cast, or failing to allocate."""
        with pytest.raises(ConfigError) as err:
            small_net(vocab=vocab)
        assert str(err.value) == named

    def test_numpy_integer_sizes_kept_as_ints(self):
        net = small_net(vocab=(np.int64(5), np.uint8(7)))
        assert net.vocab_sizes == (5, 7)
        assert [type(v) for v in net.vocab_sizes] == [int, int]


class TestLayerSizes:
    @pytest.mark.parametrize("changes, named", [
        ({"embed_dim": 2.7}, "embed_dim must be an integer, got 2.7"),
        ({"expert_counts": (1.9, 1, 1)},
         "expert_counts[0] must be an integer, got 1.9"),
        ({"expert_counts": (1, True, 1)},
         "expert_counts[1] must be an integer, got True"),
        ({"expert_hidden": 8.5}, "expert_hidden must be an integer, got 8.5"),
        ({"repr_dim": True}, "repr_dim must be an integer, got True"),
        ({"tower_hidden": 4.0}, "tower_hidden must be an integer, got 4.0"),
        ({"embed_dim": 0}, "embed_dim must be >= 1, got 0"),
        ({"tower_hidden": -2}, "tower_hidden must be >= 1, got -2"),
    ])
    def test_bad_sizes_rejected(self, changes, named):
        """A layer size or expert count that is not a positive integer
        fails with a ConfigError naming it, instead of being truncated."""
        with pytest.raises(ConfigError) as err:
            small_net(**changes)
        assert str(err.value) == named

    @pytest.mark.parametrize("changes, named", [
        ({"vocab": 5}, "vocab_sizes must be a list, got 5"),
        ({"expert_counts": 2}, "expert_counts must be a list, got 2"),
    ])
    def test_scalar_where_a_list_belongs(self, changes, named):
        with pytest.raises(ConfigError) as err:
            small_net(**changes)
        assert str(err.value) == named

    def test_numpy_integer_sizes_kept_as_ints(self):
        net = small_net(embed_dim=np.int64(2), expert_counts=(np.uint8(2), 1),
                        repr_dim=np.int32(3))
        assert (net.embed_dim, net.expert_counts, net.repr_dim) == (2, [2, 1], 3)
        assert [type(v) for v in (net.embed_dim, *net.expert_counts,
                                  net.repr_dim)] == [int] * 4


class TestEmbed:
    def test_concatenation(self):
        net = small_net(vocab=(2, 2), embed_dim=2)
        net.embedding.values[...] = [[9.0, 9.0], [1.0, 2.0],
                                     [3.0, 4.0], [8.0, 8.0]]
        x = net.embed(np.array([[1, 0]]))
        np.testing.assert_array_equal(x, [[1.0, 2.0, 3.0, 4.0, 1.0]])

    def test_zero_table(self):
        net = small_net()
        net.embedding.values[...] = 0.0
        x = net.embed(rand_features(net, 4))
        np.testing.assert_array_equal(x[:, :-1], np.zeros((4, net.x_dim)))
        np.testing.assert_array_equal(x[:, -1], np.ones(4))

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

    @pytest.mark.parametrize("bad", [-1, 7, -2 ** 31, 2 ** 31 - 1])
    def test_int32_index_outside_vocab_rejected(self, bad):
        """Int32 input is read as it is; a negative index or one at or past
        the vocabulary size still fails on both bounds."""
        net = small_net(vocab=(5, 7, 4))
        feats = np.array([[0, 0, 0], [4, bad, 3]], dtype=np.int32)
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
        assert x.tobytes() == ref.loop_embed(net, feats).tobytes()

    def test_in_place_table_edit_is_read(self):
        net = small_net(vocab=(3, 4))
        net.embedding.values[3 + 2] = [7.0, -7.0]
        x = net.embed(np.array([[0, 2]]))
        np.testing.assert_array_equal(x[0, 2:], [7.0, -7.0, 1.0])

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
        assert same_bits(net.experts[0].weights[0].values[:-1, :4],
                         expert_w.T)

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
        monkeypatch.setattr(Backbone, "_embed_backward",
                            ref.loop_embed_backward)
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
        net.gates[0].weights[0].values[...] = 0.0
        x = net.embed(rand_features(net, 2))
        g = nn.masked_softmax(net.gates[0].forward(x, cache=False),
                              np.zeros(3))
        np.testing.assert_allclose(g, np.full((2, 3), 1 / 3))

    def test_dominant_logit_saturates(self):
        net = small_net()
        net.gates[1].weights[0].values[...] = 0.0
        net.gates[1].weights[0].values[-1] = [50.0, 0.0, 0.0]
        x = net.embed(rand_features(net, 1))
        g = nn.masked_softmax(net.gates[1].forward(x, cache=False),
                              np.zeros(3))
        assert g[0, 0] > 0.999999

    def test_exp_normalize_oracle(self):
        net = small_net()
        net.gates[2].weights[0].values[...] = 0.0
        net.gates[2].weights[0].values[-1] = [1.0, 2.0, 3.0]
        x = net.embed(rand_features(net, 1))
        g = nn.masked_softmax(net.gates[2].forward(x, cache=False),
                              np.zeros(3))
        np.testing.assert_allclose(g[0], [0.09003, 0.24473, 0.66524], atol=5e-6)


class TestMaskedForward:
    def test_full_share_bit_identical_to_unmasked(self):
        net = small_net(seed=7)
        feats = rand_features(net, 5)
        masks = build_mask([[0, 1, 2]] * 3, net.expert_counts)
        for d in range(3):
            a, ha = net.forward_domain(feats, d, masks=unmasked(net),
                                       cache=False)
            b, hb = net.forward_domain(feats, d, masks=masks, cache=False)
            assert np.array_equal(a, b)
            assert np.array_equal(ha, hb)

    def test_self_only_mask_yields_own_expert(self):
        net = small_net(seed=8)
        feats = rand_features(net, 4)
        masks = build_mask([[0], [1], [2]], net.expert_counts)
        x = net.embed(feats)
        _, h = net.forward_domain(feats, 1, masks=masks, cache=False)
        own = net.experts[1].forward(x, cache=False)
        np.testing.assert_allclose(h, own)  # single unmasked expert gets weight 1

    def test_symmetric_mask_weights(self):
        net = small_net()
        net.gates[0].weights[0].values[...] = 0.0
        net.gates[0].weights[0].values[-1] = [1.0, 1.0, 1.0]
        masks = build_mask([[0, 2], [1], [2]], net.expert_counts)
        x = net.embed(rand_features(net, 2))
        g = nn.masked_softmax(net.gates[0].forward(x, cache=False), masks[0])
        np.testing.assert_allclose(g, np.tile([0.5, 0.0, 0.5], (2, 1)))
        assert np.all(g[:, 1] == 0.0)

    def test_masked_weights_sum_to_one_with_exact_zeros(self):
        net = small_net(seed=9, expert_counts=(2, 1, 1))
        feats = rand_features(net, 6)
        masks = build_mask([[0, 1], [1], [0, 2]], net.expert_counts)
        x = net.embed(feats)
        for d in range(3):
            g = nn.masked_softmax(net.gates[d].forward(x, cache=False),
                                  masks[d])
            np.testing.assert_allclose(g.sum(axis=1), np.ones(6), atol=1e-12)
            banned = np.isneginf(masks[d])
            assert np.all(g[:, banned] == 0.0)

    def test_output_invariant_to_masked_expert_parameters(self):
        net = small_net(seed=10)
        feats = rand_features(net, 5)
        masks = build_mask([[0, 1], [1], [2]], net.expert_counts)
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
        masks = build_mask([[0, 1], [1], [2]], net.expert_counts)
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
        [[0, 1, 2]] * 3, [[0], [1], [2]], [[0, 2], [0, 1], [1, 2]]])
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
            masks = build_mask([[0, 2], [1], [2]], net.expert_counts)
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

    def test_non_finite_prediction_is_numeric_error(self):
        """A NaN parameter, as a diverged run leaves, stops the domain's
        predictions with an error that names the domain."""
        net = small_net(seed=12)
        net.towers[1].params()[0].values[0, 0] = np.nan
        feats = rand_features(net, 5)
        assert np.isfinite(net.predict(feats, 0, unmasked(net))).all()
        with pytest.raises(NumericError, match=r"^domain 1: non-finite "
                           "predictions; reduce the learning rate"):
            net.predict(feats, 1, unmasked(net))

    def test_end_to_end_gradients_match_finite_differences(self):
        net = small_net(seed=13, expert_counts=(2, 1), vocab=(4, 6),
                        embed_dim=3, expert_hidden=5, repr_dim=4)
        feats = rand_features(net, 6, seed=14)
        labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        masks = build_mask([[0, 1], [1]], net.expert_counts)

        def loss():
            preds, _ = net.forward_domain(feats, 0, masks=masks, cache=False)
            return nn.bce_loss(preds, labels)[0]

        preds, _ = net.forward_domain(feats, 0, masks=masks)
        _, dpreds = nn.bce_loss(preds, labels)
        net.backward_domain(0, dpreds)
        checked = 0
        for p in net.params():
            if np.all(p.grad == 0.0):
                continue  # masked or unused parameters get no gradient
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
    """The repeat-and-tile embedding index gives the bits of the broadcast
    index it replaces, on gradients holding signed zeros, subnormals,
    infinities and NaN."""

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


# The benchmark's backbones, vocabulary 16 and the default layer sizes:
# chain4 has 8 fields and 2 experts per domain, blocks8 16 fields and 1.
BENCH_NETS = {"chain4": ([16] * 8, [2] * 4), "blocks8": ([16] * 16, [1] * 8)}


class TestFoldedBias:
    """The gate's one product and every layer's in a domain pass give the
    bits of a separate bias add and reduction (``reference.mlp_forward``
    and ``domain_pass``): at the benchmark's shapes on finite embeddings
    and gradients with signed zeros and subnormals, and on a small net
    with every special value, apart from the payload of a NaN summed
    inside a layer's product. blocks8's 64-input layers sum a 2,000-row
    gradient in another order (a second OpenBLAS block), so it stops at
    256 rows, past its 128-row batches."""

    @pytest.mark.parametrize("name, rows", [
        (name, rows) for name in BENCH_NETS for rows in FOLD_ROWS
        if not (name == "blocks8" and rows > 256)])
    def test_gate_logits_and_backward_domain(self, name, rows):
        vocab, counts = BENCH_NETS[name]
        nets = [Backbone(vocab, 4, counts, 8, 8, 8, np.random.default_rng(3))
                for _ in range(2)]
        for net in nets:
            net.embedding.values[...] = with_specials(
                net.embedding.values.shape, 1, FINITE_SPECIALS, scale=0.5)
            for m in net.experts + net.gates + net.towers:
                with_random_biases(m, 2)
        shipped, reference = nets
        masks = unmasked(shipped)
        feats = rand_features(shipped, rows, seed=rows)
        x = shipped.embed(feats)
        for d in range(shipped.num_domains):
            assert same_bits(shipped.gates[d].forward(x, cache=False),
                             ref.mlp_forward(reference.gates[d], x,
                                             cache=False))
        dpreds = with_specials(rows, 5, FINITE_SPECIALS, scale=0.1)
        dh_extra = with_specials((rows, 8), 6, FINITE_SPECIALS, scale=0.1)
        shipped.forward_domain(feats, 1, masks)
        shipped.backward_domain(1, dpreds, dh_extra)
        ref.domain_pass(reference, feats, 1, masks, dpreds, dh_extra)
        for p, q in zip(shipped.params(), reference.params()):
            assert same_bits(p.grad, q.grad), p.name
            assert np.isfinite(p.grad).all(), p.name

    @pytest.mark.parametrize("specials", ["finite", "all"])
    @pytest.mark.parametrize("subsets", [
        [[0, 1, 2]] * 3, [[0, 2], [1], [1, 2]]])
    def test_backward_domain(self, subsets, specials):
        """The gate sums, the zero-filled gradients and the expert and
        tower passes: every parameter's gradient has the reference's bits,
        but for the payload of a NaN summed inside a layer's product."""
        values = SPECIAL_VALUES[:5] if specials == "finite" else SPECIAL_VALUES
        shipped, reference = [small_net(seed=9, expert_counts=(2, 1, 2))
                              for _ in range(2)]
        masks = build_mask(subsets, shipped.expert_counts)
        for d in range(3):
            feats = rand_features(shipped, 33, seed=d)
            dpreds = with_specials(33, 10 + d, values)
            dh_extra = with_specials((33, shipped.repr_dim), 20 + d, values)
            with np.errstate(all="ignore"):
                shipped.forward_domain(feats, d, masks)
                shipped.backward_domain(d, dpreds, dh_extra)
                ref.domain_pass(reference, feats, d, masks, dpreds, dh_extra)
        same = same_bits if specials == "finite" else same_bits_apart_from_nan
        for p, q in zip(shipped.params(), reference.params()):
            assert same(p.grad, q.grad), p.name
        if specials == "finite":
            assert all(np.isfinite(p.grad).all() for p in shipped.params())

    @pytest.mark.parametrize("rows", [13, 128, 256, 2000])
    def test_domain_pass_matches_the_out_in_formula(self, rows):
        """Input-major weights change only the summation order: outputs and
        gradients agree to rounding with the reference pass that reads
        every weight (out, in), at batch sizes on both sides of BLAS's
        small-matrix kernels."""
        shipped, reference = [
            small_net(seed=4, vocab=(11, 13, 7, 5), embed_dim=8,
                      expert_counts=(2, 1, 2), expert_hidden=8, repr_dim=8,
                      tower_hidden=8) for _ in range(2)]
        masks = build_mask([[0, 2], [1], [1, 2]], shipped.expert_counts)
        rng = np.random.default_rng(rows)
        for d in range(shipped.num_domains):
            feats = rand_features(shipped, rows, seed=d)
            dpreds = rng.normal(size=rows)
            dh_extra = rng.normal(size=(rows, shipped.repr_dim))
            for p in shipped.params() + reference.params():
                p.grad[...] = 0.0
            want_preds, want_h = ref.domain_pass(reference, feats, d, masks,
                                                 dpreds, dh_extra, "out_in")
            preds, h = shipped.forward_domain(feats, d, masks)
            shipped.backward_domain(d, dpreds, dh_extra)
            assert_close(preds, want_preds)
            assert_close(h, want_h)
            for p, q in zip(shipped.params(), reference.params()):
                assert_close(p.grad, q.grad, p.name)
