import numpy as np
import pytest

from ctrlab import nn
from ctrlab.errors import (ConfigError, LabError, MaskError, NumericError,
                           UsageError)
from helpers import (FINITE_SPECIALS, FOLD_ROWS, SPECIAL_VALUES,
                     numeric_gradient, relative_error, same_bits,
                     same_bits_apart_from_nan, with_random_biases,
                     with_specials)
import reference as ref


def wrapper_bce_loss(preds, labels):
    """Reference ``bce_loss`` arithmetic through np.clip and np.mean."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    p = np.clip(preds, nn.CLAMP_EPS, 1.0 - nn.CLAMP_EPS)
    loss = float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))))
    grad = (p - labels) / (p * (1.0 - p)) / preds.size
    return loss, grad


def wrapper_masked_softmax(logits, mask):
    """Reference ``masked_softmax``: the mask checked through np.all,
    np.isneginf and np.flatnonzero, exp of a subtracted copy of the active
    columns, and the row sums by ndarray.sum."""
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 1 or mask.shape[0] != logits.shape[-1]:
        raise UsageError(f"mask of shape {mask.shape} does not match logits "
                         f"{logits.shape}")
    valid = mask == 0.0
    if not np.all(valid | np.isneginf(mask)):
        raise UsageError("mask entries must be 0 or -inf")
    if not valid.any():
        raise MaskError("degenerate mask: every position is masked")
    active = np.flatnonzero(valid)
    top = logits[..., active[0]].copy()
    for k in active[1:]:
        np.maximum(top, logits[..., k], out=top)
    probs = np.zeros(logits.shape)
    probs[..., active] = np.exp(logits[..., active] - top[..., None])
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def make_mlp(name, dims, seed=0, sigmoid=False):
    return nn.Mlp(name, dims, np.random.default_rng(seed), sigmoid=sigmoid)


# The output activation of a parametrized case, as make_mlp's keywords.
LINEAR, SIGMOID = {}, {"sigmoid": True}


class TestMlpConstruction:
    def test_weights_drawn_in_layer_order_biases_zero(self):
        """Layer i's weight is (dims[i] + 1, dims[i + 1]), hidden or not:
        its rows are the transpose of the i-th draw from the generator, a
        (dims[i + 1], dims[i]) draw with fan-in dims[i], above a zero bias
        row."""
        net = make_mlp("m", [5, 4, 3, 1], seed=9, sigmoid=True)
        rng = np.random.default_rng(9)
        for i, (fan_in, fan_out) in enumerate([(5, 4), (4, 3), (3, 1)]):
            want = nn.uniform_init(rng, (fan_out, fan_in), fan_in)
            w = net.weights[i]
            assert w.values.shape == (fan_in + 1, fan_out)
            assert w.values.flags.c_contiguous
            assert same_bits(w.values[:-1], want.T)
            assert same_bits(w.values[-1], np.zeros(fan_out))
            assert w.name == f"m.l{i}.w"
        assert net.params() == net.weights

    @pytest.mark.parametrize("dims, message", [
        ([4], "dims needs at least 2 entries, got [4]"),
        ([], "dims needs at least 2 entries, got []"),
        ([4, 0, 1], "dims[1] must be >= 1, got 0"),
        ([4, -1], "dims[1] must be >= 1, got -1"),
        ([4, 2.5, 1], "dims[1] must be an integer, got 2.5"),
        ([True, 3], "dims[0] must be an integer, got True"),
        (4, "dims must be a list, got 4")])
    def test_malformed_dims_name_the_net(self, dims, message):
        """Each malformed ``dims`` raises one ConfigError naming the net,
        at construction rather than at the first forward."""
        with pytest.raises(ConfigError) as info:
            make_mlp("tower.d3", dims)
        assert str(info.value) == f"tower.d3: {message}"

    def test_dims_are_ints(self):
        net = make_mlp("m", (np.int64(3), 2))
        assert net.dims == [3, 2] and [type(n) for n in net.dims] == [int, int]


class TestMlpForward:
    def test_identity_weights(self):
        """Two identity layers with zero biases: the hidden one's ReLU
        zeroes the negative entry. The last one is linear, so a negative
        bias there comes out as it is."""
        net = make_mlp("id", [2, 2, 2])
        for w in net.weights:
            w.values = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        out = net.forward(np.array([[3.0, -1.0, 1.0]]))
        np.testing.assert_array_equal(out, [[3.0, 0.0]])
        net.weights[1].values[-1] = [0.0, -2.0]
        out = net.forward(np.array([[3.0, -1.0, 1.0]]))
        np.testing.assert_array_equal(out, [[3.0, -2.0]])

    def test_constant_map(self):
        net = make_mlp("const", [3, 1])
        net.weights[0].values[...] = 0.0
        net.weights[0].values[-1] = 0.5
        for x in ([[1.0, 2.0, 3.0]], [[-4.0, 0.0, 9.0]]):
            np.testing.assert_array_equal(
                net.forward(nn.with_ones(np.array(x))), [[0.5]])

    def test_hand_evaluated_relu_chain(self):
        # relu(1*3 - 1) * 2 + 0.5 = 4.5: the hidden output's ones column
        # reads the second bias.
        net = make_mlp("hand", [1, 1, 1])
        net.weights[0].values = np.array([[1.0], [-1.0]])
        net.weights[1].values = np.array([[2.0], [0.5]])
        out = net.forward(np.array([[3.0, 1.0]]))
        np.testing.assert_allclose(out, [[4.5]])

    def test_hidden_output_ends_in_a_ones_column(self):
        """Each hidden layer's cached output is its activation beside an
        exact ones column, and is the next layer's cached input; the last
        layer's output has no such column."""
        net = make_mlp("h", [3, 5, 4, 2], seed=2, sigmoid=True)
        x = nn.with_ones(np.random.default_rng(3).normal(size=(6, 3)))
        out = net.forward(x)
        (x0, _, a0), (x1, _, a1), (x2, _, a2) = net._cache
        assert x0 is x and x1 is a0 and x2 is a1 and a2 is out
        assert [a.shape for a in (a0, a1, a2)] == [(6, 6), (6, 5), (6, 2)]
        assert (a0[:, :-1] == 0.0).any()  # ReLU zeroed some outputs
        for a in (a0, a1):
            assert same_bits(a[:, -1], np.ones(6))

    def test_dimension_mismatch_is_config_error(self):
        net = make_mlp("bad", [3, 2])
        with pytest.raises(ConfigError):
            net.forward(np.zeros((4, 5)))

    def test_input_without_its_ones_column_is_config_error(self):
        net = make_mlp("bad", [3, 2])
        with pytest.raises(ConfigError, match=r"^bad: expected input of "
                           r"shape \(batch, 4\) with a ones column, got "
                           r"\(4, 3\)$"):
            net.forward(np.zeros((4, 3)))

    def test_with_ones(self):
        a = np.arange(6.0).reshape(2, 3)[:, ::-1]
        out = nn.with_ones(a)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, [[2.0, 1.0, 0.0, 1.0],
                                            [5.0, 4.0, 3.0, 1.0]])


class TestMlpBackward:
    def test_linear_param_grad_is_outer_product(self):
        net = make_mlp("lin", [3, 2], seed=3)
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.7, -0.3]])
        net.forward(nn.with_ones(x))
        net.backward(g)
        np.testing.assert_allclose(net.weights[0].grad[:-1], x.T @ g)
        np.testing.assert_allclose(net.weights[0].grad[-1], g.ravel())

    def test_zero_upstream_gives_zero_grads(self):
        net = make_mlp("z", [4, 5, 2], seed=5, sigmoid=True)
        net.forward(nn.with_ones(np.random.default_rng(1).normal(size=(6, 4))))
        net.backward(np.zeros((6, 2)))
        for p in net.params():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_backward_without_forward_is_usage_error(self):
        net = make_mlp("nf", [2, 2])
        with pytest.raises(UsageError):
            net.backward(np.zeros((1, 2)))

    @pytest.mark.parametrize("dims,acts,seed", [
        ([3, 8, 1], SIGMOID, 11),
        ([5, 16, 16, 2], LINEAR, 12),
        ([4, 64, 3], SIGMOID, 13),
    ])
    def test_grads_match_finite_differences(self, dims, acts, seed):
        """Every weight and bias entry."""
        rng = np.random.default_rng(seed)
        net = make_mlp("fd", dims, seed=seed, **acts)
        x = nn.with_ones(rng.normal(size=(7, dims[0])))
        # scalar objective: weighted sum of outputs
        w_out = rng.normal(size=(7, dims[-1]))

        def objective():
            return float((net.forward(x, cache=False) * w_out).sum())

        net.forward(x)
        net.backward(w_out)
        for p in net.params():
            fd = numeric_gradient(objective, p.values, eps=1e-5)
            assert relative_error(p.grad, fd) < 1e-4, p.name
            p.grad[...] = 0.0


class TestMaskedSoftmax:
    def test_symmetric_masked_entries(self):
        out = nn.masked_softmax(np.array([1.0, 1.0, 1.0]),
                                np.array([0.0, -np.inf, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.0, 0.5])
        assert out[1] == 0.0

    def test_zero_mask_matches_plain_softmax_bitwise(self):
        logits = np.random.default_rng(2).normal(size=(5, 4))
        a = nn.masked_softmax(logits, np.zeros(4))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        assert np.array_equal(a, e / e.sum(axis=-1, keepdims=True))

    def test_two_way_uniform(self):
        np.testing.assert_allclose(
            nn.masked_softmax(np.zeros(2), np.zeros(2)), [0.5, 0.5])

    def test_exp_normalize_oracle(self):
        logits = np.array([1.0, 2.0, 3.0])
        e = np.exp(logits - logits.max())
        oracle = e / e.sum()
        out = nn.masked_softmax(logits, np.zeros(3))
        np.testing.assert_allclose(out, oracle, rtol=1e-12)
        np.testing.assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=5e-6)

    def test_probability_vector_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            logits = rng.normal(scale=5.0, size=n)
            mask = np.where(rng.random(n) < 0.4, -np.inf, 0.0)
            mask[rng.integers(n)] = 0.0
            out = nn.masked_softmax(logits, mask)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0.0)
            assert np.all(out[np.isneginf(mask)] == 0.0)

    def test_all_masked_is_degenerate(self):
        with pytest.raises(MaskError):
            nn.masked_softmax(np.zeros(3), np.full(3, -np.inf))

    def test_bad_mask_values_rejected(self):
        with pytest.raises(UsageError):
            nn.masked_softmax(np.zeros(3), np.array([0.0, -1.0, 0.0]))


class TestSameBitsAsReferences:
    RNG = np.random.default_rng(11)
    CASES = {
        "column 0 masked": (RNG.normal(size=(200, 8)),
                            np.array([-np.inf, 0, -np.inf, 0, 0, -np.inf,
                                      0, 0])),
        "one active column": (RNG.normal(size=(50, 6)),
                              np.array([-np.inf] * 5 + [0.0])),
        "signed zero ties": (np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, -0.0],
                                       [-0.0, -0.0, -3.0], [-0.0, 0.0, 0.0]]),
                             np.zeros(3)),
        "signed zero ties, masked": (np.array([[-0.0, 0.0, 0.0],
                                               [0.0, 5.0, -0.0]]),
                                     np.array([0.0, -np.inf, 0.0])),
        "1-D logits": (RNG.normal(size=7),
                       np.array([0, -np.inf, 0, 0, -np.inf, 0, 0.0])),
        "1-D, one column": (np.array([-0.0]), np.zeros(1)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_masked_softmax(self, case):
        logits, mask = self.CASES[case]
        out = nn.masked_softmax(logits, mask)
        assert out.tobytes() == ref.loop_masked_softmax(logits, mask).tobytes()

    MASKS = {
        "one active column": np.array([-np.inf, -np.inf, 0.0, -np.inf,
                                       -np.inf, -np.inf, -np.inf, -np.inf,
                                       -np.inf]),
        "column 0 masked": np.array([-np.inf] + [0.0] * 8),
        "last column masked": np.array([0.0] * 8 + [-np.inf]),
        "all active": np.zeros(9),
    }

    @pytest.mark.parametrize("rows", [None, 1, 7, 128, 2_000])
    @pytest.mark.parametrize("mask", MASKS)
    def test_masked_softmax_over_active_columns(self, rows, mask):
        """Nine columns, so a row sum over the active ones alone would be
        grouped differently from the full-width one; rows=None is 1-D."""
        shape = (9,) if rows is None else (rows, 9)
        logits = np.random.default_rng(rows or 0).normal(scale=4.0,
                                                         size=shape)
        mask = self.MASKS[mask]
        out = nn.masked_softmax(logits, mask)
        assert out.shape == logits.shape
        assert out.tobytes() == ref.loop_masked_softmax(logits, mask).tobytes()
        assert np.signbit(out[..., np.isneginf(mask)]).sum() == 0

    @pytest.mark.parametrize("dims,acts", [
        ([5, 16, 3], LINEAR),
        ([3, 8, 1], SIGMOID),
        ([4, 6, 6, 2], LINEAR),
    ])
    def test_no_cache_forward(self, dims, acts):
        """The no-cache forward has the cached forward's bits, and
        its output is the caller's: writing to it changes no param, no
        input, no pending cache and no later forward."""
        rng = np.random.default_rng(8)
        net = make_mlp("nc", dims, seed=4, **acts)
        for p in net.params():
            p.values[-1] += 0.1  # nonzero biases
        x = nn.with_ones(rng.normal(size=(130, dims[0])))
        upstream = rng.normal(size=(130, dims[-1]))
        x_before = x.copy()
        params_before = [p.values.copy() for p in net.params()]
        cached = net.forward(x)
        out = net.forward(x, cache=False)
        assert out.tobytes() == cached.tobytes()
        out[...] = np.nan
        assert x.tobytes() == x_before.tobytes()
        for p, before in zip(net.params(), params_before):
            assert p.values.tobytes() == before.tobytes(), p.name
        assert net.forward(x, cache=False).tobytes() == cached.tobytes()
        dx = net.backward(upstream)
        fresh = make_mlp("nc", dims, seed=4, **acts)
        for p, before in zip(fresh.params(), params_before):
            p.values = before
        fresh.forward(x)
        assert dx.tobytes() == fresh.backward(upstream).tobytes()
        for p, q in zip(net.params(), fresh.params()):
            assert p.grad.tobytes() == q.grad.tobytes(), p.name

    # Every special pre-activation (columns) against every special upstream
    # gradient (rows), one pairing per row of a one-unit net.
    RELU_Z, RELU_DA = (grid.reshape(-1, 1) for grid in np.meshgrid(
        np.array([-2.0, -0.0, 0.0, 5e-324, 3.0, np.nan, np.inf, -np.inf]),
        np.array([-1.5, -0.0, 0.0, 2.0, np.nan, np.inf, -np.inf])))

    @staticmethod
    def relu_unit():
        """A [1, 1, 1] net with unit weights and zero biases: its hidden z
        is its input, and its upstream gradient reaches the hidden ReLU."""
        net = make_mlp("relu", [1, 1, 1])
        for w in net.weights:
            w.values[...] = [[1.0], [0.0]]
        return net

    def test_relu_gradient(self):
        """``Mlp.backward``'s bool ReLU gradient gives the reference's bits,
        whose gradient is a float np.where of the raw z: the input
        gradient exactly, the weight gradients apart from NaN payloads."""
        x = nn.with_ones(self.RELU_Z)
        shipped, reference = self.relu_unit(), self.relu_unit()
        with np.errstate(invalid="ignore"):  # inf * 0
            shipped.forward(x)
            dx = shipped.backward(self.RELU_DA)
            ref.mlp_forward(reference, x)
            want = ref.mlp_backward(reference, self.RELU_DA)
        assert dx.dtype == np.float64
        assert dx.tobytes() == want.tobytes()
        for p, q in zip(shipped.params(), reference.params()):
            assert same_bits_apart_from_nan(p.grad, q.grad), p.name

    def test_relu_gradient_of_cached_activation(self, monkeypatch):
        """The hidden layer caches max(z, 0), applied in place, as its z;
        the dz that ``Mlp.backward`` takes from it has the bits of its
        upstream gradient times the raw z's float gradient."""
        dense_backward, passes = nn.dense_backward, []

        def recording(w, x, dz):
            da = dense_backward(w, x, dz)
            passes.append((dz, da))
            return da

        monkeypatch.setattr(nn, "dense_backward", recording)
        net = self.relu_unit()
        z = self.RELU_Z
        with np.errstate(invalid="ignore"):  # inf * 0
            net.forward(nn.with_ones(z))
            net.backward(self.RELU_DA)
            (_, da), (dz, _) = passes
            want = da * ref.loop_activate_grad(net, False, z,
                                               np.maximum(z, 0.0))
        assert dz.tobytes() == want.tobytes()


class TestSameBitsAsWrapperExpressions:
    """Direct ufunc calls and in-place steps give the bits of the
    numpy-wrapper expressions they replace, on inputs holding signed
    zeros, subnormals, infinities and NaN."""

    @pytest.mark.parametrize("shape", [(1,), (2,), (128,), (1_000,), (7, 9)])
    def test_bce_loss(self, shape):
        near_clamp = np.array([1e-8, 1e-7, 0.9999999, 1.0 - 1e-8, 1.0, 0.5])
        preds = with_specials(shape, 1, np.concatenate(
            [SPECIAL_VALUES, near_clamp]), scale=0.3, loc=0.5)
        labels = (np.random.default_rng(2).random(shape) < 0.5) * 1.0
        labels.reshape(-1)[::7] = -0.0
        with np.errstate(all="ignore"):
            loss, grad = nn.bce_loss(preds, labels)
            want_loss, want_grad = wrapper_bce_loss(preds, labels)
        assert same_bits(np.float64(loss), np.float64(want_loss))
        assert same_bits(grad, want_grad)

    def test_bce_loss_of_finite_predictions_is_finite(self):
        """With the specials only among finite, in-range predictions the
        loss is a number, so the comparison above is not NaN against NaN."""
        preds = np.array([0.0, -0.0, 5e-324, 1.0, 1e-8, 0.9999999, 0.25])
        labels = np.array([0.0, 1.0, 1.0, 0.0, -0.0, 1.0, 0.0])
        loss, grad = nn.bce_loss(preds, labels)
        want_loss, want_grad = wrapper_bce_loss(preds, labels)
        assert np.isfinite(loss)
        assert same_bits(np.float64(loss), np.float64(want_loss))
        assert same_bits(grad, want_grad)

    MASKS = {
        "all active": np.zeros(8),
        "five active": np.array([0.0, -np.inf, 0.0, 0.0, -np.inf, 0.0,
                                 -np.inf, 0.0]),
        "one active": np.array([-np.inf] * 7 + [0.0]),
    }

    @pytest.mark.parametrize("shape", [(8,), (1, 8), (2, 8), (130, 8)])
    @pytest.mark.parametrize("mask", MASKS)
    def test_masked_softmax_and_backward(self, shape, mask):
        logits = with_specials(shape, 7, scale=3.0)
        dprobs = with_specials(shape, 8)
        mask = self.MASKS[mask]
        with np.errstate(all="ignore"):
            probs = nn.masked_softmax(logits, mask)
            want = wrapper_masked_softmax(logits, mask)
            dlogits = nn.softmax_backward(probs, dprobs)
            want_dlogits = ref.wrapper_softmax_backward(want, dprobs)
        assert same_bits(probs, want)
        assert same_bits(dlogits, want_dlogits)

    def test_masked_softmax_of_finite_logits_is_finite(self):
        """Signed zeros and subnormals only: a NaN-free case of the above."""
        logits = with_specials((50, 8), 9, SPECIAL_VALUES[:5])
        dprobs = with_specials((50, 8), 10, SPECIAL_VALUES[:5])
        mask = self.MASKS["five active"]
        probs = nn.masked_softmax(logits, mask)
        assert np.isfinite(probs).all()
        assert same_bits(probs, wrapper_masked_softmax(logits, mask))
        assert same_bits(nn.softmax_backward(probs, dprobs),
                         ref.wrapper_softmax_backward(probs, dprobs))

    @pytest.mark.parametrize("mask", [
        [0.0, np.nan], [0.0, np.inf], [-np.inf, -np.inf], [0.0, -1.0],
        [[0.0, 0.0]], [0.0]])
    def test_masked_softmax_errors(self, mask):
        logits = np.zeros((3, 2))
        with pytest.raises(LabError) as got:
            nn.masked_softmax(logits, np.array(mask))
        with pytest.raises(LabError) as want:
            wrapper_masked_softmax(logits, np.array(mask))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


# The benchmark's dense stacks: an expert over 8 or 16 fields of 4
# embedding columns, and a tower.
BENCH_STACKS = {"expert32": ([32, 8, 8], LINEAR),
                "expert64": ([64, 8, 8], LINEAR),
                "tower": ([8, 8, 1], SIGMOID)}


def bench_stack_cases():
    """(stack, rows) pairs; the 64-input expert's weight gradient sums its
    rows in another order at 2,000 rows (a second OpenBLAS block), so it
    stops at 256, past the 128-row batches that width runs at."""
    return [(stack, rows) for stack in BENCH_STACKS for rows in FOLD_ROWS
            if not (stack == "expert64" and rows > 256)]


class TestFoldedBias:
    """Each layer's one product, its bias read through the input's ones
    column, gives the bits of the product plus a separate bias add and
    reduction (``reference.mlp_forward`` and ``mlp_backward``). At the
    benchmark's layer shapes that holds on finite inputs and gradients
    with signed zeros and subnormals, at row counts on both sides of
    OpenBLAS's small-matrix kernels, and with nonzero starting gradients,
    so the sums are accumulated; on three small stacks it holds with
    infinities and NaN too. At the benchmark's shapes, a hidden layer's
    product over its live columns also has the bits of the product by its
    weight with the carry column [0, ..., 0, 1]
    (``reference.carry_mlp_forward``)."""

    @pytest.mark.parametrize("stack, rows", bench_stack_cases())
    def test_mlp_forward_and_backward(self, stack, rows):
        dims, acts = BENCH_STACKS[stack]
        nets = [with_random_biases(make_mlp("m", dims, seed=rows, **acts), 1)
                for _ in range(2)]
        start = np.random.default_rng(rows)
        for p, q in zip(*(net.params() for net in nets)):
            p.grad[...] = start.normal(size=p.grad.shape)
            q.grad[...] = p.grad
        x = nn.with_ones(with_specials((rows, dims[0]), 2, FINITE_SPECIALS))
        upstream = with_specials((rows, dims[-1]), 3, FINITE_SPECIALS)
        shipped, reference = nets
        out = shipped.forward(x)
        assert same_bits(out, ref.mlp_forward(reference, x))
        assert same_bits(shipped.backward(upstream),
                         ref.mlp_backward(reference, upstream))
        for p, q in zip(shipped.params(), reference.params()):
            assert same_bits(p.grad, q.grad), p.name
            assert np.isfinite(p.grad).all(), p.name

    @pytest.mark.parametrize("dims,acts", [
        ([6, 5, 4], LINEAR),
        ([4, 3, 1], SIGMOID),
        ([3, 4, 4, 2], LINEAR),
    ])
    @pytest.mark.parametrize("rows", [1, 2, 64])
    def test_mlp_backward(self, dims, acts, rows):
        """With every special value: the linear layer's gradient passes
        through without ones_like, and the bias gradient is the product's
        row of ones. Summed inside the product, NaNs may come out with
        another payload."""
        x = nn.with_ones(with_specials((rows, dims[0]), 3))
        upstream = with_specials((rows, dims[-1]), 4, scale=2.0)
        shipped, reference = [make_mlp("m", dims, seed=5, **acts)
                              for _ in range(2)]
        with np.errstate(all="ignore"):
            shipped.forward(x)
            reference.forward(x)
            dx = shipped.backward(upstream)
            want_dx = ref.mlp_backward(reference, upstream)
        assert same_bits_apart_from_nan(dx, want_dx)
        for p, q in zip(shipped.params(), reference.params()):
            assert same_bits_apart_from_nan(p.grad, q.grad), p.name

    @pytest.mark.parametrize("stack, rows", [
        (stack, rows) for stack in BENCH_STACKS for rows in FOLD_ROWS])
    def test_live_columns_same_bits_as_carry_product(self, stack, rows):
        """The output, and every layer's cached input, z and output, ones
        columns included."""
        dims, acts = BENCH_STACKS[stack]
        net = with_random_biases(make_mlp("m", dims, seed=rows, **acts), 1)
        x = nn.with_ones(with_specials((rows, dims[0]), 2, FINITE_SPECIALS))
        out = net.forward(x)
        want, steps = ref.carry_mlp_forward(net, x)
        assert same_bits(out, want)
        for got, wanted in zip(net._cache, steps):
            for a, b in zip(got, wanted):
                assert same_bits(a, b)

    def test_one_output_bias_gradient_is_the_pairwise_sum(self):
        """A one-wide column's bias gradient is np.add.reduce's pairwise
        sum; a row of ones in the product would sum it in order, which
        rounds these 2,000 values differently."""
        net = make_mlp("head", [8, 1], seed=1)
        dz = np.random.default_rng(2).normal(size=(2_000, 1))
        x = nn.with_ones(np.zeros((2_000, 8)))
        nn.dense_backward(net.weights[0], x, dz)
        assert same_bits(net.weights[0].grad[-1], np.add.reduce(dz, axis=0))
        assert not same_bits(net.weights[0].grad[-1], x.T[-1] @ dz)


class TestSoftmaxBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=6)
        dprobs = rng.normal(size=6)
        mask = np.zeros(6)
        probs = nn.masked_softmax(logits, mask)
        analytic = nn.softmax_backward(probs, dprobs)

        def objective():
            return float((nn.masked_softmax(logits, mask) * dprobs).sum())

        fd = numeric_gradient(objective, logits)
        assert relative_error(analytic, fd) < 1e-4


class TestBceLoss:
    def test_half_prediction_is_ln2(self):
        loss, _ = nn.bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_confident_correct_is_near_zero(self):
        loss, _ = nn.bce_loss(np.array([1.0 - 1e-7]), np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_hand_evaluated_batch(self):
        # both terms are -ln(0.9)
        loss, _ = nn.bce_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(-np.log(0.9), rel=1e-10)
        assert loss == pytest.approx(0.10536, abs=5e-6)

    def test_permutation_invariant_and_nonnegative(self):
        rng = np.random.default_rng(3)
        preds = rng.uniform(0.01, 0.99, size=50)
        labels = (rng.random(50) < 0.5).astype(float)
        loss, _ = nn.bce_loss(preds, labels)
        perm = rng.permutation(50)
        loss_p, _ = nn.bce_loss(preds[perm], labels[perm])
        assert loss == pytest.approx(loss_p, rel=1e-12)
        assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        preds = rng.uniform(0.05, 0.95, size=12)
        labels = (rng.random(12) < 0.5).astype(float)
        _, grad = nn.bce_loss(preds, labels)
        fd = numeric_gradient(lambda: nn.bce_loss(preds, labels)[0], preds)
        assert relative_error(grad, fd) < 1e-4

    def test_length_mismatch_is_usage_error(self):
        with pytest.raises(UsageError):
            nn.bce_loss(np.array([0.5, 0.5]), np.array([1.0]))


def ragged_params(seed=0):
    """Params of several shapes, including a scalar and an empty one, with
    nonzero gradients."""
    rng = np.random.default_rng(seed)
    params = [nn.Param(f"p{i}", rng.normal(size=shape))
              for i, shape in enumerate([(3, 4), (5,), (), (0, 2), (2, 2, 3)])]
    for p in params:
        p.grad[...] = rng.normal(size=p.grad.shape)
    return params


class TestParamStore:
    def test_views_share_the_flat_arrays(self):
        params = ragged_params()
        store = nn.ParamStore(params)
        assert store.values.shape == store.grad.shape == (12 + 5 + 1 + 12,)
        for p in params:
            assert p.values.base is store.values
            assert p.grad.base is store.grad
        params[0].values[1, 2] = 42.0
        params[4].grad[...] = 7.0
        assert store.values[6] == 42.0
        assert np.all(store.grad[-12:] == 7.0)
        store.values[12] = -3.0
        assert params[1].values[0] == -3.0

    def test_packing_keeps_shapes_and_bits(self):
        before = ragged_params()
        after = ragged_params()
        store = nn.ParamStore(after)
        assert store.params == after
        for p, q in zip(before, after):
            assert q.values.shape == p.values.shape
            assert q.grad.shape == p.grad.shape
            assert q.values.tobytes() == p.values.tobytes()
            assert q.grad.tobytes() == p.grad.tobytes()
        assert store.values.tobytes() == b"".join(p.values.tobytes()
                                                  for p in before)

    def test_transposed_view_copied_in_c_order(self):
        """A Param made from a transposed view, as a layer weight is, holds
        a C-ordered copy of it, before and after packing."""
        view = np.arange(6.0).reshape(2, 3).T
        p = nn.Param("w", view)
        assert p.values.flags.c_contiguous and p.grad.flags.c_contiguous
        assert p.values.tobytes() == view.tobytes()
        nn.ParamStore([p])
        assert p.values.flags.c_contiguous and p.grad.flags.c_contiguous
        assert p.values.tobytes() == view.tobytes()

    def test_empty(self):
        store = nn.ParamStore([])
        assert store.values.shape == store.grad.shape == (0,)
        nn.sgd_step(store, lr=0.1)

    @pytest.mark.parametrize("entries, named", [
        ([], None), ([11], 0), ([12, 0], 0), ([17], 2), ([18], 4)])
    def test_first_non_finite(self, entries, named):
        """The param holding the lowest non-finite flat entry, past the
        empty p3, or None."""
        params = ragged_params()
        store = nn.ParamStore(params)
        flat = np.zeros_like(store.values)
        flat[entries] = [np.nan, np.inf][:len(entries)]
        assert store.first_non_finite(store.values) is None
        bad = store.first_non_finite(flat)
        assert bad is (None if named is None else params[named])


class TestSgdStep:
    def test_single_step(self):
        p = nn.Param("w", np.array([1.0]))
        p.grad[...] = 0.5
        nn.sgd_step(nn.ParamStore([p]), lr=0.1)
        assert p.values[0] == pytest.approx(0.95)
        assert p.grad[0] == 0.0

    def test_zero_grad_leaves_values(self):
        p = nn.Param("w", np.array([1.0, -2.0]))
        nn.sgd_step(nn.ParamStore([p]), lr=0.3)
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_two_steps_on_quadratic(self):
        # f(w) = w^2, grad 2w; lr 0.25 halves w each step
        p = nn.Param("w", np.array([1.0]))
        store = nn.ParamStore([p])
        for _ in range(2):
            p.grad[...] = 2.0 * p.values
            nn.sgd_step(store, lr=0.25)
        assert p.values[0] == pytest.approx(0.25)

    def test_descends_convex_quadratic(self):
        # f(w) = 0.5 * c * w^2 decreases strictly for lr < 2/c
        c = 4.0
        p = nn.Param("w", np.array([3.0]))
        store = nn.ParamStore([p])
        prev = 0.5 * c * p.values[0] ** 2
        for _ in range(20):
            p.grad[...] = c * p.values
            nn.sgd_step(store, lr=0.4)
            cur = 0.5 * c * p.values[0] ** 2
            assert cur < prev
            prev = cur

    def test_non_finite_grad_is_numeric_error(self):
        p = nn.Param("broken", np.array([1.0]))
        p.grad[...] = np.nan
        with pytest.raises(NumericError, match="broken"):
            nn.sgd_step(nn.ParamStore([p]), lr=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grad_changes_nothing(self, bad):
        """The error names the param holding the bad gradient, and no
        param, the earlier ones included, has been stepped."""
        first = nn.Param("first", np.array([1.0, 2.0]))
        second = nn.Param("second", np.array([[3.0], [4.0]]))
        first.grad[...] = 0.5
        second.grad[1, 0] = bad
        store = nn.ParamStore([first, second])
        with pytest.raises(NumericError, match="'second'"):
            nn.sgd_step(store, lr=0.1)
        np.testing.assert_array_equal(first.values, [1.0, 2.0])
        np.testing.assert_array_equal(first.grad, [0.5, 0.5])
        np.testing.assert_array_equal(second.values, [[3.0], [4.0]])

    @pytest.mark.parametrize("i,entry", [(0, (0, 0)), (1, (4,)), (2, ()),
                                         (4, (0, 0, 0)), (4, (1, 1, 2))])
    def test_error_names_the_first_bad_param(self, i, entry):
        """The first and last entries of params around the empty p3."""
        params = ragged_params()
        params[i].grad[entry] = np.nan
        params[4].grad[1, 1, 2] = np.inf
        with pytest.raises(NumericError, match=f"'p{i}'"):
            nn.sgd_step(nn.ParamStore(params), lr=0.1)

    def test_same_bits_as_per_param_loop(self):
        def steps(step):
            params = ragged_params(seed=3)
            store = nn.ParamStore(params)
            rng = np.random.default_rng(4)
            for lr in (0.1, 0.37, 1e-3):
                for p in params:
                    p.grad[...] += rng.normal(size=p.grad.shape)
                step(store, lr)
                assert not store.grad.any()
            return store.values.tobytes()

        assert steps(nn.sgd_step) == steps(ref.loop_sgd_step)

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            nn.sgd_step(nn.ParamStore([]), lr=0.0)

    def test_nan_lr_changes_nothing(self):
        """``lr <= 0`` is false for NaN; the check refuses it too, before
        the step turns every value into NaN."""
        p = nn.Param("w", np.ones(3))
        p.grad[...] = 1.0
        with pytest.raises(
                ConfigError,
                match=r"^learning rate must be a finite number, got nan$"):
            nn.sgd_step(nn.ParamStore([p]), lr=float("nan"))
        assert same_bits(p.values, np.ones(3))

    @pytest.mark.parametrize("lr", [float("inf"), np.float64(-np.inf), True])
    def test_lr_that_is_not_a_finite_number_changes_nothing(self, lr):
        """An infinite rate would turn a zero gradient into NaN and the
        others into infinities; a bool is not a rate."""
        p = nn.Param("w", np.ones(3))
        p.grad[...] = [0.0, 1.0, -1.0]
        with pytest.raises(ConfigError) as err:
            nn.sgd_step(nn.ParamStore([p]), lr=lr)
        assert str(err.value) == (
            f"learning rate must be a finite number, got {lr!r}")
        assert same_bits(p.values, np.ones(3))
