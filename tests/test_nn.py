import numpy as np
import pytest

from ctrlab import nn
from ctrlab.errors import (ConfigError, LabError, MaskError, NumericError,
                           UsageError)


def loop_masked_softmax(logits, mask):
    """Reference ``masked_softmax`` arithmetic, row maximum by max(axis=-1)."""
    shifted = np.asarray(logits, dtype=np.float64) + mask
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loop_activate_grad(tag, z, a):
    """Reference activation gradients, ReLU's as a float np.where."""
    if tag == "relu":
        return np.where(z > 0.0, 1.0, 0.0)
    if tag == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


# The largest subnormal float64.
MAX_SUBNORMAL = np.nextafter(np.finfo(np.float64).tiny, 0.0)
# Signed zeros, the smallest and largest subnormals, infinities and NaN.
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, MAX_SUBNORMAL,
                           np.inf, -np.inf, np.nan])


def with_specials(shape, seed, values=SPECIAL_VALUES, scale=1.0, loc=0.0):
    """Normal draws of ``shape`` with ``values`` written over a third of the
    entries, each value at least once when the array is large enough."""
    rng = np.random.default_rng(seed)
    out = rng.normal(loc=loc, scale=scale, size=shape)
    flat = out.reshape(-1)
    spots = rng.permutation(flat.size)[:max(1, flat.size // 3)]
    flat[spots] = np.resize(values, spots.size)
    return out


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: NaN payloads and zero signs count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def wrapper_bce_loss(preds, labels):
    """Reference ``bce_loss`` arithmetic through np.clip and np.mean."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    p = np.clip(preds, nn.CLAMP_EPS, 1.0 - nn.CLAMP_EPS)
    loss = float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))))
    grad = (p - labels) / (p * (1.0 - p)) / preds.size
    return loss, grad


def wrapper_mlp_backward(net, upstream):
    """Reference ``Mlp.backward``: a linear layer's gradient multiplied by
    np.ones_like(z), the bias gradient by ndarray.sum."""
    da = np.asarray(upstream, dtype=np.float64)
    for (x, z, a), w, b, act in zip(reversed(net._cache),
                                    reversed(net.weights),
                                    reversed(net.biases),
                                    reversed(net.activations)):
        if act == "relu":
            dz = da * (z > 0.0)
        elif act == "sigmoid":
            dz = da * (a * (1.0 - a))
        else:
            dz = da * np.ones_like(z)
        w.grad += dz.T @ x
        b.grad += dz.sum(axis=0)
        da = dz @ w.values
    net._cache = None
    return da


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


def wrapper_softmax_backward(probs, dprobs):
    """Reference ``softmax_backward`` with the row sums by ndarray.sum."""
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def loop_sgd_step(store, lr):
    """Reference ``sgd_step``: one finiteness check and update per Param."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    for p in store.params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        p.values -= lr * p.grad
        p.grad[...] = 0.0


def relative_error(a, b, floor=1e-4):
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


def numeric_gradient(f, values: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. every entry of ``values``.

    Mutates ``values`` in place during probing and restores it; used as the
    independent oracle against the hand-written backward passes.
    """
    grad = np.zeros_like(values)
    it = np.nditer(values, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = values[idx]
        values[idx] = orig + eps
        up = f()
        values[idx] = orig - eps
        down = f()
        values[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
        it.iternext()
    return grad


def make_mlp(name, dims, activations, seed=0):
    return nn.Mlp.build(name, dims, activations, np.random.default_rng(seed))


class TestMlpForward:
    def test_identity_weights(self):
        net = make_mlp("id", [2, 2], ["linear"])
        net.weights[0].values = np.eye(2)
        net.biases[0].values = np.zeros(2)
        out = net.forward(np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(out, [[3.0, -1.0]])

    def test_constant_map(self):
        net = make_mlp("const", [3, 1], ["linear"])
        net.weights[0].values[...] = 0.0
        net.biases[0].values = np.array([0.5])
        for x in ([[1.0, 2.0, 3.0]], [[-4.0, 0.0, 9.0]]):
            np.testing.assert_array_equal(net.forward(np.array(x)), [[0.5]])

    def test_hand_evaluated_relu_chain(self):
        # relu(1*3 - 1) * 2 = 4
        net = make_mlp("hand", [1, 1, 1], ["relu", "linear"])
        net.weights[0].values = np.array([[1.0]])
        net.biases[0].values = np.array([-1.0])
        net.weights[1].values = np.array([[2.0]])
        net.biases[1].values = np.array([0.0])
        out = net.forward(np.array([[3.0]]))
        np.testing.assert_allclose(out, [[4.0]])

    def test_dimension_mismatch_is_config_error(self):
        net = make_mlp("bad", [3, 2], ["linear"])
        with pytest.raises(ConfigError):
            net.forward(np.zeros((4, 5)))


class TestMlpBackward:
    def test_linear_param_grad_is_outer_product(self):
        net = make_mlp("lin", [3, 2], ["linear"], seed=3)
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.7, -0.3]])
        net.forward(x)
        net.backward(g)
        np.testing.assert_allclose(net.weights[0].grad, g.T @ x)
        np.testing.assert_allclose(net.biases[0].grad, g.ravel())

    def test_zero_upstream_gives_zero_grads(self):
        net = make_mlp("z", [4, 5, 2], ["relu", "sigmoid"], seed=5)
        net.forward(np.random.default_rng(1).normal(size=(6, 4)))
        net.backward(np.zeros((6, 2)))
        for p in net.params():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_backward_without_forward_is_usage_error(self):
        net = make_mlp("nf", [2, 2], ["linear"])
        with pytest.raises(UsageError):
            net.backward(np.zeros((1, 2)))

    @pytest.mark.parametrize("dims,acts,seed", [
        ([3, 8, 1], ["relu", "sigmoid"], 11),
        ([5, 16, 16, 2], ["relu", "relu", "linear"], 12),
        ([4, 64, 3], ["sigmoid", "linear"], 13),
    ])
    def test_grads_match_finite_differences(self, dims, acts, seed):
        rng = np.random.default_rng(seed)
        net = make_mlp("fd", dims, acts, seed=seed)
        x = rng.normal(size=(7, dims[0]))
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
        assert out.tobytes() == loop_masked_softmax(logits, mask).tobytes()

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
        assert out.tobytes() == loop_masked_softmax(logits, mask).tobytes()
        assert np.signbit(out[..., np.isneginf(mask)]).sum() == 0

    @pytest.mark.parametrize("dims,acts", [
        ([5, 16, 3], ["relu", "linear"]),
        ([3, 8, 1], ["relu", "sigmoid"]),
        ([4, 6, 6, 2], ["sigmoid", "relu", "relu"]),
    ])
    def test_no_cache_forward(self, dims, acts):
        """The no-cache forward has the cached forward's bits, and
        its output is the caller's: writing to it changes no param, no
        input, no pending cache and no later forward."""
        rng = np.random.default_rng(8)
        net = make_mlp("nc", dims, acts, seed=4)
        for p in net.params():
            p.values = p.values + 0.1  # nonzero biases
        x = rng.normal(size=(130, dims[0]))
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
        fresh = make_mlp("nc", dims, acts, seed=4)
        for p, before in zip(fresh.params(), params_before):
            p.values = before
        fresh.forward(x)
        assert dx.tobytes() == fresh.backward(upstream).tobytes()
        for p, q in zip(net.params(), fresh.params()):
            assert p.grad.tobytes() == q.grad.tobytes(), p.name

    def test_relu_gradient(self):
        z = np.array([-2.0, -0.0, 0.0, 5e-324, 3.0, np.nan, np.inf, -np.inf])
        da = np.array([-1.5, -0.0, 0.0, 2.0, np.nan, np.inf, -np.inf])
        z, da = np.meshgrid(z, da)
        a = np.maximum(z, 0.0)
        with np.errstate(invalid="ignore"):  # inf * 0
            shipped = da * nn._activate_grad("relu", z, a)
            reference = da * loop_activate_grad("relu", z, a)
        assert shipped.dtype == np.float64
        assert shipped.tobytes() == reference.tobytes()

    def test_relu_gradient_of_cached_activation(self):
        """A cached ReLU layer keeps max(z, 0), applied in place, as its z;
        the gradient it gives has the bits of the raw z's."""
        z = np.array([-2.0, -0.0, 0.0, 5e-324, 3.0, np.nan, np.inf, -np.inf])
        da = np.array([-1.5, -0.0, 0.0, 2.0, np.nan, np.inf, -np.inf])
        z, da = np.meshgrid(z, da)
        a = nn._activate("relu", z.copy())
        with np.errstate(invalid="ignore"):  # inf * 0
            shipped = da * nn._activate_grad("relu", a, a)
            reference = da * loop_activate_grad("relu", z, np.maximum(z, 0.0))
        assert shipped.tobytes() == reference.tobytes()


class TestSameBitsAsWrapperExpressions:
    """Direct ufunc calls, the identity gradient left out and in-place
    steps give the bits of the numpy-wrapper expressions they replace, on
    inputs holding signed zeros, subnormals, infinities and NaN."""

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

    @pytest.mark.parametrize("dims,acts", [
        ([6, 5, 4], ["relu", "linear"]),
        ([4, 3, 1], ["relu", "sigmoid"]),
        ([3, 4, 4, 2], ["sigmoid", "linear", "relu"]),
    ])
    @pytest.mark.parametrize("rows", [1, 2, 64])
    def test_mlp_backward(self, dims, acts, rows):
        """The linear layer's gradient passes through without ones_like,
        and the bias gradient is np.add.reduce."""
        x = with_specials((rows, dims[0]), 3)
        upstream = with_specials((rows, dims[-1]), 4, scale=2.0)
        shipped = make_mlp("m", dims, acts, seed=5)
        reference = make_mlp("m", dims, acts, seed=5)
        with np.errstate(all="ignore"):
            shipped.forward(x)
            reference.forward(x)
            dx = shipped.backward(upstream)
            want_dx = wrapper_mlp_backward(reference, upstream)
        assert same_bits(dx, want_dx)
        for p, q in zip(shipped.params(), reference.params()):
            assert same_bits(p.grad, q.grad), p.name

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
            want_dlogits = wrapper_softmax_backward(want, dprobs)
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
                         wrapper_softmax_backward(probs, dprobs))

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

    def test_empty(self):
        store = nn.ParamStore([])
        assert store.values.shape == store.grad.shape == (0,)
        nn.sgd_step(store, lr=0.1)


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

        assert steps(nn.sgd_step) == steps(loop_sgd_step)

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            nn.sgd_step(nn.ParamStore([]), lr=0.0)
