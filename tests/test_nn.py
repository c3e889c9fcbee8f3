import numpy as np
import pytest

from ctrlab import nn
from ctrlab.errors import ConfigError, MaskError, NumericError, UsageError


def relative_error(a, b, floor=1e-4):
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


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
            fd = nn.numeric_gradient(objective, p.values, eps=1e-5)
            assert relative_error(p.grad, fd) < 1e-4, p.name
            p.zero_grad()


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

        fd = nn.numeric_gradient(objective, logits)
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
        fd = nn.numeric_gradient(lambda: nn.bce_loss(preds, labels)[0], preds)
        assert relative_error(grad, fd) < 1e-4

    def test_length_mismatch_is_usage_error(self):
        with pytest.raises(UsageError):
            nn.bce_loss(np.array([0.5, 0.5]), np.array([1.0]))


class TestSgdStep:
    def test_single_step(self):
        p = nn.Param("w", np.array([1.0]))
        p.grad[...] = 0.5
        nn.sgd_step([p], lr=0.1)
        assert p.values[0] == pytest.approx(0.95)
        assert p.grad[0] == 0.0

    def test_zero_grad_leaves_values(self):
        p = nn.Param("w", np.array([1.0, -2.0]))
        nn.sgd_step([p], lr=0.3)
        np.testing.assert_array_equal(p.values, [1.0, -2.0])

    def test_two_steps_on_quadratic(self):
        # f(w) = w^2, grad 2w; lr 0.25 halves w each step
        p = nn.Param("w", np.array([1.0]))
        for _ in range(2):
            p.grad[...] = 2.0 * p.values
            nn.sgd_step([p], lr=0.25)
        assert p.values[0] == pytest.approx(0.25)

    def test_descends_convex_quadratic(self):
        # f(w) = 0.5 * c * w^2 decreases strictly for lr < 2/c
        c = 4.0
        p = nn.Param("w", np.array([3.0]))
        prev = 0.5 * c * p.values[0] ** 2
        for _ in range(20):
            p.grad[...] = c * p.values
            nn.sgd_step([p], lr=0.4)
            cur = 0.5 * c * p.values[0] ** 2
            assert cur < prev
            prev = cur

    def test_non_finite_grad_is_numeric_error(self):
        p = nn.Param("broken", np.array([1.0]))
        p.grad[...] = np.nan
        with pytest.raises(NumericError, match="broken"):
            nn.sgd_step([p], lr=0.1)

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            nn.sgd_step([], lr=0.0)
