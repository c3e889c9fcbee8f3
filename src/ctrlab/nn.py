"""Dense feed-forward substrate with hand-written backpropagation.

Everything is float64 and deterministic: weights come from an explicit
numpy ``Generator``, gradients accumulate in place, and no global random
state is ever touched.  There is no autograd here on purpose; the
finite-difference helper at the bottom is the independent check that the
manual gradients are right.
"""

import numpy as np

from .errors import ConfigError, MaskError, NumericError, UsageError

# Probabilities are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before any log.
CLAMP_EPS = 1e-7

ACTIVATIONS = ("relu", "sigmoid", "linear")


class Param:
    """A named tensor plus an accumulated gradient of identical shape."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.values = np.array(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.values.shape})"


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _activate(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _activate_grad(tag: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return np.where(z > 0.0, 1.0, 0.0)
    if tag == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


class Mlp:
    """A stack of affine layers, each tagged relu / sigmoid / linear.

    ``forward`` caches intermediates; ``backward`` consumes the cache,
    accumulates parameter gradients and returns the input gradient.
    Inputs are row batches of shape (batch, in_dim).
    """

    def __init__(self, name: str, weights: list[Param], biases: list[Param],
                 activations: list[str]):
        if not (len(weights) == len(biases) == len(activations)):
            raise ConfigError(f"{name}: layer lists must align")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ConfigError(f"{name}: unknown activation {act!r}")
        for i in range(1, len(weights)):
            if weights[i].values.shape[1] != weights[i - 1].values.shape[0]:
                raise ConfigError(f"{name}: layer {i} input dim "
                                  f"{weights[i].values.shape[1]} does not chain")
        self.name = name
        self.weights = weights
        self.biases = biases
        self.activations = activations
        self._cache = None

    @classmethod
    def build(cls, name: str, dims: list[int], activations: list[str],
              rng: np.random.Generator) -> "Mlp":
        """Create a net with the given size chain; biases start at zero."""
        if len(dims) != len(activations) + 1:
            raise ConfigError(f"{name}: need {len(dims) - 1} activation tags")
        weights, biases = [], []
        for i in range(len(dims) - 1):
            weights.append(Param(f"{name}.l{i}.w",
                                 uniform_init(rng, (dims[i + 1], dims[i]), dims[i])))
            biases.append(Param(f"{name}.l{i}.b", np.zeros(dims[i + 1])))
        return cls(name, weights, biases, list(activations))

    @property
    def in_dim(self) -> int:
        return self.weights[0].values.shape[1]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ConfigError(f"{self.name}: expected input of shape (batch, "
                              f"{self.in_dim}), got {x.shape}")
        steps = []
        a = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = a @ w.values.T + b.values
            a_next = _activate(act, z)
            if cache:
                steps.append((a, z, a_next))
            a = a_next
        self._cache = steps if cache else None
        return a

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise UsageError(f"{self.name}: backward called without a cached forward")
        da = np.asarray(upstream, dtype=np.float64)
        for (x, z, a), w, b, act in zip(reversed(self._cache),
                                        reversed(self.weights),
                                        reversed(self.biases),
                                        reversed(self.activations)):
            dz = da * _activate_grad(act, z, a)
            w.grad += dz.T @ x
            b.grad += dz.sum(axis=0)
            da = dz @ w.values
        self._cache = None
        return da

    def params(self) -> list[Param]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax of ``logits + mask`` where mask entries are 0 or -inf.

    Positions masked with -inf come out exactly 0.  With an all-zero mask
    this is the plain softmax, bit for bit, because the code path is
    identical.  Accepts a single vector or a (batch, n) matrix of logits;
    the mask is one vector broadcast over the batch.
    """
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
    shifted = logits + mask
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given softmax output and its gradient.

    Exactly-zero probabilities (masked positions) yield exactly-zero
    logit gradients, so masking needs no special casing downstream.
    """
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def bce_loss(preds: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. ``preds``.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the log; the clamp
    is treated as a pass-through in the backward direction.
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise UsageError(f"preds {preds.shape} and labels {labels.shape} differ")
    if preds.size == 0:
        raise UsageError("empty prediction batch")
    p = np.clip(preds, CLAMP_EPS, 1.0 - CLAMP_EPS)
    loss = float(np.mean(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))))
    grad = (p - labels) / (p * (1.0 - p)) / preds.size
    return loss, grad


def sgd_step(params: list[Param], lr: float) -> None:
    """Plain gradient descent; zeroes every gradient afterwards."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        p.values -= lr * p.grad
        p.zero_grad()


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
