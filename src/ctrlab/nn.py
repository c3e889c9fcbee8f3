"""Dense feed-forward substrate with hand-written backpropagation.

Everything is float64 and deterministic: weights come from an explicit
numpy ``Generator``, gradients accumulate in place, and no global random
state is ever touched. A dense layer stores its weight input-major, as a
C-contiguous (fan_in, fan_out) array, so the forward is ``a @ w`` over
contiguous weights. A ``ParamStore`` packs a run's parameters into one
flat values array and one flat gradient array, so the SGD step is one
array operation over all of them. ``bce_terms`` owns the log-loss: the
training loss and ``metrics.logloss`` average its clamped per-row terms.
There is no autograd here on purpose; the tests check the manual
gradients against central finite differences.
"""

import numpy as np

from .errors import ConfigError, MaskError, NumericError, UsageError

# Probabilities are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before any log.
CLAMP_EPS = 1e-7

ACTIVATIONS = ("relu", "sigmoid", "linear")


class Param:
    """A named tensor plus an accumulated gradient of identical shape.

    ``values`` is a C-ordered copy, also of a transposed view, so a layer
    weight outside a ``ParamStore`` keeps the contiguous layout as well.
    """

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.values = np.array(values, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.values)

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.values.shape})"


class ParamStore:
    """Params' values and gradients packed into one flat array each.

    ``values`` and ``grad`` concatenate the params' values and gradients,
    in list order; each Param's ``values`` and ``grad`` is rebound to a
    reshaped view of its slice, so writes through either side are seen by
    the other. A Param whose ``values`` or ``grad`` is rebound after
    packing is no longer trained: the store keeps stepping the old slice.
    """

    def __init__(self, params):
        self.params = list(params)
        sizes = [p.values.size for p in self.params]
        # One past the last flat entry of each param.
        self._ends = np.cumsum(sizes, dtype=np.int64)
        self.values = np.empty(sum(sizes))
        self.grad = np.empty(sum(sizes))
        for p, stop, size in zip(self.params, self._ends, sizes):
            flat = slice(stop - size, stop)
            self.values[flat] = p.values.ravel()
            self.grad[flat] = p.grad.ravel()
            p.values = self.values[flat].reshape(p.values.shape)
            p.grad = self.grad[flat].reshape(p.grad.shape)


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _activate(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "relu":
        # In place: the caller passes a fresh z, and backward reads a
        # ReLU layer's z only as z > 0, which max(z, 0) leaves unchanged.
        return np.maximum(z, 0.0, out=z)
    if tag == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def _activate_grad(tag: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The activation's derivative at ``z``, for a relu or sigmoid layer.

    A linear layer has none: its derivative is 1, and ``backward`` passes
    the upstream gradient through unchanged instead of multiplying by ones.
    """
    if tag == "relu":
        # A bool array: multiplying by True/False is multiplying by 1.0/0.0.
        return z > 0.0
    return a * (1.0 - a)


class Mlp:
    """A stack of affine layers, each tagged relu / sigmoid / linear.

    Layer i maps ``dims[i]`` to ``dims[i + 1]``. Its weight is
    (dims[i], dims[i + 1]), the transpose of a (dims[i + 1], dims[i]) draw
    from ``rng`` in layer order, and its bias starts at zero. ``forward``
    caches intermediates unless told not to; ``backward`` consumes the
    cache, accumulates parameter gradients and returns the input gradient.
    Inputs are row batches of shape (batch, dims[0]).
    """

    def __init__(self, name: str, dims: list[int], activations: list[str],
                 rng: np.random.Generator):
        if len(dims) != len(activations) + 1:
            raise ConfigError(f"{name}: need {len(dims) - 1} activation tags")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ConfigError(f"{name}: unknown activation {act!r}")
        self.name = name
        self.weights = [
            Param(f"{name}.l{i}.w",
                  uniform_init(rng, (dims[i + 1], dims[i]), dims[i]).T)
            for i in range(len(dims) - 1)]
        self.biases = [Param(f"{name}.l{i}.b", np.zeros(dims[i + 1]))
                       for i in range(len(dims) - 1)]
        self.activations = list(activations)
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """The net's output for a row batch ``x``.

        Each layer adds its bias and applies ReLU in place on the fresh
        product. With ``cache`` the layers' inputs and pre-activations are
        kept for ``backward``. Without it nothing is kept, a cache left by
        an earlier forward stays as it is, and the returned array is new
        and the caller's to modify.
        """
        x = np.asarray(x, dtype=np.float64)
        in_dim = self.weights[0].values.shape[0]
        if x.ndim != 2 or x.shape[1] != in_dim:
            raise ConfigError(f"{self.name}: expected input of shape (batch, "
                              f"{in_dim}), got {x.shape}")
        steps = []
        a = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = a @ w.values
            z += b.values
            a_next = _activate(act, z)
            if cache:
                steps.append((a, z, a_next))
            a = a_next
        if cache:
            self._cache = steps
        return a

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise UsageError(f"{self.name}: backward called without a cached forward")
        da = np.asarray(upstream, dtype=np.float64)
        for (x, z, a), w, b, act in zip(reversed(self._cache),
                                        reversed(self.weights),
                                        reversed(self.biases),
                                        reversed(self.activations)):
            dz = da if act == "linear" else da * _activate_grad(act, z, a)
            w.grad += x.T @ dz
            b.grad += np.add.reduce(dz, axis=0)
            da = dz @ w.values.T
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

    Positions masked with -inf come out exactly +0.0, and their logits are
    never read: the row maximum and ``exp`` run over the active columns
    only, into a zero-filled full-width array that the row sum and the
    divide then cover. numpy adds that array's rows in the same order as
    it would the exponentials of every column, so the result has the same
    bits. With an all-zero mask this is the plain softmax, bit for bit.
    Accepts a single vector or a (batch, n) matrix of logits; the mask is
    one vector broadcast over the batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 1 or mask.shape[0] != logits.shape[-1]:
        raise UsageError(f"mask of shape {mask.shape} does not match logits "
                         f"{logits.shape}")
    valid = mask == 0.0
    if not (valid | (mask == -np.inf)).all():
        raise UsageError("mask entries must be 0 or -inf")
    if not valid.any():
        raise MaskError("degenerate mask: every position is masked")
    active = valid.nonzero()[0]
    # The row maximum, one active column at a time: over a gate's few
    # experts and a batch of rows, np.maximum per column is several times
    # faster than max(axis=-1). Measured with numpy 2.4 on a 2-vCPU x86_64
    # host, it is slower below about 16 rows per column and gains little
    # or loses above 16 columns; the benchmark's gates have 8 columns and
    # 128 or more rows, so it checks only that side. Only the sign of a
    # zero maximum can differ, and subtracting either zero gives values
    # that exp maps to the same bits.
    top = logits[..., active[0]].copy()
    for k in active[1:]:
        np.maximum(top, logits[..., k], out=top)
    # Indexing the last axis with an array gives a column-major copy, whose
    # row sums numpy would add in another order. The copy is shifted and
    # exponentiated in place and written into the C-ordered full-width
    # array, whose row sums (np.add.reduce, the loop ndarray.sum runs)
    # keep the order of a plain softmax.
    probs = np.zeros(logits.shape)
    shifted = logits[..., active]
    shifted -= top[..., None]
    probs[..., active] = np.exp(shifted, out=shifted)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return probs


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given softmax output and its gradient.

    Exactly-zero probabilities (masked positions) yield exactly-zero
    logit gradients, so masking needs no special casing downstream.
    """
    inner = np.add.reduce(dprobs * probs, axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def bce_terms(preds: np.ndarray, labels: np.ndarray) -> tuple:
    """(p, terms) for float64 arrays of one shape: ``preds`` clamped to
    [CLAMP_EPS, 1 - CLAMP_EPS], and each row's binary cross-entropy at p.
    """
    p = np.minimum(np.maximum(preds, CLAMP_EPS), 1.0 - CLAMP_EPS)
    terms = labels * np.log(p)
    terms += (1.0 - labels) * np.log(1.0 - p)
    return p, np.negative(terms, out=terms)


def bce_loss(preds: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. ``preds``.

    The clamp of ``bce_terms`` is treated as a pass-through in the
    backward direction.
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise UsageError(f"preds {preds.shape} and labels {labels.shape} differ")
    if preds.size == 0:
        raise UsageError("empty prediction batch")
    p, terms = bce_terms(preds, labels)
    loss = float(np.add.reduce(terms, axis=None) / terms.size)
    grad = (p - labels) / (p * (1.0 - p)) / preds.size
    return loss, grad


def sgd_step(store: ParamStore, lr: float) -> None:
    """Plain gradient descent on every packed param; zeroes the gradients.

    All or nothing: a non-finite gradient anywhere raises NumericError,
    naming the first param that holds one, before any value changes.
    """
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not np.isfinite(store.grad).all():
        first = np.flatnonzero(~np.isfinite(store.grad))[0]
        bad = store.params[np.searchsorted(store._ends, first, side="right")]
        raise NumericError(f"non-finite gradient in parameter {bad.name!r}")
    store.values -= lr * store.grad
    store.grad[...] = 0.0
