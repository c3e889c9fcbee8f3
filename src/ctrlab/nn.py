"""Dense feed-forward substrate with hand-written backpropagation.

Everything is float64 and deterministic: weights come from an explicit
numpy ``Generator``, gradients accumulate in place, and no global random
state is ever touched. An ``Mlp`` has ReLU on every hidden layer and a
linear or logistic last layer, the shapes of the backbone's experts,
gates and towers. Every ``Mlp`` layer has one C-contiguous weight of
shape (fan_in + 1, fan_out), input-major, with the bias as its last
row. Its input carries a trailing column of ones
(``with_ones``; a hidden layer writes its output beside one), so the
forward is the single product ``a @ w``, bias included, and the backward
one ``x.T @ dz`` for the weight and bias rows together
(``dense_backward``).
A ``ParamStore`` packs a run's parameters into one flat values array and
one flat gradient array, so the SGD step is one array operation over all
of them. ``bce_terms`` owns the log-loss: the training loss and
``metrics.logloss`` average its clamped per-row terms. There is no
autograd here on purpose; the tests check the manual gradients against
central finite differences.

Folding the bias in keeps the bits of a separate bias add and reduction
wherever OpenBLAS sums each output along the inner dimension in order with
fused multiply-adds: the last term ``1 * b`` then rounds as ``(x @ w) + b``
does, and a row of ones adds ``dz``'s rows top to bottom, as numpy's
axis-0 reduction does for rows of two or more entries. numpy sums a
one-wide column pairwise, so ``dense_backward`` takes a one-output layer's
bias gradient from ``np.add.reduce``. Which kernel OpenBLAS runs depends on
the shapes. With OpenBLAS 0.3.31 (Haswell kernels) the benchmark's layers
keep every bit up to 2,000 rows (256 for the 64-input ones, whose
gradient a second block sums at 2,000), while, for example, 2 to 4 or 9
outputs over 16 or more inputs, or one output over an odd number of
inputs, round some sums differently in the last bit. A hidden layer's
product covers only its live columns, where an earlier layout added a
stored column [0, ..., 0, 1] that copied the ones on. At 8 or 16 live
columns the two agree bit for bit (3 to 129 inputs, 1 to 2,000 rows), but
not at every width: of the unit tests' small runs, those with hidden
widths (4, 4), (12, 7) or (1, 1) change, and (3, 5), (2, 9) or (16, 16)
do not.
"""

import numpy as np

from .data import as_int, as_list
from .errors import ConfigError, MaskError, NumericError, UsageError

# Probabilities are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before any log.
CLAMP_EPS = 1e-7


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

    def first_non_finite(self, flat: np.ndarray):
        """The param holding the first non-finite entry of ``flat``, an
        array laid out as ``values`` is, or None if every entry is finite."""
        if np.isfinite(flat).all():
            return None
        first = np.flatnonzero(~np.isfinite(flat))[0]
        return self.params[np.searchsorted(self._ends, first, side="right")]


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def with_ones(a: np.ndarray) -> np.ndarray:
    """A new C-ordered copy of the row batch ``a`` with a trailing column of
    ones: the input of a dense layer whose last weight row is its bias."""
    out = np.empty((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = a
    out[:, -1] = 1.0
    return out


def dense_backward(w: Param, x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The backward of one ``Mlp`` layer, the only kind of dense layer: add
    ``x.T @ dz`` to ``w``'s gradient, bias row included, and return the
    input gradient against the weight rows alone, ``x``'s ones column left
    out.

    The input gradient multiplies by a C-contiguous copy of the transposed
    weight rows: the bits of the product by the transposed view, which
    OpenBLAS runs several times slower. A single row is the exception:
    numpy then runs a matrix-vector product, whose two layouts sum in
    different orders, so it keeps the view. A one-wide ``dz``'s bias
    gradient is ``np.add.reduce``'s pairwise sum, the separate reduction's
    bits.
    """
    grad = x.T @ dz
    if dz.shape[1] == 1:
        grad[-1] = np.add.reduce(dz, axis=0)
    w.grad += grad
    rows = w.values[:-1].T
    return dz @ (rows if len(dz) == 1 else np.ascontiguousarray(rows))


class Mlp:
    """A stack of dense layers: ReLU on every hidden layer, and a linear
    last layer, or a logistic one with ``sigmoid``.

    Layer i maps ``dims[i]`` inputs plus a ones column to ``dims[i + 1]``
    outputs through one (dims[i] + 1, dims[i + 1]) weight. Its weight rows
    are the transpose of a (dims[i + 1], dims[i]) draw from ``rng`` in
    layer order, and its last row, the bias, starts at zero. A hidden
    layer writes its product beside a ones column, the next layer's input,
    and ReLU keeps that 1. Inputs are row batches of shape
    (batch, dims[0] + 1) whose last column is ones (``with_ones``).
    ``forward`` caches intermediates unless told not to; ``backward``
    consumes the cache, accumulates the weights' gradients and returns the
    gradient of the input's first dims[0] columns. ``dims`` is a list
    (``as_list``) of at least two integers >= 1 (``as_int``); anything
    else raises a ConfigError that names the net.
    """

    def __init__(self, name: str, dims: list[int], rng: np.random.Generator,
                 sigmoid: bool = False):
        self.name = name
        dims = as_list(dims, f"{name}: dims")
        self.dims = dims = [as_int(n, f"{name}: dims[{i}]", minimum=1)
                            for i, n in enumerate(dims)]
        if len(dims) < 2:
            raise ConfigError(f"{name}: dims needs at least 2 entries, "
                              f"got {dims}")
        self.sigmoid = sigmoid
        self.weights = []
        for i in range(len(dims) - 1):
            w = np.zeros((dims[i] + 1, dims[i + 1]))
            w[:-1] = uniform_init(rng, (dims[i + 1], dims[i]), dims[i]).T
            self.weights.append(Param(f"{name}.l{i}.w", w))
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """The net's output for a row batch ``x`` with its ones column.

        Each layer is one product, bias included. A hidden layer's product
        goes into the first columns of a new array whose last column is
        ones, and ReLU is applied to it in place. With ``cache`` each
        layer's input, product and output are kept for ``backward``.
        Without it nothing is kept, a cache left by an earlier forward
        stays as it is, and the returned array is new and the caller's to
        modify.
        """
        x = np.asarray(x, dtype=np.float64)
        in_dim = self.dims[0] + 1
        if x.ndim != 2 or x.shape[1] != in_dim:
            raise ConfigError(f"{self.name}: expected input of shape (batch, "
                              f"{in_dim}) with a ones column, got {x.shape}")
        steps = []
        a = x
        for w in self.weights[:-1]:
            z = np.empty((len(a), w.values.shape[1] + 1))
            z[:, -1] = 1.0
            np.matmul(a, w.values, out=z[:, :-1])
            # In place: backward reads a hidden layer's z only as z > 0,
            # which max(z, 0) leaves unchanged.
            np.maximum(z, 0.0, out=z)
            if cache:
                steps.append((a, z, z))
            a = z
        z = a @ self.weights[-1].values
        out = 1.0 / (1.0 + np.exp(-z)) if self.sigmoid else z
        if cache:
            steps.append((a, z, out))
            self._cache = steps
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise UsageError(f"{self.name}: backward called without a cached forward")
        da = np.asarray(upstream, dtype=np.float64)
        (x, _, a), *hidden = reversed(self._cache)
        dz = da * (a * (1.0 - a)) if self.sigmoid else da
        da = dense_backward(self.weights[-1], x, dz)
        for (x, z, _), w in zip(hidden, reversed(self.weights[:-1])):
            # ReLU's derivative as a bool array: multiplying by True/False
            # is multiplying by 1.0/0.0. dz leaves the ones column out, so
            # it gets no gradient.
            da = dense_backward(w, x, da * (z[:, :-1] > 0.0))
        self._cache = None
        return da

    def params(self) -> list[Param]:
        return list(self.weights)


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
    # Indexing the last axis with an array gives a column-major copy, whose
    # row sums numpy would add in another order. The copy is shifted and
    # exponentiated in place and written into the C-ordered full-width
    # array, whose row sums (np.add.reduce, the loop ndarray.sum runs)
    # keep the order of a plain softmax.
    probs = np.zeros(logits.shape)
    shifted = logits[..., active]
    shifted -= shifted.max(axis=-1, keepdims=True)
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
    if not lr > 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    bad = store.first_non_finite(store.grad)
    if bad is not None:
        raise NumericError(f"non-finite gradient in parameter {bad.name!r}")
    store.values -= lr * store.grad
    store.grad[...] = 0.0
