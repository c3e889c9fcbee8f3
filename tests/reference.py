"""Reference arithmetic the tests compare the package against, each piece
written once: the expressions and loops the shipped code replaced, whose
bits it keeps, and the (out, in) weight layout it agrees with to rounding."""

import numpy as np

from ctrlab import data, nn
from ctrlab import prototype as proto
from ctrlab.errors import ConfigError, NumericError, UsageError


def dense_weight(w, layout="in_out"):
    """A folded (fan_in + 1, fan_out) weight's (fan_in, fan_out) rows,
    C-ordered, or with ``layout="out_in"`` the transpose of a C-ordered
    (fan_out, fan_in) copy: the products then read it as the (out, in)
    formulas ``a @ W.T`` and ``dz @ W`` do."""
    rows = w.values[:-1]
    return (np.ascontiguousarray(rows.T).T if layout == "out_in"
            else np.ascontiguousarray(rows))


def with_carry(w):
    """A hidden layer's weight as an earlier layout stored it: ``w``'s
    (fan_in + 1, fan_out) values and one more column, [0, ..., 0, 1],
    which copies the input's ones column into the product's last column."""
    carry = np.zeros((len(w.values), w.values.shape[1] + 1))
    carry[:, :-1] = w.values
    carry[-1, -1] = 1.0
    return carry


def carry_mlp_forward(net, x):
    """Reference ``Mlp.forward`` of the carry layout: each hidden layer's
    one product by its weight ``with_carry``, the last layer's by its
    weight, and ReLU in place. Returns the output and the list of each
    layer's (input, z, output), as ``Mlp.forward`` caches them."""
    steps, a = [], x
    for i, (w, act) in enumerate(zip(net.weights, net.activations)):
        z = a @ (w.values if i == len(net.weights) - 1 else with_carry(w))
        a_next = nn._activate(act, z)
        steps.append((a, z, a_next))
        a = a_next
    return a, steps


def mlp_forward(net, x, cache=True, layout="in_out"):
    """Reference ``Mlp.forward`` with a separate bias: ``x``'s ones column
    left out, each layer's bias added after the product of its weight
    (``dense_weight``). With ``cache`` it keeps, as ``Mlp.forward`` does,
    each layer's input beside a ones column, z and output."""
    steps, a = [], np.ascontiguousarray(x[:, :-1])
    for w, act in zip(net.weights, net.activations):
        z = a @ dense_weight(w, layout)
        z += w.values[-1]
        a_next = (np.maximum(z, 0.0) if act == "relu"
                  else 1.0 / (1.0 + np.exp(-z)) if act == "sigmoid" else z)
        steps.append((nn.with_ones(a), z, a_next))
        a = a_next
    if cache:
        net._cache = steps
    return a


def mlp_backward(net, upstream, layout="in_out"):
    """Reference ``Mlp.backward`` after either forward: a linear layer's
    gradient multiplied by np.ones_like(z), each layer's weight gradient
    from its input without the ones column, its bias gradient by
    ndarray.sum and its input gradient by the transposed weight. A hidden
    layer's z and output are read without ``Mlp.forward``'s ones column."""
    da = np.asarray(upstream, dtype=np.float64)
    for (x, z, a), w, act, out in zip(reversed(net._cache),
                                      reversed(net.weights),
                                      reversed(net.activations),
                                      reversed(net.dims[1:])):
        z, a = z[:, :out], a[:, :out]
        dz = da * ((z > 0.0) if act == "relu" else a * (1.0 - a)
                   if act == "sigmoid" else np.ones_like(z))
        w.grad[:-1] += np.ascontiguousarray(x[:, :-1]).T @ dz
        w.grad[-1] += dz.sum(axis=0)
        da = dz @ dense_weight(w, layout).T
    net._cache = None
    return da


def domain_pass(net, features, d, masks, dpreds, dh_extra, layout="in_out"):
    """Reference ``Backbone.forward_domain`` and ``backward_domain`` of one
    batch: the per-field embedding and its gradient, every dense layer by
    ``mlp_forward`` and ``mlp_backward`` in ``layout``, the mixture summed
    from zeros, and zeros_like and ndarray.sum for the gate sums. Returns
    (preds, h); the gradients accumulate on ``net``'s params."""
    x = loop_embed(net, features)
    gate = loop_masked_softmax(mlp_forward(net.gates[d], x, layout=layout),
                               masks[d])
    outs = {i: mlp_forward(net.experts[i], x, layout=layout)
            for i in np.flatnonzero(masks[d] == 0.0)}
    h = np.zeros((len(x), net.repr_dim))
    for i, out in outs.items():
        h += gate[:, i:i + 1] * out
    preds = mlp_forward(net.towers[d], nn.with_ones(h), layout=layout)
    dh = mlp_backward(net.towers[d], np.asarray(dpreds).reshape(-1, 1),
                      layout) + dh_extra
    dgate = np.zeros_like(gate)
    dx = np.zeros_like(x[:, :-1])
    for i, out in outs.items():
        dgate[:, i] = (out * dh).sum(axis=1)
        dx += mlp_backward(net.experts[i], gate[:, i:i + 1] * dh, layout)
    dx += mlp_backward(net.gates[d], wrapper_softmax_backward(gate, dgate),
                       layout)
    loop_embed_backward(net, features, dx)
    return preds.ravel(), h


def loop_embed(net, features):
    """Reference ``Backbone.embed``: one gather per field, concatenated
    with a column of ones."""
    features = np.asarray(features, dtype=np.int64)
    tables = np.split(net.embedding.values, np.cumsum(net.vocab_sizes)[:-1])
    pieces = [table[features[:, j]] for j, table in enumerate(tables)]
    return np.concatenate(pieces + [np.ones((len(features), 1))], axis=1)


def loop_embed_backward(net, features, dx):
    """Reference ``Backbone._embed_backward``: one 2-D np.add.at per field."""
    grads = np.split(net.embedding.grad, np.cumsum(net.vocab_sizes)[:-1])
    for j, grad in enumerate(grads):
        sl = dx[:, j * net.embed_dim:(j + 1) * net.embed_dim]
        np.add.at(grad, features[:, j], sl)


def loop_masked_softmax(logits, mask):
    """Reference ``masked_softmax`` arithmetic, row maximum by max(axis=-1)."""
    shifted = np.asarray(logits, dtype=np.float64) + mask
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def wrapper_softmax_backward(probs, dprobs):
    """Reference ``softmax_backward`` with the row sums by ndarray.sum."""
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def loop_activate_grad(tag, z, a):
    """Reference activation gradients, ReLU's as a float np.where."""
    if tag == "relu":
        return np.where(z > 0.0, 1.0, 0.0)
    if tag == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


def loop_sgd_step(store, lr):
    """Reference ``sgd_step``: one finiteness check and update per Param."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    for p in store.params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in parameter {p.name!r}")
        p.values -= lr * p.grad
        p.grad[...] = 0.0


def loop_draw_domain(sampler, d):
    """Reference ``QuotaSampler._draw_domain``: one sample per loop pass,
    drawing a fresh permutation when the cursor reaches its end and, when
    the domain holds at least its quota, swapping a sample the batch
    already took with the next one it did not. Returns the indices and the
    number of swaps."""
    n, quota = len(sampler.datas[d]), sampler.quotas[d]
    taken = []
    taken_set = set()
    swaps = 0
    dedup = n >= quota
    for _ in range(quota):
        if sampler._cursors[d] == n:
            sampler._perms[d] = sampler.rng.permutation(n)
            sampler._cursors[d] = 0
        perm, cur = sampler._perms[d], sampler._cursors[d]
        if dedup and perm[cur] in taken_set:
            j = cur + 1
            while j < n and perm[j] in taken_set:
                j += 1
            if j < n:
                perm[cur], perm[j] = perm[j], perm[cur]
                swaps += 1
        taken.append(perm[cur])
        taken_set.add(int(perm[cur]))
        sampler._cursors[d] += 1
    return np.array(taken, dtype=np.int64), swaps


class LoopSampler(data.QuotaSampler):
    """Reference sampler: draws each sample in ``loop_draw_domain``.

    Counts the de-duplication swaps it makes, so a test can show that its
    case really exercises them.
    """

    def __init__(self, datas, quotas, rng):
        super().__init__(datas, quotas, rng)
        self.swaps = 0

    def _draw_domain(self, d: int) -> np.ndarray:
        taken, swaps = loop_draw_domain(self, d)
        self.swaps += swaps
        return taken


def loop_average_ranks(scores: np.ndarray) -> np.ndarray:
    """Reference tie-averaged ranks: one Python pass over the sorted rows."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=float)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def loop_auc(scores, labels) -> float:
    """Reference ``auc``: the loop's tie-averaged ranks, summed over the
    positives as floats."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    rank_sum = loop_average_ranks(scores)[labels == 1.0].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def lexsort_order(h):
    """Stable lexicographic row order: np.lexsort over every column, the
    first column the primary key."""
    return np.lexsort(h.T[::-1])


def domain_distance(protos_a, protos_b):
    """Reference distance of one ordered pair: the mean over source
    prototypes of the nearest-target-prototype distance."""
    protos_a, protos_b = proto._protoset(protos_a), proto._protoset(protos_b)
    proto._check_dims(protos_a, protos_b)
    diff = protos_a[:, None, :] - protos_b[None, :, :]
    sq = np.add.reduce(diff * diff, axis=2)
    nearest = np.sqrt(sq.min(axis=1))
    return float(np.add.reduce(nearest) / nearest.size)


def loop_distance_matrix(protosets):
    """Reference ``distance_matrix``: one ``domain_distance`` per ordered
    pair."""
    d = len(protosets)
    if d < 2:
        raise UsageError(f"need at least 2 domains, got {d}")
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = domain_distance(protosets[i], protosets[j])
    return out
