"""Mixture-of-experts CTR backbone with per-domain masked mixing.

Layout: a shared embedding table (one Param stacking the per-field tables
in field order) feeds a bank of small expert networks, grouped by owning
domain and concatenated in domain order. Each domain has a gate, a
one-layer linear ``Mlp`` named ``gate.d{d}`` whose logits over the input
are softmaxed across all experts, and a tower mapping the mixed
representation to a click probability. Every dense layer is an ``Mlp``
layer, one (fan_in + 1, fan_out) weight whose last row is the bias (see
``nn``), so every layer's input ends in a ones column: ``embed`` returns
the input with one, built once per domain pass and read by the gate and
every expert; each expert's and tower's hidden layer writes its output
beside one; and the tower reads the mixed representation copied beside
one. A domain's mask is an additive {0, -inf} vector over experts: -inf
entries knock the corresponding experts out of the gate softmax, so
unselected domains' experts receive exactly zero mixing weight and
exactly zero gradient. The mask is added to the raw gate logits before
the softmax; an all-zero mask reproduces the unmasked network bit for
bit.

Masked-out experts are skipped entirely in both directions, which makes the
zero-weight/zero-gradient guarantees structural rather than numerical.

This module turns subsets and expert counts into masks, so it owns their
rules, ``check_subsets`` and ``check_expert_counts``, which ``config`` and
``train`` import from here.
"""

from __future__ import annotations

import numpy as np

from .data import VOCAB_LIMIT, as_int, as_list, feature_indices
from .errors import ConfigError, DataError, NumericError, UsageError
from .nn import (Mlp, Param, masked_softmax, softmax_backward, uniform_init,
                 with_ones)

# Rows per np.take in ``Backbone.embed``: at 64 columns, a 128 KiB gather.
EMBED_CHUNK = 256

__all__ = ["Backbone", "build_mask", "check_expert_counts", "check_subsets",
           "expert_owners"]


def check_expert_counts(expert_counts) -> list:
    """``expert_counts`` as a list of ints, if it is a list (``as_list``)
    of integers >= 1 (``as_int``); anything else raises ConfigError. The
    rule for ``RunConfig``, ``expert_owners`` and ``Backbone``."""
    return [as_int(c, f"expert_counts[{i}]", minimum=1) for i, c in
            enumerate(as_list(expert_counts, "expert_counts"))]


def expert_owners(expert_counts) -> np.ndarray:
    """Owning domain id for each expert slot, in concatenation order; the
    counts must pass ``check_expert_counts``."""
    counts = check_expert_counts(expert_counts)
    return np.repeat(np.arange(len(counts)), counts)


def check_subsets(subsets, domains: int, name: str) -> list:
    """``subsets`` as one sorted list of ints per domain, if it holds one
    list per domain and each holds its own domain and only known domains,
    none twice; anything else raises ConfigError naming ``name``. The rule
    for ``fixed_subsets``, a checkpoint's subsets and ``build_mask``."""
    subsets = as_list(subsets, name)
    if len(subsets) != domains:
        raise ConfigError(f"{name} needs {domains} entries")
    normalized = []
    for d, subset in enumerate(subsets):
        members = sorted(as_int(s, f"{name}[{d}] entry")
                         for s in as_list(subset, f"{name}[{d}]"))
        if d not in members:
            raise ConfigError(f"{name}[{d}] must contain domain {d}")
        if any(not 0 <= s < domains for s in members):
            raise ConfigError(f"{name}[{d}] references unknown domains")
        if len(set(members)) != len(members):
            raise ConfigError(f"{name}[{d}] names a domain twice: {members}")
        normalized.append(members)
    return normalized


def build_mask(selected, expert_counts) -> np.ndarray:
    """Additive masks, one row per domain, from the selected-subset map.

    Entry (d, i) is 0 when expert i's owner is in selected[d], else -inf.
    ``selected`` must pass ``check_subsets``, naming "subsets".
    """
    owners = expert_owners(expert_counts)
    subsets = check_subsets(selected, len(expert_counts), "subsets")
    # member[d, j]: domain j is in selected[d]. Indexed by each expert's
    # owner, its columns give the experts that domain d's gate may use.
    member = np.zeros((len(subsets), len(subsets)), dtype=bool)
    for d, subset in enumerate(subsets):
        member[d, subset] = True
    return np.where(member[:, owners], 0.0, -np.inf)


class Backbone:
    """The full network; one instance owns all parameters."""

    def __init__(self, vocab_sizes, embed_dim: int, expert_counts,
                 expert_hidden: int, repr_dim: int, tower_hidden: int,
                 rng: np.random.Generator):
        self.vocab_sizes = tuple(
            as_int(v, f"vocab_sizes[{i}]", minimum=1, maximum=VOCAB_LIMIT)
            for i, v in enumerate(as_list(vocab_sizes, "vocab_sizes")))
        if not self.vocab_sizes:
            raise ConfigError("vocab_sizes needs at least one field")
        self.embed_dim = as_int(embed_dim, "embed_dim", minimum=1)
        self.expert_counts = check_expert_counts(expert_counts)
        self.repr_dim = as_int(repr_dim, "repr_dim", minimum=1)
        expert_hidden = as_int(expert_hidden, "expert_hidden", minimum=1)
        tower_hidden = as_int(tower_hidden, "tower_hidden", minimum=1)
        self.num_domains = len(self.expert_counts)
        self.num_experts = sum(self.expert_counts)
        self.x_dim = len(self.vocab_sizes) * self.embed_dim
        self._vocab_bounds = np.array(self.vocab_sizes, dtype=np.uint32)
        # Row of each field's first entry in the embedding table, which
        # stacks the field tables in field order. int64, so an int32
        # index plus its offset is an int64 row number.
        self._field_offsets = np.cumsum((0,) + self.vocab_sizes[:-1],
                                        dtype=np.int64)
        self.embedding = Param("embedding", uniform_init(
            rng, (sum(self.vocab_sizes), self.embed_dim), self.embed_dim))
        self.experts = []
        for d, count in enumerate(self.expert_counts):
            for k in range(count):
                self.experts.append(Mlp(
                    f"expert.d{d}e{k}",
                    [self.x_dim, expert_hidden, self.repr_dim],
                    ["relu", "linear"], rng))
        self.gates = [Mlp(f"gate.d{d}", [self.x_dim, self.num_experts],
                          ["linear"], rng)
                      for d in range(self.num_domains)]
        self.towers = [Mlp(f"tower.d{d}",
                           [self.repr_dim, tower_hidden, 1],
                           ["relu", "sigmoid"], rng)
                       for d in range(self.num_domains)]
        self._cache = None

    # ---------------------------------------------------------------- pieces

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Concatenate per-field embedding rows into the input vector, and
        add the dense layers' trailing ones column.

        One ``np.take`` per ``EMBED_CHUNK`` rows reads row
        ``features[:, j] + offset of field j`` of the table for every field
        at once, so the cost grows with the rows read, not with the
        vocabulary, and a copy sets the rows beside the ones column. A
        ``take`` straight into those strided columns was about twice as
        slow. A whole-batch gather beside the result made the allocator
        hand memory back and fault it in again on every call, which cost
        more than the copy itself from about a thousand rows on.
        """
        features = feature_indices(features)
        if features.ndim != 2 or features.shape[1] != len(self.vocab_sizes):
            raise UsageError(
                f"features must be (n, {len(self.vocab_sizes)}), "
                f"got {features.shape}")
        # Read as uint32, a negative int32 index is at least 2**31, which
        # no vocabulary size exceeds, so one comparison checks both bounds
        # of every field.
        bad = features.view(np.uint32) >= self._vocab_bounds
        if bad.any():
            j = int(bad.any(axis=0).nonzero()[0][0])
            raise DataError(
                f"field {j} index outside [0, {self.vocab_sizes[j]})")
        x = np.empty((features.shape[0], self.x_dim + 1))
        x[:, -1] = 1.0
        rows = features + self._field_offsets
        for start in range(0, len(x), EMBED_CHUNK):
            part = slice(start, start + EMBED_CHUNK)
            x[part, :-1] = np.take(self.embedding.values, rows[part],
                                   axis=0).reshape(-1, self.x_dim)
        return x

    def _embed_backward(self, features: np.ndarray, dx: np.ndarray) -> None:
        """Add the input gradient ``dx`` to the embedding rows it came from,
        with one 1-D ``np.add.at`` into the flattened table gradient.

        Entry (i, j, c) of ``dx``, read as (n, fields, embed_dim), goes to
        flat entry ``(features[i, j] + offset of field j) * embed_dim + c``:
        each row start repeated ``embed_dim`` times plus the column offsets
        tiled, in ``dx``'s own order.
        """
        e = self.embed_dim
        starts = (features + self._field_offsets).reshape(-1)
        starts *= e
        flat = np.repeat(starts, e)
        flat += np.tile(np.arange(e), starts.size)
        np.add.at(self.embedding.grad.reshape(-1), flat, dx.reshape(-1))

    # ------------------------------------------------------------- full pass

    def forward_domain(self, features: np.ndarray, d: int, masks: np.ndarray,
                       cache: bool = True):
        """Predictions and mixed representation for one domain's batch.

        Row d of ``masks`` is the domain's additive mask (``build_mask``).
        Experts masked out for domain d are never evaluated; their mixing
        weight is exactly zero by masked-softmax construction. Without
        ``cache`` nothing is kept for ``backward_domain`` and the returned
        arrays are new.
        """
        if not 0 <= d < self.num_domains:
            raise UsageError(f"domain {d} outside [0, {self.num_domains})")
        mask = np.asarray(masks[d], dtype=np.float64)
        features = feature_indices(features)
        x = self.embed(features)
        active = (mask == 0.0).nonzero()[0].tolist()
        gate = masked_softmax(self.gates[d].forward(x, cache=cache), mask)
        h = np.zeros((x.shape[0], self.repr_dim))
        outs = {}
        for i in active:
            out = self.experts[i].forward(x, cache=cache)
            if cache:
                outs[i] = out
            # An uncached output is new, so the product may overwrite it.
            h += np.multiply(gate[:, i:i + 1], out,
                             out=None if cache else out)
        # h is returned as it is, contiguous, for the prototype coders; the
        # tower reads a copy beside its ones column.
        preds = self.towers[d].forward(with_ones(h), cache=cache).ravel()
        if cache:
            self._cache = {"d": d, "features": features, "gate": gate,
                           "outs": outs}
        return preds, h

    def predict(self, features: np.ndarray, d: int,
                masks: np.ndarray) -> np.ndarray:
        """Forward only; no caches touched. A non-finite prediction, which
        diverged parameters give, raises a NumericError naming the
        domain."""
        preds, _ = self.forward_domain(features, d, masks, cache=False)
        if not np.isfinite(preds).all():
            raise NumericError(
                f"domain {d}: non-finite predictions; reduce the learning "
                "rate or the prototype loss weight")
        return preds

    def backward_domain(self, d: int, dpreds: np.ndarray,
                        dh_extra: np.ndarray | None = None) -> None:
        """Accumulate gradients for the domain batch just forwarded.

        dh_extra carries an additional gradient on the mixed representation
        (the prototype reconstruction term). Must directly follow a cached
        forward_domain for the same domain.
        """
        if self._cache is None or self._cache["d"] != d:
            raise UsageError(
                f"backward_domain({d}) without a matching cached forward")
        cache, self._cache = self._cache, None
        features, gate, outs = cache["features"], cache["gate"], cache["outs"]
        dh = self.towers[d].backward(np.asarray(dpreds).reshape(-1, 1))
        if dh_extra is not None:
            # The tower's input gradient is new, so it takes the sum.
            dh += dh_extra
        dgate = np.zeros(gate.shape)
        dx = np.zeros((len(gate), self.x_dim))
        for i, out in outs.items():
            dgate[:, i] = np.add.reduce(out * dh, axis=1)
            dx += self.experts[i].backward(gate[:, i:i + 1] * dh)
        dlogits = softmax_backward(gate, dgate)
        dx += self.gates[d].backward(dlogits)
        self._embed_backward(features, dx)

    # ------------------------------------------------------------ parameters

    def params(self) -> list:
        return [self.embedding] + [
            p for net in self.experts + self.gates + self.towers
            for p in net.params()]
