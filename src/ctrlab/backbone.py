"""Mixture-of-experts CTR backbone with per-domain masked mixing.

Layout: a shared embedding table (one Param stacking the per-field tables
in field order) feeds a bank of small expert networks, grouped by owning
domain and concatenated in domain order. Each domain has a gate (affine
map over the input, softmaxed across all experts), and a tower mapping the
mixed representation to a click probability. A domain's mask is an
additive {0, -inf} vector over experts: -inf entries knock the
corresponding experts out of the gate softmax, so unselected domains'
experts receive exactly zero mixing weight and exactly zero gradient. The
mask is added to the raw gate logits before the softmax; an all-zero mask
reproduces the unmasked network bit for bit.

Masked-out experts are skipped entirely in both directions, which makes the
zero-weight/zero-gradient guarantees structural rather than numerical.
"""

from __future__ import annotations

import numpy as np

from .data import feature_indices
from .errors import ConfigError, DataError, InvariantError, UsageError
from .nn import Mlp, Param, masked_softmax, softmax_backward, uniform_init

__all__ = ["Backbone", "build_mask", "expert_owners"]


def expert_owners(expert_counts) -> np.ndarray:
    """Owning domain id for each expert slot, in concatenation order."""
    counts = np.asarray(expert_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0 or np.any(counts < 1):
        raise ConfigError(f"expert counts must be positive: {expert_counts}")
    return np.repeat(np.arange(counts.size), counts)


def build_mask(selected, expert_counts) -> np.ndarray:
    """Additive masks, one row per domain, from the selected-subset map.

    Entry (d, i) is 0 when expert i's owner is in selected[d], else -inf.
    Every domain must select itself.
    """
    owners = expert_owners(expert_counts)
    num_domains = len(expert_counts)
    if len(selected) != num_domains:
        raise ConfigError(
            f"{len(selected)} subsets for {num_domains} domains")
    masks = np.full((num_domains, owners.size), -np.inf)
    for d, subset in enumerate(selected):
        subset = set(int(s) for s in subset)
        if d not in subset:
            raise InvariantError(
                f"domain {d} must belong to its own subset, got {sorted(subset)}")
        bad = [s for s in subset if not 0 <= s < num_domains]
        if bad:
            raise ConfigError(f"domain {d} selects unknown domains {bad}")
        masks[d, np.isin(owners, list(subset))] = 0.0
    return masks


class Backbone:
    """The full network; one instance owns all parameters."""

    def __init__(self, vocab_sizes, embed_dim: int, expert_counts,
                 expert_hidden: int, repr_dim: int, tower_hidden: int,
                 rng: np.random.Generator):
        if embed_dim < 1 or expert_hidden < 1 or repr_dim < 1 or tower_hidden < 1:
            raise ConfigError("all layer sizes must be >= 1")
        self.vocab_sizes = tuple(int(v) for v in vocab_sizes)
        self.embed_dim = int(embed_dim)
        self.expert_counts = [int(c) for c in expert_counts]
        self.expert_hidden = int(expert_hidden)
        self.repr_dim = int(repr_dim)
        self.tower_hidden = int(tower_hidden)
        self.num_domains = len(self.expert_counts)
        self.owners = expert_owners(self.expert_counts)
        self.num_experts = int(self.owners.size)
        self.x_dim = len(self.vocab_sizes) * self.embed_dim
        self._vocab_bounds = np.array(self.vocab_sizes, dtype=np.uint64)
        # Row of each field's first entry in the embedding table, which
        # stacks the field tables in field order.
        self._field_offsets = np.cumsum((0,) + self.vocab_sizes[:-1],
                                        dtype=np.int64)
        self.embedding = Param("embedding", uniform_init(
            rng, (sum(self.vocab_sizes), self.embed_dim), self.embed_dim))
        self.experts = []
        for d, count in enumerate(self.expert_counts):
            for k in range(count):
                self.experts.append(Mlp.build(
                    f"expert.d{d}e{k}",
                    [self.x_dim, self.expert_hidden, self.repr_dim],
                    ["relu", "linear"], rng))
        self.gate_w = [Param(f"gate.d{d}.w",
                             uniform_init(rng, (self.num_experts, self.x_dim),
                                          self.x_dim))
                       for d in range(self.num_domains)]
        self.gate_b = [Param(f"gate.d{d}.b", np.zeros(self.num_experts))
                       for d in range(self.num_domains)]
        self.towers = [Mlp.build(f"tower.d{d}",
                                 [self.repr_dim, self.tower_hidden, 1],
                                 ["relu", "sigmoid"], rng)
                       for d in range(self.num_domains)]
        self._cache = None

    # ---------------------------------------------------------------- pieces

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Concatenate per-field embedding rows into the input vector.

        One ``np.take`` reads row ``features[:, j] + offset of field j`` of
        the table for every field at once, so the cost grows with the rows
        read, not with the vocabulary.
        """
        features = feature_indices(features)
        if features.ndim != 2 or features.shape[1] != len(self.vocab_sizes):
            raise UsageError(
                f"features must be (n, {len(self.vocab_sizes)}), "
                f"got {features.shape}")
        # Read as unsigned, a negative index is huge, so one comparison
        # checks both bounds of every field.
        bad = features.view(np.uint64) >= self._vocab_bounds
        if bad.any():
            j = int(bad.any(axis=0).nonzero()[0][0])
            raise DataError(
                f"field {j} index outside [0, {self.vocab_sizes[j]})")
        rows = np.take(self.embedding.values, features + self._field_offsets,
                       axis=0)
        return rows.reshape(features.shape[0], self.x_dim)

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

    def gate_logits(self, x: np.ndarray, d: int) -> np.ndarray:
        return x @ self.gate_w[d].values.T + self.gate_b[d].values

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
        gate = masked_softmax(self.gate_logits(x, d), mask)
        h = np.zeros((x.shape[0], self.repr_dim))
        outs = {}
        for i in active:
            out = self.experts[i].forward(x, cache=cache)
            if cache:
                outs[i] = out
            # An uncached output is new, so the product may overwrite it.
            h += np.multiply(gate[:, i:i + 1], out,
                             out=None if cache else out)
        preds = self.towers[d].forward(h, cache=cache).ravel()
        if cache:
            self._cache = {"d": d, "x": x, "features": features,
                           "gate": gate, "outs": outs}
        return preds, h

    def predict(self, features: np.ndarray, d: int,
                masks: np.ndarray) -> np.ndarray:
        """Forward only; no caches touched."""
        preds, _ = self.forward_domain(features, d, masks, cache=False)
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
        x, gate, outs = cache["x"], cache["gate"], cache["outs"]
        features = cache["features"]
        dh = self.towers[d].backward(np.asarray(dpreds).reshape(-1, 1))
        if dh_extra is not None:
            # The tower's input gradient is new, so it takes the sum.
            dh += dh_extra
        dgate = np.zeros(gate.shape)
        dx = np.zeros(x.shape)
        for i, out in outs.items():
            dgate[:, i] = np.add.reduce(out * dh, axis=1)
            dx += self.experts[i].backward(gate[:, i:i + 1] * dh)
        dlogits = softmax_backward(gate, dgate)
        self.gate_w[d].grad += dlogits.T @ x
        self.gate_b[d].grad += np.add.reduce(dlogits, axis=0)
        dx += dlogits @ self.gate_w[d].values
        self._embed_backward(features, dx)

    # ------------------------------------------------------------ parameters

    def params(self) -> list:
        out = [self.embedding]
        for e in self.experts:
            out += e.params()
        for d in range(self.num_domains):
            out.append(self.gate_w[d])
            out.append(self.gate_b[d])
        for t in self.towers:
            out += t.params()
        return out

    def _meta(self) -> dict:
        """Layer sizes that rebuild an equal-shaped network from a checkpoint."""
        return {"vocab_sizes": list(self.vocab_sizes),
                "embed_dim": self.embed_dim,
                "expert_counts": self.expert_counts,
                "expert_hidden": self.expert_hidden,
                "repr_dim": self.repr_dim,
                "tower_hidden": self.tower_hidden}
