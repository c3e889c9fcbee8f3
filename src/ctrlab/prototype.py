"""Prototype learning and the asymmetric domain-distance measure.

Each domain owns an encoder/decoder pair acting along the batch axis: a
fixed-size batch of representations h (B x H) is compressed to M prototypes
p (M x H) by an affine map with an M x B weight, and decoded back with a
B x M map. The fixed-quota sampler guarantees the batch-axis size; batch
rows are pre-sorted by a stable lexicographic key so the maps cannot
memorize sampler order. Training signal is the squared-L2 reconstruction
error, which also back-propagates into the representations themselves.

Distances: a prototype's distance to a domain is the L2 distance to that
domain's nearest prototype; domain-to-domain distance averages this over
the source domain's prototypes. The measure is deliberately asymmetric
(a subset is close to its superset, not vice versa).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, UsageError
from .nn import Param, uniform_init

__all__ = ["ProtoCoder", "domain_distance", "distance_matrix",
           "rank_domains", "distance_round", "save_distance_csv"]


def _sort_order(h: np.ndarray) -> np.ndarray:
    """Stable lexicographic row order: first column is the primary key."""
    return np.lexsort(h.T[::-1])


class ProtoCoder:
    """Per-domain prototype encoder/decoder with manual gradients."""

    def __init__(self, domain: int, batch_count: int, num_prototypes: int,
                 rng: np.random.Generator):
        if batch_count < 1 or num_prototypes < 1:
            raise ConfigError("batch count and prototype count must be >= 1")
        self.domain = int(domain)
        self.batch_count = int(batch_count)
        self.num_prototypes = int(num_prototypes)
        b, m = self.batch_count, self.num_prototypes
        self.enc_w = Param(f"proto.d{domain}.enc_w",
                           uniform_init(rng, (m, b), b))
        self.enc_b = Param(f"proto.d{domain}.enc_b", np.zeros(m))
        self.dec_w = Param(f"proto.d{domain}.dec_w",
                           uniform_init(rng, (b, m), m))
        self.dec_b = Param(f"proto.d{domain}.dec_b", np.zeros(b))
        self._cache = None

    def params(self) -> list:
        return [self.enc_w, self.enc_b, self.dec_w, self.dec_b]

    def _check_batch(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != self.batch_count:
            raise ConfigError(
                f"domain {self.domain}: encoder expects a batch of exactly "
                f"{self.batch_count} rows, got {h.shape}")
        return h

    def encode(self, h: np.ndarray) -> np.ndarray:
        """Prototypes for one batch; pure (no cache)."""
        h = self._check_batch(h)
        hs = h[_sort_order(h)]
        return self.enc_w.values @ hs + self.enc_b.values[:, None]

    def reconstruction(self, h: np.ndarray):
        """Forward pass: (squared-L2 loss, prototypes); caches for backward."""
        h = self._check_batch(h)
        order = _sort_order(h)
        hs = h[order]
        p = self.enc_w.values @ hs + self.enc_b.values[:, None]
        h_hat = self.dec_w.values @ p + self.dec_b.values[:, None]
        diff = hs - h_hat
        loss = float((diff * diff).sum())
        self._cache = {"order": order, "hs": hs, "p": p, "diff": diff}
        return loss, p

    def backward(self, scale: float = 1.0) -> np.ndarray:
        """Accumulate parameter grads; return d(loss)/dh in original row
        order, multiplied by `scale` (the loss weight)."""
        if self._cache is None:
            raise UsageError(
                f"domain {self.domain}: backward without a cached forward")
        c, self._cache = self._cache, None
        order, hs, p, diff = c["order"], c["hs"], c["p"], c["diff"]
        dh_hat = -2.0 * diff * scale
        self.dec_w.grad += dh_hat @ p.T
        self.dec_b.grad += dh_hat.sum(axis=1)
        dp = self.dec_w.values.T @ dh_hat
        self.enc_w.grad += dp @ hs.T
        self.enc_b.grad += dp.sum(axis=1)
        dhs = self.enc_w.values.T @ dp + 2.0 * diff * scale
        dh = np.empty_like(dhs)
        dh[order] = dhs
        return dh


def domain_distance(protos_a: np.ndarray, protos_b: np.ndarray) -> float:
    """Mean over source prototypes of the nearest-target-prototype distance."""
    protos_a = np.asarray(protos_a, dtype=np.float64)
    protos_b = np.asarray(protos_b, dtype=np.float64)
    if protos_a.ndim != 2 or protos_b.ndim != 2:
        raise UsageError("prototype sets must be 2-D")
    if protos_a.shape[0] == 0 or protos_b.shape[0] == 0:
        raise UsageError("prototype sets must be non-empty")
    if protos_a.shape[1] != protos_b.shape[1]:
        raise UsageError(
            f"dim mismatch: {protos_a.shape[1]} vs {protos_b.shape[1]}")
    diff = protos_a[:, None, :] - protos_b[None, :, :]
    sq = (diff * diff).sum(axis=2)
    return float(np.mean(np.sqrt(sq.min(axis=1))))


def distance_matrix(protosets: list) -> np.ndarray:
    """All ordered domain pairs; entry (i, j) = distance from i to j."""
    d = len(protosets)
    if d < 2:
        raise UsageError(f"need at least 2 domains, got {d}")
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = domain_distance(protosets[i], protosets[j])
    return out


def rank_domains(matrix: np.ndarray, d: int) -> list:
    """Domains by ascending distance from d; d itself always first, other
    ties broken by ascending id."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if not 0 <= d < matrix.shape[0]:
        raise UsageError(f"domain {d} outside matrix of size {matrix.shape}")
    if not np.all(np.isfinite(matrix[d])):
        raise UsageError(f"row {d} contains non-finite distances")
    others = [j for j in range(matrix.shape[0]) if j != d]
    others.sort(key=lambda j: (matrix[d, j], j))
    return [d] + others


def distance_round(h_by_domain: list, coders: list) -> np.ndarray:
    """Encode one fresh batch per domain, then fill the distance matrix.

    This is the per-selection-round measurement pipeline: cost is one
    batch-axis affine map per domain plus pairwise prototype distances.
    """
    if len(h_by_domain) != len(coders):
        raise UsageError(
            f"{len(h_by_domain)} batches for {len(coders)} domains")
    protos = [coder.encode(h) for coder, h in zip(coders, h_by_domain)]
    return distance_matrix(protos)


def save_distance_csv(matrix: np.ndarray, path) -> None:
    """CSV with a domain-id header row and row labels; row d = distances
    from domain d."""
    matrix = np.asarray(matrix, dtype=np.float64)
    d = matrix.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("domain," + ",".join(str(j) for j in range(d)) + "\n")
        for i in range(d):
            fh.write(str(i) + "," +
                     ",".join(f"{matrix[i, j]:.17g}" for j in range(d)) + "\n")
