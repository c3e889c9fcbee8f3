"""Prototype learning and the asymmetric domain-distance measure.

Each domain owns an encoder/decoder pair acting along the batch axis: a
fixed-size batch of representations h (B x H) is compressed to M prototypes
p (M x H) by an affine map with an M x B weight, and decoded back with a
B x M map. The fixed-quota sampler guarantees the batch-axis size; batch
rows are pre-sorted by a stable sort of their first column so the maps
cannot memorize sampler order. Training signal is the squared-L2
reconstruction error, which also back-propagates into the representations
themselves.

Distances: a prototype's distance to a domain is the L2 distance to that
domain's nearest prototype; domain-to-domain distance averages this over
the source domain's prototypes. The measure is deliberately asymmetric
(a subset is close to its superset, not vice versa).
"""

from __future__ import annotations

import numpy as np

from .data import as_int, file_errors
from .errors import ConfigError, UsageError
from .nn import Param, uniform_init

__all__ = ["ProtoCoder", "distance_matrix", "rank_domains",
           "distance_round", "save_distance_csv"]


class ProtoCoder:
    """Per-domain prototype encoder/decoder with manual gradients."""

    def __init__(self, domain: int, batch_count: int, num_prototypes: int,
                 rng: np.random.Generator):
        self.domain = as_int(domain, "domain", minimum=0)
        self.batch_count = as_int(batch_count, "batch_count", minimum=1)
        b = self.batch_count
        m = as_int(num_prototypes, "num_prototypes", minimum=1)
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

    def _encode(self, h: np.ndarray) -> tuple:
        """(row order, sorted batch, prototypes) for one batch."""
        h = self._check_batch(h)
        order = np.argsort(h[:, 0], kind="stable")
        hs = h[order]
        return order, hs, self.enc_w.values @ hs + self.enc_b.values[:, None]

    def encode(self, h: np.ndarray) -> np.ndarray:
        """Prototypes for one batch; pure (no cache)."""
        return self._encode(h)[2]

    def reconstruction(self, h: np.ndarray):
        """Forward pass: (squared-L2 loss, prototypes); caches for backward."""
        order, hs, p = self._encode(h)
        h_hat = self.dec_w.values @ p + self.dec_b.values[:, None]
        diff = hs - h_hat
        loss = float(np.add.reduce(diff * diff, axis=None))
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
        self.dec_b.grad += np.add.reduce(dh_hat, axis=1)
        dp = self.dec_w.values.T @ dh_hat
        self.enc_w.grad += dp @ hs.T
        self.enc_b.grad += np.add.reduce(dp, axis=1)
        dhs = self.enc_w.values.T @ dp + 2.0 * diff * scale
        dh = np.empty_like(dhs)
        dh[order] = dhs
        return dh


def _protoset(protos) -> np.ndarray:
    """One prototype set as a non-empty 2-D float64 array."""
    protos = np.asarray(protos, dtype=np.float64)
    if protos.ndim != 2:
        raise UsageError("prototype sets must be 2-D")
    if protos.shape[0] == 0:
        raise UsageError("prototype sets must be non-empty")
    return protos


def _check_dims(protos_a: np.ndarray, protos_b: np.ndarray) -> None:
    if protos_a.shape[1] != protos_b.shape[1]:
        raise UsageError(
            f"dim mismatch: {protos_a.shape[1]} vs {protos_b.shape[1]}")


def distance_matrix(protosets: list) -> np.ndarray:
    """All ordered domain pairs; entry (i, j) = distance from i to j, the
    mean over i's prototypes of the L2 distance to j's nearest prototype.

    One pass per source domain against every target's prototypes stacked:
    each squared distance is summed over the contiguous feature axis, the
    nearest target prototype is a minimum over that target's block of
    columns, and the mean runs over a contiguous row, so every entry has
    the bits of the per-pair expression kept as ``domain_distance`` in
    ``tests/reference.py``.
    """
    d = len(protosets)
    if d < 2:
        raise UsageError(f"need at least 2 domains, got {d}")
    # Checked one set at a time, so the first error raised is the one the
    # per-pair loop over (0, 0), (0, 1), ... would meet first.
    sets = []
    for protos in protosets:
        sets.append(_protoset(protos))
        _check_dims(sets[0], sets[-1])
    targets = np.concatenate(sets)
    starts = np.cumsum([0] + [len(p) for p in sets[:-1]])
    out = np.empty((d, d))
    for i, source in enumerate(sets):
        diff = source[:, None, :] - targets[None, :, :]
        diff *= diff
        sq = np.add.reduce(diff, axis=2)
        nearest = np.minimum.reduceat(sq, starts, axis=1)
        # C order makes each target's distances a contiguous row; numpy
        # would add the rows of the transposed view in another order.
        out[i] = np.add.reduce(np.sqrt(nearest.T, order="C"), axis=1)
        out[i] /= len(source)
    return out


def rank_domains(matrix: np.ndarray, d: int) -> list:
    """Domains by ascending distance from d; d itself always first, other
    ties broken by ascending id. ``d`` is an integer in [0, rows) by
    ``as_int``, else a UsageError."""
    matrix = np.asarray(matrix, dtype=np.float64)
    d = as_int(d, "domain", UsageError, minimum=0, maximum=matrix.shape[0] - 1)
    if not np.isfinite(matrix[d]).all():
        raise UsageError(f"row {d} contains non-finite distances")
    others = [j for j in range(matrix.shape[0]) if j != d]
    others.sort(key=lambda j: (matrix[d, j], j))
    return [d] + others


def distance_round(h_by_domain: list, coders: list) -> np.ndarray:
    """Encode one fresh batch per domain, then fill the distance matrix.

    Cost is one batch-axis affine map per domain plus pairwise prototype
    distances.
    """
    if len(h_by_domain) != len(coders):
        raise UsageError(
            f"{len(h_by_domain)} batches for {len(coders)} domains")
    protos = [coder.encode(h) for coder, h in zip(coders, h_by_domain)]
    return distance_matrix(protos)


def save_distance_csv(matrix: np.ndarray, path) -> None:
    """CSV with a domain-id header row and row labels; row d = distances
    from domain d. A path that cannot be written raises a ConfigError
    naming it, as the run's other output writers do."""
    matrix = np.asarray(matrix, dtype=np.float64)
    d = matrix.shape[0]
    with (file_errors(path, ConfigError, "written"),
          open(path, "w", encoding="utf-8", newline="\n") as fh):
        fh.write("domain," + ",".join(str(j) for j in range(d)) + "\n")
        for i in range(d):
            fh.write(str(i) + "," +
                     ",".join(f"{matrix[i, j]:.17g}" for j in range(d)) + "\n")
