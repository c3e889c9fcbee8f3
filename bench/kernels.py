"""Hot kernels timed at fixed input sizes, through public calls only.

Each timing is the median of repeated calls, in milliseconds per call. The
input sizes are fixed; their contents come from the seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ctrlab import metrics
from ctrlab.backbone import Backbone
from ctrlab.data import DomainData, QuotaSampler
from ctrlab.prototype import ProtoCoder, distance_round

import workloads

AUC_ROWS = 200_000


def _median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def _chain4_backbone(rng) -> Backbone:
    # sdsp-chain4 shapes: 4 concepts x 2 fields of vocabulary 16, 2 experts
    # per domain, RunConfig's default layer sizes.
    return Backbone([16] * 8, 4, [2] * 4, 8, 8, 8, rng)


def kernel_metrics(seed: int, scale: float = 1.0) -> dict:
    """Per-call milliseconds for each kernel; ``scale`` shrinks inputs for
    smoke tests."""
    rng = np.random.default_rng(seed)
    out = {}

    # Scores on a 1/1000 grid, so nearly every score is tied with others.
    n = max(100, round(AUC_ROWS * scale))
    scores = rng.integers(0, 1000, n) / 1000.0
    labels = (rng.random(n) < 0.3).astype(float)
    out["kernel.auc_200k_ms"] = _median_ms(
        lambda: metrics.auc(scores, labels), 3)

    quota = max(2, round(128 * scale))
    datas = []
    for size in workloads.BLOCKS8_ROWS:
        rows = max(quota, round(0.8 * size * scale))
        datas.append(DomainData(rng.integers(0, 16, (rows, 16)),
                                rng.integers(0, 2, rows)))
    sampler = QuotaSampler(datas, [quota] * 8, rng)
    out["kernel.sampler_blocks8_ms"] = _median_ms(sampler.next_batch, 50)

    backbone = _chain4_backbone(rng)
    batch = max(2, round(256 * scale))
    feats = rng.integers(0, 16, (batch, 8))
    dpreds = rng.normal(0.0, 1e-3, batch)
    masks = np.zeros((4, backbone.num_experts))
    out["kernel.forward_domain_chain4_ms"] = _median_ms(
        lambda: backbone.forward_domain(feats, 0, masks), 50)

    samples = []
    for _ in range(50):
        backbone.forward_domain(feats, 0, masks)
        start = time.perf_counter()
        backbone.backward_domain(0, dpreds)
        samples.append(time.perf_counter() - start)
    out["kernel.backward_domain_chain4_ms"] = 1000.0 * statistics.median(
        samples)

    coders = [ProtoCoder(d, quota, 10, rng) for d in range(8)]
    hs = [rng.normal(size=(quota, 8)) for _ in range(8)]
    out["kernel.distance_round_d8_ms"] = _median_ms(
        lambda: distance_round(hs, coders), 30)
    return out
