"""The benchmark's training jobs, each built from a seed.

Every workload is a ``ctrlab`` training job whose inputs come only from
a seed: the seed becomes ``RunConfig.seed`` and therefore also the seed
of the synthetic data generator. One invocation of the benchmark runs
``JOBS`` such jobs, with seeds derived from its ``--seed``.

Why these three:

* ``sdsp-chain4``: the paper's method on a chained 4-domain affinity. The
  selection round (validation-AUC reward pass plus distance pass) is about
  half the work, so changes to ``selection``, ``metrics`` and
  ``prototype`` show here.
* ``fullshare-chain4``: the same data and model with every expert shared
  and no selection rounds. The train step dominates (``backbone``, ``nn``,
  the ``data`` sampler); a selection-only change must show no effect here.
* ``sdsp-blocks8-csv``: eight domains planted as four 2-domain blocks, one
  expert each, skewed domain sizes, read back through ``load_csv``. Many
  small per-domain calls, 64 ordered distance pairs per round, sampler
  wrap-and-dedup on the small domains, CSV parsing inside set-up, and gate
  masks that really skip experts.
"""

from __future__ import annotations

import os

from ctrlab import data as data_mod
from ctrlab.config import RunConfig, load_dataset

NAMES = ("sdsp-chain4", "fullshare-chain4", "sdsp-blocks8-csv")

CHAIN4_ROWS = 20_000
# Geometric sizes from 12000 down to 600 rows.
BLOCKS8_ROWS = [round(12_000 * 0.05 ** (k / 7)) for k in range(8)]
# Epochs and learning rates bring every workload to a converged test AUC
# of about 0.95, so the AUC spread across seeds stays under 1%. full-share leaves the near-chance start later than sdsp
# but its epochs are cheaper; blocks8 needs the larger rate to converge in
# time, and diverged at 2.0.
EPOCHS = {"sdsp-chain4": 6, "fullshare-chain4": 7, "sdsp-blocks8-csv": 5}
LEARNING_RATE = {"sdsp-chain4": 0.5, "fullshare-chain4": 0.5,
                 "sdsp-blocks8-csv": 1.0}


# Training jobs per invocation, each with its own seed derived from the
# invocation's seed; the end-to-end metrics average over them.
JOBS = 3


def job_seeds(seed: int) -> list:
    """The jobs' seeds for ``--seed seed``; disjoint for distinct seeds."""
    return [seed * JOBS + job for job in range(JOBS)]


def chain_affinity(domains: int) -> list:
    """Each domain borrows half of its neighbours' concepts."""
    return [[1.0 if i == j else 0.5 if abs(i - j) == 1 else 0.0
             for j in range(domains)] for i in range(domains)]


def block_affinity(domains: int, block: int) -> list:
    """Domains in the same block of ``block`` consecutive ids share most
    of their concepts; domains in different blocks share none."""
    return [[1.0 if i == j else 0.8 if i // block == j // block else 0.0
             for j in range(domains)] for i in range(domains)]


def _synth(affinity: list, sizes: list) -> dict:
    # Noise-free labels: with 10% flips the models were still leaving the
    # near-chance plateau after five epochs, and test AUC varied by 9%
    # across seeds.
    return {"kind": "synth", "affinity": affinity,
            "noise": [0.0] * len(sizes), "sizes": list(sizes)}


def build(name: str, seed: int, workdir: str, scale: float = 1.0) -> RunConfig:
    """The workload's config for ``seed``.

    ``sdsp-blocks8-csv`` writes its CSV and schema into ``workdir`` here,
    before anything is timed. ``scale`` shrinks row counts and the batch
    for smoke tests; the benchmark itself always uses 1.0.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    # Patience of a whole run: every run trains all its epochs.
    common = dict(seed=seed, learning_rate=LEARNING_RATE[name],
                  epochs=EPOCHS[name], early_stop_patience=EPOCHS[name],
                  selection_interval=2)
    if name in ("sdsp-chain4", "fullshare-chain4"):
        sizes = [max(200, round(CHAIN4_ROWS * scale))] * 4
        return RunConfig(
            domains=4, dataset=_synth(chain_affinity(4), sizes),
            mode="sdsp" if name == "sdsp-chain4" else "full-share",
            expert_counts=[2] * 4, batch_size=max(8, round(1024 * scale)),
            **common)
    sizes = [max(200, round(n * scale)) for n in BLOCKS8_ROWS]
    quota = max(2, round(128 * scale))
    synth = RunConfig(domains=8, dataset=_synth(block_affinity(8, 2), sizes),
                      seed=seed)
    dataset = load_dataset(synth)
    csv_path = os.path.join(workdir, f"blocks8-seed{seed}.csv")
    schema_path = os.path.join(workdir, f"blocks8-seed{seed}.schema.json")
    data_mod.save_csv(dataset, csv_path)
    dataset.schema.save(schema_path)
    return RunConfig(
        domains=8, dataset={"kind": "csv", "path": csv_path,
                            "schema": schema_path},
        mode="sdsp", expert_counts=[1] * 8, batch_size=8 * quota,
        quotas=[quota] * 8, **common)
