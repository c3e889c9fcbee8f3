"""Training orchestration.

One run: split the dataset 8:1:1, build the backbone and per-domain
prototype coders, then iterate fixed-quota batches minimizing

    L_final = L_ctr + gamma * L_rec

where L_ctr sums each domain's mean binary cross-entropy and L_rec sums the
per-domain prototype reconstruction errors. In sdsp mode, every
selection_interval-th iteration (starting at iteration 0, after that
iteration's train step) runs a selection round: measure domain distances
from a fresh quota batch, credit each domain's validation metric to its
active subset, epsilon-greedily pick new subsets, rebuild gate masks, decay
the exploration probability. full-share keeps all-zero masks and never
selects; fixed-subset pins the masks from the config.

Randomness is split into named streams (init, batches, distance batches,
policy) derived from the run seed, so, for example, selection rounds never
perturb the training batch sequence. Reports are byte-identical across
runs of the same config and seed, except for the wall-clock "timing"
section: the whole run's seconds plus the seconds spent in train steps,
in the selection rounds' distance and reward passes, and in the per-epoch
validation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import metrics, nn
from .backbone import Backbone, build_mask
from .config import RunConfig, load_dataset
from .errors import ConfigError, NumericError
from .prototype import ProtoCoder, distance_round, save_distance_csv
from .selection import PolicyState, ValueTable, canonical, sdsp_round, select, candidate_states

__all__ = ["train", "TrainResult", "evaluate_partition", "save_checkpoint",
           "load_checkpoint", "measure_distances", "write_outputs"]


@dataclass
class TrainResult:
    config: RunConfig
    report: dict
    backbone: Backbone
    coders: list
    dataset: data_mod.DomainDataset
    masks: np.ndarray
    subsets: list
    table: ValueTable
    policy: PolicyState
    trace: list


def _snapshot(params: list) -> list:
    return [p.values.copy() for p in params]


def _restore(params: list, snap: list) -> None:
    for p, values in zip(params, snap):
        p.values[...] = values


def evaluate_partition(backbone: Backbone, dataset: data_mod.DomainDataset,
                       partition: str, masks: np.ndarray,
                       overall: str = "pooled") -> dict:
    """Per-domain and overall AUC/LogLoss on one partition."""
    scores, labels = {}, {}
    for d in range(backbone.num_domains):
        dd = dataset.domain(partition, d)
        scores[str(d)] = backbone.predict(dd.features, d, masks)
        labels[str(d)] = dd.labels
    return metrics.per_domain_report(scores, labels, overall=overall)


def measure_distances(backbone: Backbone, coders: list,
                      dataset: data_mod.DomainDataset, masks: np.ndarray,
                      quotas: list, rng: np.random.Generator,
                      partition: str = "train") -> np.ndarray:
    """Fresh quota batch per domain -> representations -> distance matrix."""
    datas = [dataset.domain(partition, d) for d in range(backbone.num_domains)]
    sampler = data_mod.QuotaSampler(datas, quotas, rng)
    batch = sampler.next_batch()
    hs = []
    for d, (feats, _) in enumerate(batch):
        _, h = backbone.forward_domain(feats, d, masks, cache=False)
        hs.append(h)
    return distance_round(hs, coders)


class _Run:
    """Mutable state for one training run."""

    def __init__(self, config: RunConfig):
        self.config = config
        dataset = load_dataset(config)
        self.dataset = data_mod.split(dataset, config.split_fractions,
                                      seed=config.seed)
        for d in range(config.domains):
            for part in ("train", "val", "test"):
                if len(self.dataset.domain(part, d)) == 0:
                    raise ConfigError(
                        f"{part} partition is empty for domain {d}")
        ss = np.random.SeedSequence(config.seed)
        streams = ss.spawn(5)
        self.init_rng = np.random.default_rng(streams[0])
        self.sampler_rng = np.random.default_rng(streams[1])
        self.proto_rng = np.random.default_rng(streams[2])
        self.policy_rng = np.random.default_rng(streams[3])
        self.report_rng = np.random.default_rng(streams[4])

        self.backbone = Backbone(
            self.dataset.schema.vocab_sizes, config.embedding_dim,
            config.expert_counts, config.expert_hidden, config.repr_dim,
            config.tower_hidden, self.init_rng)
        self.coders = [ProtoCoder(d, config.quotas[d], config.num_prototypes,
                                  self.init_rng)
                       for d in range(config.domains)]
        train_datas = [self.dataset.domain("train", d)
                       for d in range(config.domains)]
        self.sampler = data_mod.QuotaSampler(train_datas, config.quotas,
                                             self.sampler_rng)
        self.proto_sampler = data_mod.QuotaSampler(train_datas, config.quotas,
                                                   self.proto_rng)
        self.table = ValueTable(config.domains)
        self.policy = PolicyState(p=config.explore_init,
                                  decay_rate=config.explore_decay,
                                  period=config.selection_interval)
        if config.mode == "fixed-subset":
            self.subsets = [canonical(s) for s in config.fixed_subsets]
        else:
            self.subsets = [canonical(range(config.domains))] * config.domains
        self.masks = build_mask(self.subsets, config.expert_counts)
        self.trace = []
        # Seconds per stage, reported beside the whole run's seconds.
        self.timing = dict.fromkeys(
            ("train_step_s", "selection_distance_s", "selection_reward_s",
             "epoch_eval_s"), 0.0)
        self.steps_per_epoch = max(
            -(-len(dd) // q) for dd, q in zip(train_datas, config.quotas))

    def params(self) -> list:
        out = self.backbone.params()
        for coder in self.coders:
            out += coder.params()
        return out

    @contextmanager
    def timed(self, stage: str):
        """Add the body's wall-clock seconds to timing[stage]."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.timing[stage] += time.perf_counter() - started

    # ------------------------------------------------------------- one step

    def train_step(self) -> tuple:
        """One quota batch through all domains; returns (ctr, rec, final)."""
        cfg = self.config
        batch = self.sampler.next_batch()
        gamma = cfg.proto_loss_weight
        total_ctr = 0.0
        total_rec = 0.0
        for d, (feats, labels) in enumerate(batch):
            preds, h = self.backbone.forward_domain(feats, d, self.masks)
            l_ctr, dpreds = nn.bce_loss(preds, labels)
            l_rec, _ = self.coders[d].reconstruction(h)
            if gamma > 0.0:
                dh = self.coders[d].backward(scale=gamma)
            else:
                dh = None
                self.coders[d]._cache = None
            self.backbone.backward_domain(d, dpreds, dh_extra=dh)
            total_ctr += l_ctr
            total_rec += l_rec
        total_final = total_ctr + gamma * total_rec
        if not np.isfinite(total_final):
            raise NumericError(
                f"non-finite loss (ctr={total_ctr}, rec={total_rec}); "
                "reduce the learning rate or the prototype loss weight")
        nn.sgd_step(self.params(), cfg.learning_rate)
        return total_ctr, total_rec, total_final

    # ------------------------------------------------------ selection pieces

    def distance_fn(self) -> np.ndarray:
        with self.timed("selection_distance_s"):
            batch = self.proto_sampler.next_batch()
            hs = []
            for d, (feats, _) in enumerate(batch):
                _, h = self.backbone.forward_domain(feats, d, self.masks,
                                                    cache=False)
                hs.append(h)
            return distance_round(hs, self.coders)

    def reward_fn(self, d: int) -> float:
        with self.timed("selection_reward_s"):
            dd = self.dataset.domain("val", d)
            preds = self.backbone.predict(dd.features, d, self.masks)
            return metrics.auc(preds, dd.labels)

    def selection_round(self, iteration: int) -> None:
        rec = sdsp_round(iteration, self.distance_fn, self.reward_fn,
                         self.subsets, self.table, self.policy,
                         self.policy_rng, self.config.expert_counts)
        self.subsets = list(rec.chosen)
        self.masks = rec.masks
        self.trace.append(rec.trace_line())

    def final_greedy_subsets(self) -> list | None:
        """Argmax subsets from the last round's rankings and the full table."""
        if not self.trace:
            return None
        rankings = self.trace[-1]["rankings"]
        frozen = PolicyState(p=0.0, decay_rate=self.config.explore_decay,
                             period=self.config.selection_interval)
        out = []
        for d in range(self.config.domains):
            cands = candidate_states(rankings[d])
            subset, _ = select(d, cands, self.table, frozen, self.policy_rng)
            out.append(list(subset))
        return out


def train(config: RunConfig, out_dir=None) -> TrainResult:
    """Run one full training job; optionally write the output files."""
    started = time.perf_counter()
    run = _Run(config)
    cfg = config
    selecting = cfg.mode == "sdsp"
    history = []
    best = {"auc": -np.inf, "epoch": -1, "params": None,
            "masks": None, "subsets": None}
    patience_left = cfg.early_stop_patience
    iteration = 0
    epochs_run = 0
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        for _ in range(run.steps_per_epoch):
            with run.timed("train_step_s"):
                losses = run.train_step()
            sums += losses
            if selecting and run.policy.due(iteration):
                run.selection_round(iteration)
            iteration += 1
        means = sums / run.steps_per_epoch
        with run.timed("epoch_eval_s"):
            val = evaluate_partition(run.backbone, run.dataset, "val",
                                     run.masks, cfg.overall_metric)
        history.append({
            "epoch": epoch,
            "l_ctr": float(means[0]),
            "l_rec": float(means[1]),
            "l_final": float(means[2]),
            "val_overall_auc": val["overall_auc"],
            "val_overall_logloss": val["overall_logloss"],
            "val_domains": val["domains"],
        })
        epochs_run = epoch + 1
        if val["overall_auc"] > best["auc"]:
            best.update(auc=val["overall_auc"], epoch=epoch,
                        params=_snapshot(run.params()),
                        masks=run.masks.copy(),
                        subsets=[tuple(s) for s in run.subsets])
            patience_left = cfg.early_stop_patience
        else:
            patience_left -= 1
            if patience_left < 0:
                break
    _restore(run.params(), best["params"])
    run.masks = best["masks"]
    run.subsets = list(best["subsets"])

    val_report = evaluate_partition(run.backbone, run.dataset, "val",
                                    run.masks, cfg.overall_metric)
    test_report = evaluate_partition(run.backbone, run.dataset, "test",
                                     run.masks, cfg.overall_metric)
    final_matrix = measure_distances(run.backbone, run.coders, run.dataset,
                                     run.masks, cfg.quotas, run.report_rng)
    report = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "mode": cfg.mode,
        "seed": cfg.seed,
        "steps_per_epoch": run.steps_per_epoch,
        "epochs_run": epochs_run,
        "best_epoch": best["epoch"],
        "history": history,
        "val": val_report,
        "test": test_report,
        "selection": {
            "rounds": len(run.trace),
            "final_p": run.policy.p,
            "active_subsets": [list(s) for s in run.subsets],
            "final_greedy_subsets": run.final_greedy_subsets(),
            "value_table": run.table.snapshot(),
        },
        "final_distance_matrix": [[float(v) for v in row]
                                  for row in final_matrix],
        "timing": {"train_seconds": time.perf_counter() - started,
                   **run.timing},
    }
    result = TrainResult(config=cfg, report=report, backbone=run.backbone,
                         coders=run.coders, dataset=run.dataset,
                         masks=run.masks, subsets=list(run.subsets),
                         table=run.table, policy=run.policy, trace=run.trace)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


# ------------------------------------------------------------------ outputs

def write_outputs(result: TrainResult, out_dir) -> None:
    import os
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "selection_trace.log"), "w",
              encoding="utf-8") as fh:
        for line in result.trace:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    save_distance_csv(np.asarray(result.report["final_distance_matrix"]),
                      os.path.join(out_dir, "distance_matrix.csv"))
    save_checkpoint(result, os.path.join(out_dir, "checkpoint.npz"))


def save_checkpoint(result: TrainResult, path) -> None:
    """All parameters (backbone + prototype coders) plus run metadata."""
    arrays = {f"param:{p.name}": p.values for p in result.backbone.params()}
    for coder in result.coders:
        for p in coder.params():
            arrays[f"param:{p.name}"] = p.values
    meta = {
        "backbone": result.backbone._meta(),
        "coders": [{"domain": c.domain, "batch_count": c.batch_count,
                    "num_prototypes": c.num_prototypes}
                   for c in result.coders],
        "config_hash": result.config.config_hash(),
        "subsets": [list(s) for s in result.subsets],
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path, expected_hash: str | None = None):
    """Rebuild (backbone, coders, masks, subsets) from a checkpoint file.

    The config hash must equal expected_hash when one is given, and every
    parameter must be stored with exactly the shape the recorded layer
    sizes give it; anything else raises ConfigError rather than being
    broadcast into place.
    """
    with np.load(path) as zf:
        meta = json.loads(bytes(zf["meta"]).decode())
        if expected_hash is not None and meta["config_hash"] != expected_hash:
            raise ConfigError(
                f"checkpoint hash {meta['config_hash']!r} does not match "
                f"config hash {expected_hash!r}")
        dims = meta["backbone"]
        backbone = Backbone(dims["vocab_sizes"], dims["embed_dim"],
                            dims["expert_counts"], dims["expert_hidden"],
                            dims["repr_dim"], dims["tower_hidden"],
                            np.random.default_rng(0))
        coders = [ProtoCoder(c["domain"], c["batch_count"],
                             c["num_prototypes"], np.random.default_rng(0))
                  for c in meta["coders"]]
        params = list(backbone.params())
        for coder in coders:
            params += coder.params()
        for p in params:
            key = f"param:{p.name}"
            if key not in zf:
                raise ConfigError(f"checkpoint missing tensor {p.name!r}")
            stored = zf[key]
            if stored.shape != p.values.shape:
                raise ConfigError(
                    f"checkpoint tensor {p.name!r} has shape {stored.shape}, "
                    f"expected {p.values.shape}")
            p.values[...] = stored
        subsets = [canonical(s) for s in meta["subsets"]]
        masks = build_mask(subsets, dims["expert_counts"])
    return backbone, coders, masks, subsets
