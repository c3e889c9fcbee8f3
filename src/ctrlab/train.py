"""Training orchestration.

One run: split the dataset 8:1:1, build the backbone and per-domain
prototype coders, then iterate fixed-quota batches minimizing

    L_final = L_ctr + gamma * L_rec

where L_ctr sums each domain's mean binary cross-entropy and L_rec sums the
per-domain prototype reconstruction errors. In sdsp mode, every
selection_interval-th iteration (starting at iteration 0, after that
iteration's train step) runs a selection round: measure domain distances
from a fresh quota batch, credit each domain's validation metric to its
active subset, epsilon-greedily pick new subsets, rebuild gate masks, and
multiply the exploration probability by explore_decay. full-share keeps
all-zero masks and never selects; fixed-subset pins the masks from the
config. The rounds' distance pass and the report's final distance matrix
share one path: a quota batch, a no-cache forward per domain, then
prototype.distance_round.

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
from .selection import ValueTable, canonical, candidate_states, greedy, sdsp_round

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
    trace: list


def _all_params(backbone: Backbone, coders: list) -> list:
    """The backbone's params, then each prototype coder's, in domain order."""
    return backbone.params() + [p for c in coders for p in c.params()]


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


def _distances(backbone: Backbone, coders: list, masks: np.ndarray,
               sampler: data_mod.QuotaSampler) -> np.ndarray:
    """The sampler's next batch -> representations -> distance matrix."""
    hs = [backbone.forward_domain(feats, d, masks, cache=False)[1]
          for d, (feats, _) in enumerate(sampler.next_batch())]
    return distance_round(hs, coders)


def measure_distances(backbone: Backbone, coders: list,
                      dataset: data_mod.DomainDataset, masks: np.ndarray,
                      quotas: list, rng: np.random.Generator) -> np.ndarray:
    """Distance matrix from a fresh quota batch of train rows per domain."""
    datas = [dataset.domain("train", d) for d in range(backbone.num_domains)]
    sampler = data_mod.QuotaSampler(datas, quotas, rng)
    return _distances(backbone, coders, masks, sampler)


class _Run:
    """Mutable state for one training run."""

    def __init__(self, config: RunConfig):
        self.config = config
        dataset = load_dataset(config)
        self.dataset = data_mod.split(dataset, config.split_fractions,
                                      seed=config.seed)
        for d in range(config.domains):
            for part in ("train", "val", "test"):
                labels = self.dataset.domain(part, d).labels
                if len(labels) == 0:
                    raise ConfigError(
                        f"{part} partition is empty for domain {d}")
                # Validation and test AUC need both classes.
                if part != "train" and np.all(labels == labels[0]):
                    raise ConfigError(
                        f"{part} partition of domain {d} holds only label "
                        f"{labels[0]:g}; its AUC is undefined")
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
        self.store = nn.ParamStore(_all_params(self.backbone, self.coders))
        train_datas = [self.dataset.domain("train", d)
                       for d in range(config.domains)]
        self.sampler = data_mod.QuotaSampler(train_datas, config.quotas,
                                             self.sampler_rng)
        self.proto_sampler = data_mod.QuotaSampler(train_datas, config.quotas,
                                                   self.proto_rng)
        self.table = ValueTable(config.domains)
        # Exploration probability of the next selection round.
        self.p = config.explore_init
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
            # With gamma 0 the coder's cache stays until the next
            # reconstruction replaces it.
            dh = self.coders[d].backward(scale=gamma) if gamma > 0.0 else None
            self.backbone.backward_domain(d, dpreds, dh_extra=dh)
            total_ctr += l_ctr
            total_rec += l_rec
        total_final = total_ctr + gamma * total_rec
        if not np.isfinite(total_final):
            raise NumericError(
                f"non-finite loss (ctr={total_ctr}, rec={total_rec}); "
                "reduce the learning rate or the prototype loss weight")
        nn.sgd_step(self.store, cfg.learning_rate)
        return total_ctr, total_rec, total_final

    # ------------------------------------------------------ selection pieces

    def distance_fn(self) -> np.ndarray:
        with self.timed("selection_distance_s"):
            return _distances(self.backbone, self.coders, self.masks,
                              self.proto_sampler)

    def reward_fn(self, d: int) -> float:
        with self.timed("selection_reward_s"):
            dd = self.dataset.domain("val", d)
            preds = self.backbone.predict(dd.features, d, self.masks)
            return metrics.auc(preds, dd.labels)

    def selection_round(self, iteration: int) -> None:
        line = sdsp_round(iteration, self.distance_fn, self.reward_fn,
                          self.subsets, self.table, self.p, self.policy_rng)
        self.subsets = [canonical(s) for s in line["chosen_subsets"]]
        self.masks = build_mask(self.subsets, self.config.expert_counts)
        self.p *= self.config.explore_decay
        self.trace.append(line)

    def final_greedy_subsets(self) -> list | None:
        """Argmax subsets from the last round's rankings and the full table."""
        if not self.trace:
            return None
        return [list(greedy(d, candidate_states(ranking), self.table))
                for d, ranking in enumerate(self.trace[-1]["rankings"])]


def train(config: RunConfig, out_dir=None) -> TrainResult:
    """Run one full training job; optionally write the output files."""
    started = time.perf_counter()
    run = _Run(config)
    cfg = config
    selecting = cfg.mode == "sdsp"
    history = []
    best = {"auc": -np.inf, "epoch": -1, "val": None, "params": None,
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
            if selecting and iteration % cfg.selection_interval == 0:
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
            best.update(auc=val["overall_auc"], epoch=epoch, val=val,
                        params=run.store.values.copy(),
                        masks=run.masks.copy(),
                        subsets=[tuple(s) for s in run.subsets])
            patience_left = cfg.early_stop_patience
        else:
            patience_left -= 1
            if patience_left < 0:
                break
    run.store.values[...] = best["params"]
    run.masks = best["masks"]
    run.subsets = list(best["subsets"])

    # The restored params and masks are the best epoch's, so its val
    # report is what evaluating them again would give.
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
        "val": best["val"],
        "test": test_report,
        "selection": {
            "rounds": len(run.trace),
            "final_p": run.p,
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
                         trace=run.trace)
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
    arrays = {f"param:{p.name}": p.values
              for p in _all_params(result.backbone, result.coders)}
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
        for p in _all_params(backbone, coders):
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
