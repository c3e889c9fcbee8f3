"""Training orchestration.

One run: split the dataset by split_fractions, build the backbone and
per-domain prototype coders, then iterate fixed-quota batches minimizing

    L_final = L_ctr + gamma * L_rec

where L_ctr sums each domain's mean binary cross-entropy and L_rec sums the
per-domain prototype reconstruction errors. In sdsp mode, every
selection_interval-th iteration (starting at iteration 0, after that
iteration's train step) runs a selection round: measure domain distances
from the prototypes that train step learned, credit each domain's
validation metric to its active subset, epsilon-greedily pick new subsets,
rebuild gate masks, and multiply the exploration probability by
explore_decay. full-share keeps all-zero masks and never selects;
fixed-subset pins the masks from the config. The report's final distance
matrix comes from a fresh quota batch: a no-cache forward per domain, then
prototype.distance_round.

train() returns the Run it trained, with its report set: the config, the
split dataset, backbone, coders and parameter store, the active subsets
and their masks, and the selection trace. Run.choose is the one place
where subsets become gate masks: at the start, after each selection
round, and when the best epoch's subsets are restored.

Randomness is split into named streams (init, batches, policy, report)
derived from the run seed, so, for example, selection rounds never perturb
the training batch sequence. Reports are byte-identical across
runs of the same config and seed, except for the wall-clock "timing"
section: the whole run's seconds plus the seconds spent in train steps,
in the selection rounds' distance and reward passes, and in the per-epoch
validation.

write_outputs fills a run directory with four files: report.json,
selection_trace.log (one JSON line per selection round),
distance_matrix.csv and checkpoint.npz. The checkpoint holds two arrays:
"values", every parameter in one flat float64 array in the model store's
order, and "meta", the JSON of the config, the vocabulary sizes, the
active subsets and the weight layout, from which load_checkpoint rebuilds
the model. The layout is "in_bias_out": every ``Mlp`` weight is stored
(fan_in + 1, fan_out) with its bias as the last row; the prototype
coders' enc_w (M, B), enc_b, dec_w (B, M) and dec_b keep their own
shapes. A checkpoint of
another layout or without the key is refused by name rather than loaded
into the wrong places: the earlier "in_out" kept separate biases, and
"in_out_bias_row" gave each hidden layer's weight one more column, a
constant [0, ..., 0, 1]. A checkpoint holding a non-finite value is
refused too.
"""

from __future__ import annotations

import json
import time
import zipfile
from contextlib import contextmanager

import numpy as np

from . import data as data_mod
from . import metrics, nn
from .backbone import Backbone, build_mask, check_subsets
from .config import RunConfig, load_dataset
from .errors import ConfigError, NumericError, UsageError
from .prototype import (ProtoCoder, distance_matrix, distance_round,
                        save_distance_csv)
from .selection import ValueTable, canonical, candidate_states, greedy, sdsp_round

__all__ = ["train", "Run", "evaluate_partition", "save_checkpoint",
           "load_checkpoint", "measure_distances", "write_outputs"]

# The checkpoint meta's name for the dense weights' layout: (fan_in + 1,
# fan_out), the bias as the last row.
WEIGHT_LAYOUT = "in_bias_out"
META_KEYS = ["config", "subsets", "vocab_sizes", "weight_layout"]


def _build_model(config: RunConfig, vocab_sizes, rng: np.random.Generator):
    """(backbone, coders, store): the backbone, then each domain's prototype
    coder, drawn from rng in that order, and one ParamStore over the
    backbone's params followed by each coder's."""
    backbone = Backbone(vocab_sizes, config.embedding_dim,
                        config.expert_counts, config.expert_hidden,
                        config.repr_dim, config.tower_hidden, rng)
    coders = [ProtoCoder(d, config.quotas[d], config.num_prototypes, rng)
              for d in range(config.domains)]
    store = nn.ParamStore(backbone.params()
                          + [p for c in coders for p in c.params()])
    return backbone, coders, store


def evaluate_partition(backbone: Backbone, dataset: data_mod.DomainDataset,
                       partition: str, masks: np.ndarray,
                       overall: str = "pooled") -> dict:
    """Per-domain and overall AUC/LogLoss on one partition; a UsageError
    names a dataset whose domain count is not the backbone's."""
    if dataset.schema.domains != backbone.num_domains:
        raise UsageError(f"dataset has {dataset.schema.domains} domains, "
                         f"backbone {backbone.num_domains}")
    datas = dataset.partition(partition)
    scores = [backbone.predict(dd.features, d, masks)
              for d, dd in enumerate(datas)]
    return metrics.per_domain_report(scores, [dd.labels for dd in datas],
                                     overall=overall)


def measure_distances(backbone: Backbone, coders: list,
                      dataset: data_mod.DomainDataset, masks: np.ndarray,
                      quotas: list, rng: np.random.Generator) -> np.ndarray:
    """Distance matrix from a fresh quota batch of train rows per domain."""
    datas = [dataset.domain("train", d) for d in range(backbone.num_domains)]
    batch = data_mod.QuotaSampler(datas, quotas, rng).next_batch()
    hs = [backbone.forward_domain(feats, d, masks, cache=False)[1]
          for d, (feats, _) in enumerate(batch)]
    return distance_round(hs, coders)


class Run:
    """Mutable state for one training run; train() returns it trained, with
    its report set."""

    def __init__(self, config: RunConfig):
        self.config = config
        dataset = load_dataset(config)
        self.dataset = data_mod.split(dataset, config.split_fractions,
                                      seed=config.seed)
        # RunConfig's positive split fractions give every partition of
        # every domain a row. Validation and test AUC need both classes.
        for part in ("val", "test"):
            for d, dd in enumerate(self.dataset.partition(part)):
                labels = dd.labels
                if np.all(labels == labels[0]):
                    raise ConfigError(
                        f"{part} partition of domain {d} holds only label "
                        f"{labels[0]:g}; its AUC is undefined")
        # Stream 2 is unused; the other streams keep their indices.
        streams = np.random.SeedSequence(config.seed).spawn(5)
        self.policy_rng = np.random.default_rng(streams[3])
        self.report_rng = np.random.default_rng(streams[4])

        self.backbone, self.coders, self.store = _build_model(
            config, self.dataset.schema.vocab_sizes,
            np.random.default_rng(streams[0]))
        train_datas = self.dataset.partition("train")
        self.sampler = data_mod.QuotaSampler(
            train_datas, config.quotas, np.random.default_rng(streams[1]))
        self.protos = None  # per domain, from the last train step
        self.table = ValueTable(config.domains)
        # Exploration probability of the next selection round.
        self.p = config.explore_init
        self.choose(config.fixed_subsets if config.mode == "fixed-subset"
                    else [range(config.domains)] * config.domains)
        self.trace = []
        self.report = None  # set by train()
        # Seconds per stage, reported beside the whole run's seconds.
        self.timing = dict.fromkeys(
            ("train_step_s", "selection_distance_s", "selection_reward_s",
             "epoch_eval_s"), 0.0)
        self.steps_per_epoch = max(
            -(-len(dd) // q) for dd, q in zip(train_datas, config.quotas))

    def choose(self, subsets) -> None:
        """Make ``subsets`` the active subsets, as canonical tuples, and
        their build_mask rows the gate masks."""
        self.subsets = [canonical(s) for s in subsets]
        self.masks = build_mask(self.subsets, self.config.expert_counts)

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
        """One quota batch through all domains; returns (ctr, rec, final).
        Keeps each domain's prototypes, from the pre-update parameters."""
        cfg = self.config
        batch = self.sampler.next_batch()
        gamma = cfg.proto_loss_weight
        total_ctr = 0.0
        total_rec = 0.0
        self.protos = []
        for d, (feats, labels) in enumerate(batch):
            preds, h = self.backbone.forward_domain(feats, d, self.masks)
            l_ctr, dpreds = nn.bce_loss(preds, labels)
            l_rec, protos = self.coders[d].reconstruction(h)
            self.protos.append(protos)
            self.backbone.backward_domain(
                d, dpreds, dh_extra=self.coders[d].backward(scale=gamma))
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
        if self.protos is None:
            raise UsageError("a selection round needs a train step before it")
        with self.timed("selection_distance_s"):
            return distance_matrix(self.protos)

    def reward_fn(self, d: int) -> float:
        with self.timed("selection_reward_s"):
            dd = self.dataset.domain("val", d)
            preds = self.backbone.predict(dd.features, d, self.masks)
            return metrics.auc(preds, dd.labels)

    def selection_round(self, iteration: int) -> None:
        line = sdsp_round(iteration, self.distance_fn, self.reward_fn,
                          self.subsets, self.table, self.p, self.policy_rng)
        self.choose(line["chosen_subsets"])
        self.p *= self.config.explore_decay
        self.trace.append(line)

    def final_greedy_subsets(self) -> list | None:
        """Argmax subsets from the last round's rankings and the full table."""
        if not self.trace:
            return None
        return [list(greedy(d, candidate_states(ranking), self.table))
                for d, ranking in enumerate(self.trace[-1]["rankings"])]


def train(config: RunConfig, out_dir=None) -> Run:
    """Run one full training job and return its Run, with the report set;
    optionally write the output files."""
    started = time.perf_counter()
    run = Run(config)
    selecting = config.mode == "sdsp"
    history = []
    best = {"auc": -np.inf, "epoch": -1, "val": None, "params": None,
            "subsets": None}
    patience_left = config.early_stop_patience
    iteration = 0
    for epoch in range(config.epochs):
        sums = np.zeros(3)
        for _ in range(run.steps_per_epoch):
            with run.timed("train_step_s"):
                losses = run.train_step()
            sums += losses
            if selecting and iteration % config.selection_interval == 0:
                run.selection_round(iteration)
            iteration += 1
        means = sums / run.steps_per_epoch
        with run.timed("epoch_eval_s"):
            val = evaluate_partition(run.backbone, run.dataset, "val",
                                     run.masks, config.overall_metric)
        history.append({
            "epoch": epoch,
            "l_ctr": float(means[0]),
            "l_rec": float(means[1]),
            "l_final": float(means[2]),
            "val_overall_auc": val["overall_auc"],
            "val_overall_logloss": val["overall_logloss"],
            "val_domains": val["domains"],
        })
        if val["overall_auc"] > best["auc"]:
            # choose() rebinds the subsets list and never mutates it.
            best.update(auc=val["overall_auc"], epoch=epoch, val=val,
                        params=run.store.values.copy(), subsets=run.subsets)
            patience_left = config.early_stop_patience
        else:
            patience_left -= 1
            if patience_left < 0:
                break
    run.store.values[...] = best["params"]
    run.choose(best["subsets"])

    # The restored params and masks are the best epoch's, so its val
    # report is what evaluating them again would give.
    test_report = evaluate_partition(run.backbone, run.dataset, "test",
                                     run.masks, config.overall_metric)
    final_matrix = measure_distances(run.backbone, run.coders, run.dataset,
                                     run.masks, config.quotas, run.report_rng)
    run.report = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "mode": config.mode,
        "seed": config.seed,
        "steps_per_epoch": run.steps_per_epoch,
        "epochs_run": len(history),
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
    if out_dir is not None:
        write_outputs(run, out_dir)
    return run


# ------------------------------------------------------------------ outputs

def write_outputs(run: Run, out_dir) -> None:
    """Write the run's four files into ``out_dir``, made if need be; a
    directory or file that cannot be written raises a ConfigError naming
    ``out_dir``."""
    import os
    with data_mod.file_errors(out_dir, ConfigError, "written"):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(run.report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "selection_trace.log"), "w",
                  encoding="utf-8") as fh:
            for line in run.trace:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        save_distance_csv(np.asarray(run.report["final_distance_matrix"]),
                          os.path.join(out_dir, "distance_matrix.csv"))
    save_checkpoint(run, os.path.join(out_dir, "checkpoint.npz"))


def save_checkpoint(run: Run, path) -> None:
    """The run's store of parameters as "values", and its config,
    vocabulary sizes, subsets and weight layout as the JSON "meta"."""
    meta = {"config": run.config.to_dict(),
            "vocab_sizes": list(run.backbone.vocab_sizes),
            "subsets": [list(s) for s in run.subsets],
            "weight_layout": WEIGHT_LAYOUT}
    # np.savez writes to the file opened here, so a path without the .npz
    # suffix is written as it is, not with the suffix appended.
    with (data_mod.file_errors(path, ConfigError, "written"),
          open(path, "wb") as fh):
        np.savez(fh, values=run.store.values,
                 meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


def load_checkpoint(path):
    """Rebuild (config, backbone, coders, masks, subsets) from a checkpoint.

    The file must be an npz archive of exactly "values" and "meta"; "meta"
    must be UTF-8 JSON of exactly META_KEYS, whose weight layout is
    WEIGHT_LAYOUT, whose config RunConfig accepts and whose subsets pass
    the rule for fixed_subsets; and "values" must be float64 of exactly
    the shape the stored config gives the model, every entry finite.
    Anything else raises a ConfigError naming the path (and, for a value,
    the param holding it) rather than being cast or broadcast into place.
    """
    try:
        return _load_checkpoint(path)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_checkpoint(path):
    # np.load reads a file opened here, so the file is closed whatever
    # np.load finds in it.
    try:
        with open(path, "rb") as fh:
            zf = np.load(fh)
            if not isinstance(zf, np.lib.npyio.NpzFile):
                raise ConfigError("not a checkpoint file (an .npy array, "
                                  "not an .npz archive)")
            if set(zf.files) != {"values", "meta"}:
                raise ConfigError(f"checkpoint holds arrays "
                                  f"{sorted(zf.files)}, expected "
                                  "['meta', 'values']")
            meta = json.loads(bytes(zf["meta"]).decode())
            values = zf["values"]
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"not a checkpoint file ({exc})") from exc
    data_mod.check_keys(meta, "checkpoint meta", META_KEYS, error=ConfigError)
    if meta["weight_layout"] != WEIGHT_LAYOUT:
        raise ConfigError("checkpoint weight layout is "
                          f"{meta['weight_layout']!r}, expected "
                          f"{WEIGHT_LAYOUT!r}")
    config = RunConfig.from_dict(meta["config"])
    subsets = [canonical(s) for s in
               check_subsets(meta["subsets"], config.domains, "subsets")]
    backbone, coders, store = _build_model(config, meta["vocab_sizes"],
                                           np.random.default_rng(0))
    if values.dtype != np.float64 or values.shape != store.values.shape:
        raise ConfigError(
            f"checkpoint values are {values.dtype} of shape {values.shape}, "
            f"expected float64 of shape {store.values.shape}")
    store.values[...] = values
    bad = store.first_non_finite(store.values)
    if bad is not None:
        raise ConfigError(f"non-finite value in parameter {bad.name!r}")
    masks = build_mask(subsets, config.expert_counts)
    return config, backbone, coders, masks, subsets
