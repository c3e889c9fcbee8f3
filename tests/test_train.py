import json
import math

import numpy as np
import pytest

from ctrlab import backbone, data, metrics, nn, prototype, train
from ctrlab.config import RunConfig
from ctrlab.errors import ConfigError
from test_backbone import loop_embed, loop_embed_backward
from test_data import LoopSampler
from test_metrics import loop_auc
from test_nn import loop_activate_grad, loop_masked_softmax, loop_sgd_step
from test_prototype import lexsort_order, loop_distance_matrix

CHAIN3 = [[1.0, 0.8, 0.0], [0.8, 1.0, 0.8], [0.0, 0.8, 1.0]]
FIXED = [[0], [0, 1], [1, 2]]


def tiny_config(mode: str, seed: int = 5) -> RunConfig:
    """Three chained domains, small enough to train in a fraction of a
    second; patience covers every epoch, so every run trains all of them."""
    return RunConfig(
        domains=3,
        dataset={"kind": "synth", "affinity": CHAIN3, "noise": [0.0] * 3,
                 "sizes": [240, 200, 160]},
        seed=seed, mode=mode, expert_counts=[1, 2, 1], batch_size=24,
        learning_rate=0.5, num_prototypes=4, selection_interval=3, epochs=3,
        early_stop_patience=3,
        fixed_subsets=FIXED if mode == "fixed-subset" else None)


@pytest.fixture(scope="module")
def results():
    """Two runs of each mode."""
    return {mode: (train.train(tiny_config(mode)),
                   train.train(tiny_config(mode)))
            for mode in ("sdsp", "full-share", "fixed-subset")}


def without_timing(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timing"},
                      sort_keys=True)


@pytest.mark.parametrize("mode", ["sdsp", "full-share", "fixed-subset"])
class TestTrain:
    def test_report_deterministic_apart_from_timing(self, results, mode):
        first, second = results[mode]
        assert without_timing(first.report) == without_timing(second.report)
        assert first.trace == second.trace

    def test_selection_round_count(self, results, mode):
        result, _ = results[mode]
        report = result.report
        assert report["epochs_run"] == 3
        iterations = report["epochs_run"] * report["steps_per_epoch"]
        expected = (math.ceil(iterations / result.config.selection_interval)
                    if mode == "sdsp" else 0)
        assert report["selection"]["rounds"] == expected
        assert len(result.trace) == expected
        # A round follows the train step of every selection_interval-th
        # iteration, starting at iteration 0.
        assert ([line["iteration"] for line in result.trace]
                == list(range(0, iterations,
                              result.config.selection_interval))[:expected])

    def test_outputs_reproduce_val_report(self, results, mode, tmp_path):
        result, _ = results[mode]
        train.write_outputs(result, tmp_path)
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            assert json.load(fh) == result.report
        backbone, _, masks, _ = train.load_checkpoint(
            tmp_path / "checkpoint.npz", result.config.config_hash())
        val = train.evaluate_partition(backbone, result.dataset, "val", masks,
                                       result.config.overall_metric)
        assert val == result.report["val"]


def test_zero_proto_loss_weight_leaves_the_coders_untrained():
    """With proto_loss_weight 0 the reconstruction loss is still measured,
    but no gradient reaches a prototype coder."""
    config = tiny_config("sdsp").replace(proto_loss_weight=0.0)
    initial = train._Run(config).coders
    first, second = train.train(config), train.train(config)
    for before, after in zip(initial, first.coders):
        for p, q in zip(before.params(), after.params()):
            assert p.values.tobytes() == q.values.tobytes(), p.name
    assert all(np.isfinite(h["l_rec"]) for h in first.report["history"])
    assert without_timing(first.report) == without_timing(second.report)


def test_fixed_subset_keeps_configured_subsets(results):
    result, _ = results["fixed-subset"]
    assert result.report["selection"]["active_subsets"] == FIXED
    assert result.subsets == [tuple(s) for s in FIXED]


def test_full_share_activates_every_expert(results):
    result, _ = results["full-share"]
    assert result.report["selection"]["active_subsets"] == [[0, 1, 2]] * 3
    assert np.array_equal(result.masks, np.zeros((3, 4)))


def test_best_epoch_params_are_restored(results):
    """The report's val section is the best epoch's, also where that epoch
    is not the last: the snapshot is a copy, not a view of the live
    parameters."""
    for mode, (result, _) in results.items():
        report = result.report
        best = report["history"][report["best_epoch"]]
        assert report["val"]["domains"] == best["val_domains"], mode
        assert report["val"]["overall_auc"] == best["val_overall_auc"], mode
    assert results["full-share"][0].report["best_epoch"] == 0


@pytest.mark.parametrize("mode", ["sdsp", "full-share"])
def test_val_is_evaluated_once_per_epoch_plus_test(mode, monkeypatch):
    """The report's val section is the best epoch's kept report, not a
    second pass over the val rows: one evaluation per epoch plus the test
    partition's."""
    calls = []
    evaluate = train.evaluate_partition

    def counting(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(train, "evaluate_partition", counting)
    config = tiny_config(mode).replace(epochs=4, early_stop_patience=1)
    report = train.train(config).report
    assert calls == ["val"] * report["epochs_run"] + ["test"]


@pytest.mark.parametrize("decay", [0.9, 1.0])
def test_p_decays_once_per_earlier_round(results, decay):
    """Each round explores with explore_init multiplied by explore_decay
    once per earlier round, and final_p is that product after the last
    round: the same bits, not merely close. A decay of 1 keeps p."""
    result = (results["sdsp"][0] if decay == 0.9 else train.train(
        tiny_config("sdsp").replace(explore_init=0.5, explore_decay=decay)))
    p = result.config.explore_init
    assert result.config.explore_decay == decay
    for line in result.trace:
        assert line["p"].hex() == p.hex()
        p *= decay
    assert result.report["selection"]["final_p"].hex() == p.hex()
    if decay == 1.0:
        assert p == 0.5


def test_round_masks_follow_chosen_subsets(monkeypatch):
    """After every round the gate masks are the chosen subsets' masks."""
    seen = []
    selection_round = train._Run.selection_round

    def recording(run, iteration):
        selection_round(run, iteration)
        seen.append((run.trace[-1]["chosen_subsets"], run.masks.copy()))

    monkeypatch.setattr(train._Run, "selection_round", recording)
    result = train.train(tiny_config("sdsp"))
    assert len(seen) == result.report["selection"]["rounds"]
    for chosen, masks in seen:
        assert np.array_equal(
            masks, backbone.build_mask(chosen, result.config.expert_counts))
    # Some round leaves an expert out, so the masks are not all zero.
    assert any(np.isneginf(masks).any() for _, masks in seen)


def test_timing_has_every_stage(results):
    stages = {"train_seconds", "train_step_s", "selection_distance_s",
              "selection_reward_s", "epoch_eval_s"}
    for mode, (result, _) in results.items():
        timing = result.report["timing"]
        assert set(timing) == stages, mode
        assert all(v >= 0.0 for v in timing.values()), mode
        assert timing["train_step_s"] > 0.0
    sdsp = results["sdsp"][0].report["timing"]
    assert sdsp["selection_distance_s"] > 0.0
    assert sdsp["selection_reward_s"] > 0.0


def test_same_decisions_as_loop_references(monkeypatch):
    """The rank sum read off one unstable sort and the slice draws change
    no report or trace byte.

    Domain 2's train split (48 rows) is a little larger than its quota (40),
    so most of its batches wrap and go through de-duplication."""
    config = tiny_config("sdsp").replace(
        dataset={"kind": "synth", "affinity": CHAIN3, "noise": [0.0] * 3,
                 "sizes": [240, 200, 60]},
        batch_size=56, quotas=[8, 8, 40])
    shipped = train.train(config)

    samplers = []

    class RecordingLoopSampler(LoopSampler):
        def __init__(self, *args):
            super().__init__(*args)
            samplers.append(self)

    monkeypatch.setattr(metrics, "auc", loop_auc)
    monkeypatch.setattr(data, "QuotaSampler", RecordingLoopSampler)
    reference = train.train(config)

    assert sum(s.swaps for s in samplers) > 0
    assert without_timing(shipped.report) == without_timing(reference.report)
    assert (json.dumps(shipped.trace, sort_keys=True)
            == json.dumps(reference.trace, sort_keys=True))


def test_same_decisions_as_per_call_references(results, monkeypatch):
    """The single-gather embed, the flat embedding gradient, the softmax
    over active columns, the bool ReLU gradient, the argsort row order, the
    one-array SGD step and the one-pass-per-source distance matrix change
    no report or trace byte."""
    shipped, _ = results["sdsp"]
    monkeypatch.setattr(backbone.Backbone, "embed", loop_embed)
    monkeypatch.setattr(backbone.Backbone, "_embed_backward",
                        loop_embed_backward)
    monkeypatch.setattr(backbone, "masked_softmax", loop_masked_softmax)
    monkeypatch.setattr(nn, "_activate_grad", loop_activate_grad)
    monkeypatch.setattr(prototype, "_sort_order", lexsort_order)
    monkeypatch.setattr(nn, "sgd_step", loop_sgd_step)
    monkeypatch.setattr(prototype, "distance_matrix", loop_distance_matrix)
    reference = train.train(tiny_config("sdsp"))

    assert without_timing(shipped.report) == without_timing(reference.report)
    assert (json.dumps(shipped.trace, sort_keys=True)
            == json.dumps(reference.trace, sort_keys=True))


@pytest.mark.parametrize("mode,part,label", [
    ("sdsp", "val", 0.0), ("full-share", "val", 0.0),
    ("fixed-subset", "test", 1.0)])
def test_single_class_partition_is_config_error(mode, part, label,
                                                monkeypatch):
    """Domain 1's val or test rows carry one label, so its AUC there is
    undefined: the run stops before training and says where, instead of
    failing at the first selection round or evaluation."""
    split = data.split

    def one_class(*args, **kwargs):
        dataset = split(*args, **kwargs)
        dataset.domain(part, 1).labels[...] = label
        return dataset

    monkeypatch.setattr(data, "split", one_class)
    with pytest.raises(ConfigError, match=rf"^{part} partition of domain 1 "
                       rf"holds only label {label:g}; its AUC is undefined$"):
        train.train(tiny_config(mode))


class TestCheckpoint:
    """The one checkpoint format: train.save_checkpoint/load_checkpoint."""

    @pytest.fixture
    def saved(self, results, tmp_path):
        result, _ = results["fixed-subset"]
        path = tmp_path / "checkpoint.npz"
        train.save_checkpoint(result, path)
        return result, path

    @staticmethod
    def rewrite(path, change):
        """Re-save the checkpoint's arrays after change(arrays)."""
        with np.load(path) as zf:
            arrays = {key: zf[key] for key in zf.files}
        change(arrays)
        np.savez(path, **arrays)

    def test_round_trip_bit_exact(self, saved):
        result, path = saved
        backbone, coders, masks, subsets = train.load_checkpoint(
            path, expected_hash=result.config.config_hash())
        before = list(result.backbone.params())
        after = list(backbone.params())
        for old, new in zip(result.coders, coders):
            before += old.params()
            after += new.params()
        assert len(before) == len(after)
        for p, q in zip(before, after):
            assert p.name == q.name
            assert p.values.shape == q.values.shape
            assert np.array_equal(p.values, q.values), p.name
        assert np.array_equal(masks, result.masks)
        assert subsets == result.subsets

    def test_hash_mismatch_rejected(self, saved):
        _, path = saved
        with pytest.raises(ConfigError):
            train.load_checkpoint(path, expected_hash="0" * 16)

    def test_missing_tensor_rejected(self, saved):
        _, path = saved
        self.rewrite(path, lambda arrays: arrays.pop("param:proto.d1.dec_w"))
        with pytest.raises(ConfigError, match="missing"):
            train.load_checkpoint(path)

    def test_truncated_tensor_rejected(self, saved):
        _, path = saved
        key = "param:expert.d1e0.l0.b"

        def truncate(arrays):
            assert arrays[key].shape == (8,)
            arrays[key] = arrays[key][:1]

        self.rewrite(path, truncate)
        with pytest.raises(ConfigError, match="shape"):
            train.load_checkpoint(path)

    def test_per_field_embedding_tensors_rejected(self, saved):
        """The table is one (sum of vocab, embed_dim) tensor; a checkpoint
        that stores it per field does not load."""
        result, path = saved
        vocab = result.backbone.vocab_sizes

        def per_field(arrays):
            table = arrays.pop("param:embedding")
            assert table.shape == (sum(vocab), result.backbone.embed_dim)
            for j, rows in enumerate(
                    np.split(table, np.cumsum(vocab)[:-1])):
                arrays[f"param:embedding.f{j}"] = rows

        self.rewrite(path, per_field)
        with pytest.raises(ConfigError, match="missing tensor 'embedding'"):
            train.load_checkpoint(path)
