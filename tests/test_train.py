import json
import math

import numpy as np
import pytest

from ctrlab import data, metrics, train
from ctrlab.config import RunConfig
from ctrlab.errors import ConfigError
from test_data import LoopSampler
from test_metrics import loop_average_ranks

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


def test_fixed_subset_keeps_configured_subsets(results):
    result, _ = results["fixed-subset"]
    assert result.report["selection"]["active_subsets"] == FIXED
    assert result.subsets == [tuple(s) for s in FIXED]


def test_full_share_activates_every_expert(results):
    result, _ = results["full-share"]
    assert result.report["selection"]["active_subsets"] == [[0, 1, 2]] * 3
    assert np.array_equal(result.masks, np.zeros((3, 4)))


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
    """Vectorized ranks and slice draws change no report or trace byte.

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

    monkeypatch.setattr(metrics, "_average_ranks", loop_average_ranks)
    monkeypatch.setattr(data, "QuotaSampler", RecordingLoopSampler)
    reference = train.train(config)

    assert sum(s.swaps for s in samplers) > 0
    assert without_timing(shipped.report) == without_timing(reference.report)
    assert (json.dumps(shipped.trace, sort_keys=True)
            == json.dumps(reference.trace, sort_keys=True))


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
