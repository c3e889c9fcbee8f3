from pathlib import Path

import numpy as np
import pytest

from ctrlab.config import RunConfig
from ctrlab.errors import ConfigError


SYNTH = {"kind": "synth", "affinity": [[1.0, 0.5], [0.5, 1.0]],
         "noise": [0.1, 0.1], "sizes": [50, 50]}


def raw_config(**changes) -> dict:
    raw = {
        "domains": 2,
        "dataset": dict(SYNTH),
        "seed": 3, "mode": "sdsp", "batch_size": 8, "learning_rate": 0.5,
    }
    raw.update(changes)
    return raw


class TestRunConfig:
    @pytest.mark.parametrize("key", ["pin_full_share", "reward_metric",
                                     "value_aggregation"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict(raw_config(**{key: "x"}))

    def test_exhaustive_oracle_is_not_a_mode(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw_config(mode="exhaustive-oracle"))

    def test_json_round_trip(self):
        cfg = RunConfig.from_dict(raw_config(
            mode="fixed-subset", fixed_subsets=[[0], [1, 0]]))
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.to_json() == cfg.to_json()
        assert again.fixed_subsets == [[0], [0, 1]]

    def test_hash_independent_of_key_order(self):
        raw = raw_config()
        reordered = dict(reversed(list(raw.items())))
        reordered["dataset"] = dict(reversed(list(raw["dataset"].items())))
        assert list(reordered) != list(raw)
        assert (RunConfig.from_dict(reordered).config_hash()
                == RunConfig.from_dict(raw).config_hash())

    def test_hash_tracks_values(self):
        cfg = RunConfig.from_dict(raw_config())
        assert cfg.replace(seed=4).config_hash() != cfg.config_hash()

    def test_replace_revalidates(self):
        cfg = RunConfig.from_dict(raw_config())
        assert cfg.replace(epochs=2).epochs == 2
        with pytest.raises(ConfigError):
            cfg.replace(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            cfg.replace(mode="fixed-subset")  # needs fixed_subsets
        with pytest.raises(ConfigError):
            cfg.replace(reward_metric="auc")

    @pytest.mark.parametrize("changes, named", [
        ({"expert_counts": [2.7, 1.2]},
         "expert_counts[0] must be an integer, got 2.7"),
        ({"quotas": [4.9, 4.2]}, "quotas[0] must be an integer, got 4.9"),
        ({"mode": "fixed-subset", "fixed_subsets": [[0, 1.9], [1]]},
         "fixed_subsets[0] entry must be an integer, got 1.9"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"embedding_dim": True},
         "embedding_dim must be an integer, got True"),
        ({"early_stop_patience": "3"},
         "early_stop_patience must be an integer, got '3'"),
        ({"domains": 2.0}, "domains must be an integer, got 2.0"),
        ({"seed": np.float64(3.0)},
         "seed must be an integer, got np.float64(3.0)"),
        ({"expert_counts": [np.bool_(True), 1]},
         "expert_counts[0] must be an integer, got np.True_"),
        ({"explore_init": 1.5}, "explore_init must lie in [0, 1]"),
        ({"explore_decay": 0.0}, "explore_decay must lie in (0, 1]"),
        ({"selection_interval": 0}, "selection_interval must be >= 1"),
        ({"learning_rate": float("nan")},
         "learning_rate must be a finite number, got nan"),
        ({"proto_loss_weight": float("nan")},
         "proto_loss_weight must be a finite number, got nan"),
        ({"split_fractions": [0.8, float("nan"), 0.1]},
         "split_fractions[1] must be a finite number, got nan"),
        ({"explore_decay": float("inf")},
         "explore_decay must be a finite number, got inf"),
        ({"learning_rate": True},
         "learning_rate must be a finite number, got True"),
        ({"explore_init": np.bool_(False)},
         "explore_init must be a finite number, got np.False_"),
        ({"learning_rate": "0.1"},
         "learning_rate must be a finite number, got '0.1'"),
        ({"split_fractions": ["a", 0.1, 0.1]},
         "split_fractions[0] must be a finite number, got 'a'"),
        ({"split_fractions": [0.5, 0.5]},
         "split_fractions needs 3 entries, got 2"),
        ({"split_fractions": [0.5, 0.5, 0.5]},
         "split_fractions must be >= 0 and sum to 1, got [0.5, 0.5, 0.5]"),
        ({"split_fractions": [-0.1, 0.6, 0.5]},
         "split_fractions must be >= 0 and sum to 1, got [-0.1, 0.6, 0.5]"),
    ])
    def test_non_integer_fields_rejected(self, changes, named):
        """A malformed or out-of-range number fails with a ConfigError that
        names its field."""
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw_config(**changes))
        assert str(err.value) == named

    @pytest.mark.parametrize("key, value", [
        ("sizes", [50.7, 50]), ("fields_per_concept", 2.5),
        ("vocab_size", False)])
    def test_non_integer_synth_entries_rejected(self, key, value):
        raw = raw_config()
        raw["dataset"] = dict(raw["dataset"], **{key: value})
        with pytest.raises(ConfigError, match=f"dataset {key}"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("changes, named", [
        ({"split_fractions": 0.5}, "split_fractions must be a list, got 0.5"),
        ({"mode": "fixed-subset", "fixed_subsets": [0, 1]},
         "fixed_subsets[0] must be a list, got 0"),
        ({"fixed_subsets": 1}, "fixed_subsets must be a list, got 1"),
        ({"expert_counts": 3}, "expert_counts must be a list, got 3"),
        ({"quotas": 5}, "quotas must be a list, got 5"),
        ({"quotas": "44"}, "quotas must be a list, got '44'"),
    ])
    def test_non_list_fields_rejected(self, changes, named):
        """A scalar where a list belongs fails with a ConfigError that names
        its field, not with a TypeError from len() or iteration."""
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw_config(**changes))
        assert str(err.value) == named

    @pytest.mark.parametrize("key, value, named", [
        ("sizes", 50, "dataset sizes must be a list, got 50"),
        ("noise", 0.1, "dataset noise must be a list, got 0.1"),
        ("noise", [float("nan"), 0.1],
         "dataset noise[0] must be a finite number, got nan"),
        ("noise", [0.1, "0.1"],
         "dataset noise[1] must be a finite number, got '0.1'"),
        ("noise", [0.1, 0.7], "noise probabilities must lie in [0, 0.5]"),
        ("noise", [0.1], "noise must have shape (2,)"),
        ("feature_noise", float("nan"),
         "dataset feature_noise must be a finite number, got nan"),
        ("feature_noise", float("inf"),
         "dataset feature_noise must be a finite number, got inf"),
        ("feature_noise", "x",
         "dataset feature_noise must be a finite number, got 'x'"),
        ("affinity", [[1.0, float("nan")], [0.5, 1.0]],
         "dataset affinity[0][1] must be a finite number, got nan"),
        ("affinity", [[1.0, 0.5], [True, 1.0]],
         "dataset affinity[1][0] must be a finite number, got True"),
        ("affinity", [[1.0, 0.5], [0.5, 2.0]],
         "affinity entries must lie in [0, 1]"),
        ("affinity", [[1.0, 0.5], 0.5],
         "dataset affinity[1] must be a list, got 0.5"),
        ("affinity", 1.0, "dataset affinity must be a list, got 1.0"),
        ("affinity", [[1.0, 0.5]], "affinity must be 2x2"),
        ("fields_per_concept", 0,
         "need fields_per_concept >= 1 and vocab_size >= 2"),
        ("vocab_size", 1, "need fields_per_concept >= 1 and vocab_size >= 2"),
        ("feature_noise", -1.0,
         "feature_noise must be a finite number >= 0, got -1.0"),
        ("feature_nosie", 0.1, "synth dataset has unknown key 'feature_nosie'"),
    ])
    def test_malformed_synth_entries_rejected(self, key, value, named):
        raw = raw_config()
        raw["dataset"] = dict(raw["dataset"], **{key: value})
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw)
        assert str(err.value) == named

    @pytest.mark.parametrize("dataset, named", [
        ({"kind": "csv", "path": 3, "schema": "s.json"},
         "dataset path must be a str or os.PathLike, got 3"),
        ({"kind": "csv", "path": "d.csv", "schema": b"s.json"},
         "dataset schema must be a str or os.PathLike, got b's.json'"),
        ({"kind": "csv", "path": "d.csv", "schema": "s.json", "sizes": [9]},
         "csv dataset has unknown key 'sizes'"),
        ({"kind": ["csv"]}, 'dataset kind must be "synth" or "csv", '
                            "got ['csv']"),
    ], ids=["int path", "bytes schema", "synth key in csv", "list kind"])
    def test_malformed_dataset_rejected(self, dataset, named):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw_config(dataset=dataset))
        assert str(err.value) == named

    @pytest.mark.parametrize("dataset, plain", [
        (dict(SYNTH, affinity=np.array([[1.0, 0.5], [0.5, 1.0]])),
         dict(SYNTH, affinity=[[1.0, 0.5], [0.5, 1.0]])),
        (dict(SYNTH, affinity=[np.array([1.0, 0.5]), [np.float32(0.5), 1]]),
         dict(SYNTH, affinity=[[1.0, 0.5], [0.5, 1]])),
        (dict(SYNTH, noise=np.array([0.1, 0.1])), dict(SYNTH, noise=[0.1, 0.1])),
        (dict(SYNTH, feature_noise=np.float32(0.3)),
         dict(SYNTH, feature_noise=float(np.float32(0.3)))),
        ({"kind": "csv", "path": Path("d.csv"), "schema": Path("s.json")},
         {"kind": "csv", "path": "d.csv", "schema": "s.json"}),
    ], ids=["array affinity", "array row and float32 entry", "array noise",
            "float32 feature_noise", "Path path and schema"])
    def test_dataset_values_are_stored_as_json_values(self, dataset, plain):
        """A numpy value or path in the dataset spec is stored as the equal
        JSON value, so the config hashes like the spec written with it."""
        cfg = RunConfig.from_dict(raw_config(dataset=dataset))
        want = RunConfig.from_dict(raw_config(dataset=plain))
        assert cfg.dataset == want.dataset
        assert cfg.config_hash() == want.config_hash()

    def test_synth_values_are_stored_as_given(self):
        """The synthetic spec is checked, not rewritten: ints stay ints, so
        the config hash is unchanged."""
        raw = raw_config()
        raw["dataset"] = dict(raw["dataset"], affinity=[[1, 0], [0, 1]],
                              noise=(0, 0.25), feature_noise=0)
        cfg = RunConfig.from_dict(raw)
        for key in ("affinity", "noise", "feature_noise"):
            assert cfg.dataset[key] == raw["dataset"][key]

    def test_numpy_integers_become_ints(self):
        raw = raw_config(epochs=np.int64(3), quotas=[np.int32(5), 3],
                         expert_counts=[np.int64(2), 1],
                         mode="fixed-subset",
                         fixed_subsets=[[np.int64(0)], [1, np.uint8(0)]])
        raw["dataset"] = dict(raw["dataset"], sizes=[np.int64(50), 50])
        cfg = RunConfig.from_dict(raw)
        assert cfg.config_hash() == RunConfig.from_dict(raw_config(
            epochs=3, quotas=[5, 3], expert_counts=[2, 1],
            mode="fixed-subset", fixed_subsets=[[0], [1, 0]])).config_hash()
        assert type(cfg.epochs) is int
        assert [type(v) for v in cfg.quotas + cfg.dataset["sizes"]] == [int] * 4
        assert raw["dataset"]["sizes"][0].dtype == np.int64  # caller's dict

    def test_numbers_become_floats(self):
        """Float fields store Python floats, so a numpy number hashes and
        an int hashes like the float it equals."""
        numpy_raw = raw_config(
            learning_rate=1, proto_loss_weight=np.float32(0.5),
            explore_init=np.float64(1), explore_decay=np.int64(1),
            split_fractions=[np.float32(0.5), 0.25, 0.25])
        cfg = RunConfig.from_dict(numpy_raw)
        assert cfg.config_hash() == RunConfig.from_dict(raw_config(
            learning_rate=1.0, proto_loss_weight=0.5, explore_init=1.0,
            explore_decay=1.0, split_fractions=[0.5, 0.25, 0.25])).config_hash()
        values = [cfg.learning_rate, cfg.proto_loss_weight, cfg.explore_init,
                  cfg.explore_decay] + cfg.split_fractions
        assert [type(v) for v in values] == [float] * 7
