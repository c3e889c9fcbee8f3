import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ctrlab import data as D
from ctrlab.config import DATASET_KEYS, RunConfig, load_dataset
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


UNKNOWN_KEY = ("feature_nosie", 0.1,
               "synth dataset has unknown key 'feature_nosie'")

# A synthetic spec with one bad entry, and RunConfig's message for it. A
# message that is one of SynthSpec's range and shape rules behind
# "dataset " names the rule alone in its case's id.
MALFORMED_SYNTH = [
    ("sizes", 50, "dataset sizes must be a list, got 50"),
    ("noise", 0.1, "dataset noise must be a list, got 0.1"),
    ("noise", [float("nan"), 0.1],
     "dataset noise[0] must be a finite number, got nan"),
    ("noise", [0.1, "0.1"],
     "dataset noise[1] must be a finite number, got '0.1'"),
    pytest.param("noise", [0.1, 0.7],
                 "dataset noise probabilities must lie in [0, 0.5]",
                 id="noise-value4-noise probabilities must lie in [0, 0.5]"),
    pytest.param("noise", [0.1], "dataset noise must have shape (2,)",
                 id="noise-value5-noise must have shape (2,)"),
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
    pytest.param("affinity", [[1.0, 0.5], [0.5, 2.0]],
                 "dataset affinity entries must lie in [0, 1]",
                 id="affinity-value11-affinity entries must lie in [0, 1]"),
    ("affinity", [[1.0, 0.5], 0.5],
     "dataset affinity[1] must be a list, got 0.5"),
    ("affinity", 1.0, "dataset affinity must be a list, got 1.0"),
    pytest.param("affinity", [[1.0, 0.5]], "dataset affinity must be 2x2",
                 id="affinity-value14-affinity must be 2x2"),
    pytest.param("fields_per_concept", 0,
                 "dataset fields_per_concept must be >= 1, got 0",
                 id="fields_per_concept-0-fields_per_concept must be >= 1, "
                    "got 0"),
    pytest.param("vocab_size", 1, "dataset vocab_size must be >= 2, got 1",
                 id="vocab_size-1-vocab_size must be >= 2, got 1"),
    pytest.param("feature_noise", -1.0,
                 "dataset feature_noise must be a finite number >= 0, "
                 "got -1.0",
                 id="feature_noise--1.0-feature_noise must be a finite "
                    "number >= 0, got -1.0"),
    UNKNOWN_KEY,
    ("sizes", [-5, 400], "dataset sizes[0] must be >= 0, got -5"),
]


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
        ({"selection_interval": 0}, "selection_interval must be >= 1, got 0"),
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
        ({"domains": 1}, "domains must be >= 2, got 1"),
        ({"domains": 0}, "domains must be >= 2, got 0"),
        # A run needs rows to train on, select by and test on in every
        # domain, and split gives a zero-fraction partition none.
        ({"split_fractions": [0.9, 0.1, 0.0]},
         "split_fractions must all be positive, got [0.9, 0.1, 0.0]"),
        ({"split_fractions": [0.0, 0.5, 0.5]},
         "split_fractions must all be positive, got [0.0, 0.5, 0.5]"),
        ({"split_fractions": [0.5, 0.5, -0.0]},
         "split_fractions must all be positive, got [0.5, 0.5, -0.0]"),
        # Integers below their field's minimum (numpy's seeding refuses a
        # negative seed), then lists of the wrong length.
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"expert_counts": [1, 0]}, "expert_counts[1] must be >= 1, got 0"),
        ({"quotas": [8, 0]}, "quotas[1] must be >= 1, got 0"),
        ({"early_stop_patience": -1},
         "early_stop_patience must be >= 0, got -1"),
        ({"expert_counts": [1, 1, 1]},
         "expert_counts needs 2 entries, got [1, 1, 1]"),
        ({"quotas": [8]}, "quotas needs 2 entries, got [8]"),
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

    @pytest.mark.parametrize("sizes, named", [
        ([2, 100], "dataset sizes[0] must be >= 3, got 2"),
        ([100, 0], "dataset sizes[1] must be >= 3, got 0")])
    def test_synth_sizes_that_split_refuses_rejected(self, sizes, named):
        """A run splits every domain, so a synthetic size that split
        refuses fails at config time, not in the middle of train()."""
        raw = raw_config()
        raw["dataset"] = dict(raw["dataset"], sizes=sizes)
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw)
        assert str(err.value) == named
        assert D.SPLIT_MIN_SAMPLES == 3
        raw["dataset"]["sizes"] = [3, 100]
        parts = D.split(load_dataset(RunConfig.from_dict(raw)),
                        [0.8, 0.1, 0.1], seed=0).partitions
        assert [[len(dd) for dd in parts[name]] for name in D.PARTITIONS] == [
            [1, 80], [1, 10], [1, 10]]

    @pytest.mark.parametrize("subsets, named", [
        ([[0, 0, 1], [1, 1]], "fixed_subsets[0] names a domain twice: "
                              "[0, 0, 1]"),
        ([[0], [1, np.int64(1)]], "fixed_subsets[1] names a domain twice: "
                                  "[1, 1]")])
    def test_subset_naming_a_domain_twice_rejected(self, subsets, named):
        """A subset lists each domain once, so one run has one config
        hash."""
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw_config(mode="fixed-subset",
                                           fixed_subsets=subsets))
        assert str(err.value) == named

    @pytest.mark.parametrize("mode", ["sdsp", "full-share"])
    def test_fixed_subsets_rejected_outside_fixed_subset_mode(self, mode):
        """Only fixed-subset mode reads fixed_subsets; any other mode
        refuses them instead of ignoring them."""
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw_config(mode=mode,
                                           fixed_subsets=[[0], [1]]))
        assert str(err.value) == (f"fixed_subsets is read only in "
                                  f"fixed-subset mode, not in {mode!r} mode")

    @pytest.mark.parametrize("changes, named", [
        ({"split_fractions": 0.5}, "split_fractions must be a list, got 0.5"),
        ({"mode": "fixed-subset", "fixed_subsets": [0, 1]},
         "fixed_subsets[0] must be a list, got 0"),
        ({"mode": "fixed-subset", "fixed_subsets": 1},
         "fixed_subsets must be a list, got 1"),
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

    @pytest.mark.parametrize("key, value, named", MALFORMED_SYNTH)
    def test_malformed_synth_entries_rejected(self, key, value, named):
        raw = raw_config()
        raw["dataset"] = dict(raw["dataset"], **{key: value})
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw)
        assert str(err.value) == named

    @pytest.mark.parametrize("key, value, named", [
        case for case in MALFORMED_SYNTH if case is not UNKNOWN_KEY])
    def test_synth_rules_have_one_owner(self, key, value, named):
        """RunConfig's message for a malformed synthetic spec, as the test
        above checks it, is the direct SynthSpec's message behind
        "dataset "."""
        dataset = dict(SYNTH, **{key: value})
        del dataset["kind"]
        with pytest.raises(ConfigError) as direct:
            D.SynthSpec(2, **dataset)
        assert named == f"dataset {direct.value}"

    def test_synth_keys_are_synth_spec_fields(self):
        """A synthetic spec's keys are SynthSpec's fields after domains:
        those without a default are required, the others optional."""
        fields = dataclasses.fields(D.SynthSpec)
        assert fields[0].name == "domains"
        assert DATASET_KEYS["synth"] == (
            tuple(f.name for f in fields[1:]
                  if f.default is dataclasses.MISSING),
            tuple(f.name for f in fields[1:]
                  if f.default is not dataclasses.MISSING))
        assert DATASET_KEYS["synth"] == (
            ("affinity", "noise", "sizes"),
            ("fields_per_concept", "vocab_size", "feature_noise"))

    @pytest.mark.parametrize("key, value", [
        ("mode", np.array("sdsp")), ("mode", np.array(["sdsp", "sdsp"])),
        ("mode", 1), ("overall_metric", np.array(["mean"])),
        ("overall_metric", np.array(["mean", "pooled"])),
        ("overall_metric", None)],
        ids=["0-d array mode", "2-element array mode", "int mode",
             "1-element array overall_metric",
             "2-element array overall_metric", "None overall_metric"])
    def test_non_str_choice_rejected(self, key, value):
        """mode and overall_metric are strs: an array that holds a valid
        name is refused by name, not stored to crash the run's report or
        compared elementwise."""
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw_config(**{key: value}))
        assert str(err.value).startswith(f"{key} must be one of ")
        assert str(err.value).endswith(f", got {value!r}")

    def test_str_subclass_choice_stored_as_str(self):
        cfg = RunConfig.from_dict(raw_config(mode=np.str_("full-share"),
                                             overall_metric=np.str_("mean")))
        assert (type(cfg.mode), type(cfg.overall_metric)) == (str, str)
        assert cfg.to_json() == RunConfig.from_dict(raw_config(
            mode="full-share", overall_metric="mean")).to_json()

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
