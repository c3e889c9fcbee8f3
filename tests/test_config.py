import pytest

from ctrlab.config import RunConfig
from ctrlab.errors import ConfigError


def raw_config(**changes) -> dict:
    raw = {
        "domains": 2,
        "dataset": {"kind": "synth", "affinity": [[1.0, 0.5], [0.5, 1.0]],
                    "noise": [0.1, 0.1], "sizes": [50, 50]},
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
