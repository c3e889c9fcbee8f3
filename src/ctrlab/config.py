"""Run configuration: validation, JSON round-trip, dataset loading.

The config file is a JSON object whose keys mirror RunConfig field names
exactly. The dataset source is either a planted synthetic spec or a CSV
path plus schema file. A short hash of the canonical config JSON travels
with checkpoints and reports so artifacts can be matched to their run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .data import as_int
from .errors import ConfigError

__all__ = ["RunConfig", "MODES", "load_dataset"]

MODES = ("sdsp", "full-share", "fixed-subset")
OVERALL_METRICS = ("pooled", "mean")
# synth_generate's options, which a synthetic spec may set.
SYNTH_OPTIONS = ("fields_per_concept", "vocab_size", "feature_noise")
# The keys beside "kind" that each dataset kind requires, then may set.
DATASET_KEYS = {"synth": (("affinity", "noise", "sizes"), SYNTH_OPTIONS),
                "csv": (("path", "schema"), ())}


def _as_float(value, name: str) -> float:
    """``value`` as a ``float`` if it is a finite int, float or numpy number
    and not a bool; anything else raises ConfigError naming ``name`` and the
    value."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _as_list(value, name: str) -> list:
    """``value`` as a list if it is a list, a tuple or a numpy array of at
    least one dimension; anything else raises ConfigError naming ``name``
    and the value."""
    if isinstance(value, (list, tuple)) or (
            isinstance(value, np.ndarray) and value.ndim >= 1):
        return list(value)
    raise ConfigError(f"{name} must be a list, got {value!r}")


def _synth_options(spec: dict) -> dict:
    """The synthetic spec's options, as ``synth_generate`` keywords."""
    return {key: spec[key] for key in SYNTH_OPTIONS if key in spec}


def _plain(value):
    """``value`` with each numpy array or number in it, at any depth of
    lists and tuples, replaced by the equal Python value."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


@dataclass
class RunConfig:
    """Everything a run needs; field names are the config-file keys.

    mode is one of MODES: "sdsp" re-selects each domain's expert subset
    every selection_interval steps, rewarding subsets with validation AUC
    and scoring them by their running-mean reward; "full-share" shares
    every expert with every domain; "fixed-subset" pins fixed_subsets.
    from_dict rejects keys that are not fields.
    """

    domains: int
    dataset: dict
    seed: int = 0
    mode: str = "sdsp"
    expert_counts: list | None = None
    embedding_dim: int = 4
    expert_hidden: int = 8
    repr_dim: int = 8
    tower_hidden: int = 8
    batch_size: int = 4096
    quotas: list | None = None
    learning_rate: float = 0.001
    proto_loss_weight: float = 1e-4
    num_prototypes: int = 10
    explore_init: float = 1.0
    explore_decay: float = 0.9
    selection_interval: int = 2
    epochs: int = 10
    early_stop_patience: int = 5
    split_fractions: list = field(default_factory=lambda: [0.8, 0.1, 0.1])
    overall_metric: str = "pooled"
    fixed_subsets: list | None = None

    def __post_init__(self):
        self.domains = as_int(self.domains, "domains")
        if self.domains < 1:
            raise ConfigError(f"domains must be >= 1, got {self.domains}")
        self.seed = as_int(self.seed, "seed")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.expert_counts is None:
            self.expert_counts = [1] * self.domains
        self.expert_counts = [
            as_int(c, f"expert_counts[{i}]") for i, c in
            enumerate(_as_list(self.expert_counts, "expert_counts"))]
        if len(self.expert_counts) != self.domains or min(self.expert_counts) < 1:
            raise ConfigError(
                f"expert_counts needs {self.domains} positive entries, "
                f"got {self.expert_counts}")
        for name in ("embedding_dim", "expert_hidden", "repr_dim",
                     "tower_hidden", "batch_size", "num_prototypes",
                     "selection_interval", "epochs"):
            setattr(self, name, as_int(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        self.early_stop_patience = as_int(self.early_stop_patience,
                                          "early_stop_patience")
        if self.early_stop_patience < 0:
            raise ConfigError("early_stop_patience must be >= 0")
        if self.quotas is None:
            self.quotas = data_mod.equal_quotas(self.batch_size, self.domains)
        self.quotas = [as_int(q, f"quotas[{i}]")
                       for i, q in enumerate(_as_list(self.quotas, "quotas"))]
        if len(self.quotas) != self.domains or min(self.quotas) < 1:
            raise ConfigError(
                f"quotas needs {self.domains} positive entries, got {self.quotas}")
        if sum(self.quotas) != self.batch_size:
            raise ConfigError(
                f"quotas {self.quotas} sum to {sum(self.quotas)}, "
                f"batch_size is {self.batch_size}")
        for name in ("learning_rate", "proto_loss_weight", "explore_init",
                     "explore_decay"):
            setattr(self, name, _as_float(getattr(self, name), name))
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.proto_loss_weight < 0:
            raise ConfigError("proto_loss_weight must be >= 0")
        if not 0.0 <= self.explore_init <= 1.0:
            raise ConfigError("explore_init must lie in [0, 1]")
        if not 0.0 < self.explore_decay <= 1.0:
            raise ConfigError("explore_decay must lie in (0, 1]")
        if self.overall_metric not in OVERALL_METRICS:
            raise ConfigError(
                f"overall_metric must be one of {OVERALL_METRICS}")
        self.split_fractions = data_mod.check_fractions(
            [_as_float(f, f"split_fractions[{i}]") for i, f in
             enumerate(_as_list(self.split_fractions, "split_fractions"))])
        if self.mode == "fixed-subset":
            if self.fixed_subsets is None:
                raise ConfigError("fixed-subset mode requires fixed_subsets")
        if self.fixed_subsets is not None:
            subsets = _as_list(self.fixed_subsets, "fixed_subsets")
            if len(subsets) != self.domains:
                raise ConfigError(
                    f"fixed_subsets needs {self.domains} entries")
            normalized = []
            for d, subset in enumerate(subsets):
                members = sorted(
                    as_int(s, f"fixed_subsets[{d}] entry")
                    for s in _as_list(subset, f"fixed_subsets[{d}]"))
                if d not in members:
                    raise ConfigError(
                        f"fixed_subsets[{d}] must contain domain {d}")
                if any(not 0 <= s < self.domains for s in members):
                    raise ConfigError(
                        f"fixed_subsets[{d}] references unknown domains")
                normalized.append(members)
            self.fixed_subsets = normalized
        self._validate_dataset()

    def _validate_dataset(self):
        """Check the dataset spec by its consumers' rules, and store its
        numpy values and paths as the equal JSON values."""
        if not isinstance(self.dataset, dict) or "kind" not in self.dataset:
            raise ConfigError('dataset must be an object with a "kind" key')
        kind = self.dataset["kind"]
        if not isinstance(kind, str) or kind not in DATASET_KEYS:
            raise ConfigError(f'dataset kind must be "synth" or "csv", '
                              f'got {kind!r}')
        required, optional = DATASET_KEYS[kind]
        for key in required:
            if key not in self.dataset:
                raise ConfigError(f"{kind} dataset needs {key!r}")
        for key in self.dataset:
            if key not in ("kind",) + required + optional:
                raise ConfigError(f"{kind} dataset has unknown key {key!r}")
        if kind == "synth":
            rows = [_as_list(row, f"dataset affinity[{i}]") for i, row in
                    enumerate(_as_list(self.dataset["affinity"],
                                       "dataset affinity"))]
            if (len(rows) != self.domains
                    or any(len(row) != self.domains for row in rows)):
                raise ConfigError(
                    f"affinity must be {self.domains}x{self.domains}")
            affinity = [[_as_float(v, f"dataset affinity[{i}][{j}]")
                         for j, v in enumerate(row)]
                        for i, row in enumerate(rows)]
            noise = [_as_float(v, f"dataset noise[{d}]") for d, v in
                     enumerate(_as_list(self.dataset["noise"],
                                        "dataset noise"))]
            # The spec's own checks: noise length and both value ranges.
            data_mod.AffinitySpec(self.domains, affinity, noise)
            if "feature_noise" in self.dataset:
                _as_float(self.dataset["feature_noise"],
                          "dataset feature_noise")
            sizes = _as_list(self.dataset["sizes"], "dataset sizes")
            if len(sizes) != self.domains:
                raise ConfigError(f"sizes needs {self.domains} entries")
            checked = {"sizes": [as_int(n, f"dataset sizes[{d}]")
                                 for d, n in enumerate(sizes)]}
            for key in ("fields_per_concept", "vocab_size"):
                if key in self.dataset:
                    checked[key] = as_int(self.dataset[key], f"dataset {key}")
            for key in ("affinity", "noise", "feature_noise"):
                if key in self.dataset:
                    checked[key] = _plain(self.dataset[key])
            data_mod.check_synth_options(**_synth_options(
                {**self.dataset, **checked}))
        else:
            checked = {}
            for key in required:
                value = self.dataset[key]
                checked[key] = (os.fspath(value)
                                if isinstance(value, os.PathLike) else value)
                if not isinstance(checked[key], str):
                    raise ConfigError(f"dataset {key} must be a str or "
                                      f"os.PathLike, got {value!r}")
        self.dataset = {**self.dataset, **checked}

    # ------------------------------------------------------------ round trip

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"domains", "dataset"} - set(raw)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def replace(self, **changes) -> "RunConfig":
        raw = self.to_dict()
        raw.update(changes)
        return RunConfig.from_dict(raw)


def load_dataset(config: RunConfig) -> data_mod.DomainDataset:
    """Materialize the unsplit dataset named by the config."""
    ds_cfg = config.dataset
    if ds_cfg["kind"] == "synth":
        spec = data_mod.AffinitySpec(config.domains, ds_cfg["affinity"],
                                     ds_cfg["noise"])
        return data_mod.synth_generate(spec, ds_cfg["sizes"], seed=config.seed,
                                       **_synth_options(ds_cfg))
    schema = data_mod.Schema.load(ds_cfg["schema"])
    if schema.domains != config.domains:
        raise ConfigError(
            f"schema declares {schema.domains} domains, config says "
            f"{config.domains}")
    return data_mod.load_csv(ds_cfg["path"], schema)
