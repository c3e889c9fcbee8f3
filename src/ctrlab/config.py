"""Run configuration: validation, JSON round-trip, dataset loading.

The config file is a JSON object whose keys mirror RunConfig field names
exactly. The dataset source is either a planted synthetic spec or a CSV
path plus schema file. A short hash of the canonical config JSON travels
with reports so they can be matched to their run; a checkpoint stores the
config itself. ``config_hash`` and the report hash the dataset spec as
given, so a CSV ``path`` named from another directory hashes differently.
The rules for ``fixed_subsets``, ``expert_counts``, ``overall_metric`` and
a synthetic spec belong to the modules that use them:
``backbone.check_subsets``, ``backbone.check_expert_counts``,
``metrics.OVERALL_MODES`` and ``data.SynthSpec``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .backbone import check_expert_counts, check_subsets
from .data import as_float, as_int, as_list
from .errors import ConfigError
from .metrics import OVERALL_MODES

__all__ = ["RunConfig", "MODES", "load_dataset"]

MODES = ("sdsp", "full-share", "fixed-subset")
# The keys beside "kind" that each dataset kind requires, then may set: a
# synthetic spec's are SynthSpec's fields after domains, split by default.
_SYNTH_FIELDS = dataclasses.fields(data_mod.SynthSpec)[1:]
DATASET_KEYS = {
    "synth": tuple(tuple(f.name for f in _SYNTH_FIELDS
                         if (f.default is dataclasses.MISSING) == required)
                   for required in (True, False)),
    "csv": (("path", "schema"), ())}


def _synth_spec(domains, dataset: dict) -> data_mod.SynthSpec:
    """The synthetic dataset spec ``dataset`` as a SynthSpec."""
    return data_mod.SynthSpec(
        domains, **{k: v for k, v in dataset.items() if k != "kind"})


def _plain(value):
    """``value`` with each numpy array or number in it, at any depth of
    lists and tuples, replaced by the equal Python value, and an
    ``os.PathLike`` by its path."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    return value


@dataclass
class RunConfig:
    """Everything a run needs; field names are the config-file keys.

    mode is one of MODES: "sdsp" re-selects each domain's expert subset
    every selection_interval steps, rewarding subsets with validation AUC
    and scoring them by their running-mean reward; "full-share" shares
    every expert with every domain; "fixed-subset" pins fixed_subsets,
    which the other modes reject.
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
        # A distance matrix, and so a run, needs two domains.
        self.domains = as_int(self.domains, "domains", minimum=2)
        self.seed = as_int(self.seed, "seed", minimum=0)
        for name, choices in (("mode", MODES),
                              ("overall_metric", OVERALL_MODES)):
            # A non-str is refused: ``in`` would compare an array elementwise.
            value = getattr(self, name)
            if not isinstance(value, str) or value not in choices:
                raise ConfigError(
                    f"{name} must be one of {choices}, got {value!r}")
            setattr(self, name, str(value))
        if self.expert_counts is None:
            self.expert_counts = [1] * self.domains
        self.expert_counts = check_expert_counts(self.expert_counts)
        if len(self.expert_counts) != self.domains:
            raise ConfigError(f"expert_counts needs {self.domains} entries, "
                              f"got {self.expert_counts}")
        for name in ("embedding_dim", "expert_hidden", "repr_dim",
                     "tower_hidden", "batch_size", "num_prototypes",
                     "selection_interval", "epochs"):
            setattr(self, name, as_int(getattr(self, name), name, minimum=1))
        self.early_stop_patience = as_int(
            self.early_stop_patience, "early_stop_patience", minimum=0)
        if self.quotas is None:
            self.quotas = data_mod.equal_quotas(self.batch_size, self.domains)
        self.quotas = [as_int(q, f"quotas[{i}]", minimum=1)
                       for i, q in enumerate(as_list(self.quotas, "quotas"))]
        if len(self.quotas) != self.domains:
            raise ConfigError(
                f"quotas needs {self.domains} entries, got {self.quotas}")
        if sum(self.quotas) != self.batch_size:
            raise ConfigError(
                f"quotas {self.quotas} sum to {sum(self.quotas)}, "
                f"batch_size is {self.batch_size}")
        for name in ("learning_rate", "proto_loss_weight", "explore_init",
                     "explore_decay"):
            setattr(self, name, as_float(getattr(self, name), name))
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.proto_loss_weight < 0:
            raise ConfigError("proto_loss_weight must be >= 0")
        if not 0.0 <= self.explore_init <= 1.0:
            raise ConfigError("explore_init must lie in [0, 1]")
        if not 0.0 < self.explore_decay <= 1.0:
            raise ConfigError("explore_decay must lie in (0, 1]")
        self.split_fractions = data_mod.check_fractions(self.split_fractions)
        # split gives each positive-fraction partition at least one row per
        # domain; a run evaluates on val and test and trains on train.
        if min(self.split_fractions) <= 0.0:
            raise ConfigError(f"split_fractions must all be positive, got "
                              f"{self.split_fractions}")
        if self.mode == "fixed-subset":
            if self.fixed_subsets is None:
                raise ConfigError("fixed-subset mode requires fixed_subsets")
        elif self.fixed_subsets is not None:
            raise ConfigError(f"fixed_subsets is read only in fixed-subset "
                              f"mode, not in {self.mode!r} mode")
        if self.fixed_subsets is not None:
            self.fixed_subsets = check_subsets(self.fixed_subsets,
                                               self.domains, "fixed_subsets")
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
        checked = {key: _plain(value) for key, value in self.dataset.items()}
        if kind == "synth":
            try:
                checked["sizes"] = _synth_spec(self.domains,
                                               self.dataset).sizes
                # A run splits every domain.
                for d, n in enumerate(checked["sizes"]):
                    as_int(n, f"sizes[{d}]", minimum=data_mod.SPLIT_MIN_SAMPLES)
            except ConfigError as exc:
                raise ConfigError(f"dataset {exc}") from exc
        else:
            for key in required:
                if not isinstance(checked[key], str):
                    raise ConfigError(
                        f"dataset {key} must be a str or os.PathLike, "
                        f"got {self.dataset[key]!r}")
        self.dataset = checked

    # ------------------------------------------------------------ round trip

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(
                f"config must be an object, got {type(raw).__name__}")
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
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_json(data_mod.read_text(path, ConfigError))

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
        return data_mod.synth_generate(_synth_spec(config.domains, ds_cfg),
                                       seed=config.seed)
    schema = data_mod.Schema.load(ds_cfg["schema"])
    if schema.domains != config.domains:
        raise ConfigError(
            f"schema declares {schema.domains} domains, config says "
            f"{config.domains}")
    return data_mod.load_csv(ds_cfg["path"], schema)
