"""Dataset model, splitting, fixed-quota batch sampling, and synthesis.

Feature values are categorical vocabulary indices, one per declared field.
A dataset is grouped by integer domain id; partitions ("all" after loading,
"train"/"val"/"test" after splitting) hold per-domain arrays.

The synthetic generator plants a known inter-domain affinity: each sample
carries latent concept loadings U ~ Uniform(-1,1)^D, domain d's click score
is the affinity-weighted mixture affinity[d] . U, and each feature field is
a binned noisy readout of one term of that mixture. Domains with overlapping
affinity rows therefore share predictive structure; rows with disjoint
support are mutually uninformative by construction.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, SchemaError, SplitError, UsageError

__all__ = [
    "FeatureField", "Schema", "Sample", "DomainData", "DomainDataset",
    "AffinitySpec", "parse_row", "load_csv", "save_csv", "split",
    "equal_quotas", "QuotaSampler", "synth_generate", "feature_indices",
]

log = logging.getLogger(__name__)

PARTITIONS = ("train", "val", "test")


@dataclass(frozen=True)
class FeatureField:
    name: str
    vocab_size: int


@dataclass(frozen=True)
class Schema:
    """Ordered feature fields plus the domain count."""

    domains: int
    fields: tuple

    def __post_init__(self):
        if self.domains < 1:
            raise SchemaError(f"domain count must be >= 1, got {self.domains}")
        if not self.fields:
            raise SchemaError("schema needs at least one feature field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in {names}")
        for f in self.fields:
            if f.vocab_size < 1:
                raise SchemaError(f"field {f.name!r} has vocab_size < 1")
            if "," in f.name or "\n" in f.name or not f.name:
                raise SchemaError(f"field name {f.name!r} is not CSV-safe")

    @property
    def num_fields(self) -> int:
        return len(self.fields)

    @property
    def vocab_sizes(self) -> tuple:
        return tuple(f.vocab_size for f in self.fields)

    def header(self) -> str:
        return ",".join(["domain", "label"] + [f.name for f in self.fields])

    def to_json(self) -> str:
        return json.dumps({
            "domains": self.domains,
            "fields": [{"name": f.name, "vocab_size": f.vocab_size}
                       for f in self.fields],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Schema":
        try:
            raw = json.loads(text)
            fields = tuple(FeatureField(f["name"], int(f["vocab_size"]))
                           for f in raw["fields"])
            return cls(domains=int(raw["domains"]), fields=fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"cannot parse schema: {exc}") from exc

    @classmethod
    def load(cls, path) -> "Schema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


@dataclass(frozen=True)
class Sample:
    domain: int
    label: int
    features: tuple


def feature_indices(features) -> np.ndarray:
    """``features`` as an int64 array, refusing values that are not whole.

    An int64 array is returned as it is, after one dtype check. Any other
    input is cast, and a value the cast would change (1.7, NaN, inf, or
    one outside the int64 range) raises ``DataError`` instead of silently
    becoming a different index.
    """
    features = np.asarray(features)
    if features.dtype == np.int64:
        return features
    with np.errstate(invalid="ignore"):
        whole = features.astype(np.int64)
    if not np.array_equal(whole, features):
        raise DataError("feature values must be whole numbers")
    return whole


class DomainData:
    """Feature/label arrays for one domain within one partition."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = feature_indices(features)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.ndim != 1:
            raise UsageError("features must be (n, F), labels (n,)")
        if features.shape[0] != labels.shape[0]:
            raise UsageError("features and labels disagree on sample count")
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, idx) -> "DomainData":
        return DomainData(self.features[idx], self.labels[idx])

    @classmethod
    def empty(cls, num_fields: int) -> "DomainData":
        return cls(np.zeros((0, num_fields), dtype=np.int64),
                   np.zeros(0, dtype=np.float64))


@dataclass
class AffinitySpec:
    """Planted ground truth for the synthetic generator.

    affinity[d, k] says how much domain d's labels borrow concept k; noise[d]
    is the probability that domain d's label is flipped after thresholding.
    """

    domains: int
    affinity: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        self.affinity = np.asarray(self.affinity, dtype=np.float64)
        self.noise = np.asarray(self.noise, dtype=np.float64)
        d = self.domains
        if d < 1:
            raise ConfigError("domain count must be >= 1")
        if self.affinity.shape != (d, d):
            raise ConfigError(
                f"affinity must be {d}x{d}, got {self.affinity.shape}")
        if np.any(self.affinity < 0.0) or np.any(self.affinity > 1.0):
            raise ConfigError("affinity entries must lie in [0, 1]")
        if np.any(np.diag(self.affinity) <= 0.0):
            raise ConfigError("affinity diagonal must be positive")
        if self.noise.shape != (d,):
            raise ConfigError(f"noise must have shape ({d},)")
        if np.any(self.noise < 0.0) or np.any(self.noise > 0.5):
            raise ConfigError("noise probabilities must lie in [0, 0.5]")


class DomainDataset:
    """Schema plus per-domain sample arrays grouped into named partitions."""

    def __init__(self, schema: Schema, partitions: dict,
                 affinity: AffinitySpec | None = None, malformed: int = 0):
        self.schema = schema
        self.partitions = partitions
        self.affinity = affinity
        self.malformed = malformed
        for name, datas in partitions.items():
            if len(datas) != schema.domains:
                raise UsageError(
                    f"partition {name!r} covers {len(datas)} domains, "
                    f"schema declares {schema.domains}")

    def domain(self, partition: str, d: int) -> DomainData:
        return self.partitions[partition][d]

    def counts(self, partition: str) -> list:
        return [len(dd) for dd in self.partitions[partition]]


def parse_row(line: str, schema: Schema, line_no: int) -> Sample | None:
    """One CSV data row to a Sample; None if structurally malformed."""
    parts = line.rstrip("\n").split(",")
    if len(parts) != 2 + schema.num_fields:
        return None
    try:
        values = [int(p) for p in parts]
    except ValueError:
        return None
    domain, label, feats = values[0], values[1], values[2:]
    if not 0 <= domain < schema.domains:
        raise DataError(
            f"line {line_no}: domain {domain} outside [0, {schema.domains})")
    if label not in (0, 1):
        raise DataError(f"line {line_no}: label {label} is not 0/1")
    for f, v in zip(schema.fields, feats):
        if not 0 <= v < f.vocab_size:
            raise DataError(
                f"line {line_no}: field {f.name!r} index {v} outside "
                f"[0, {f.vocab_size})")
    return Sample(domain, label, tuple(feats))


def load_csv(path, schema: Schema) -> DomainDataset:
    """Read a dataset CSV into the single partition "all".

    Structurally malformed rows (wrong column count, non-integer cells) are
    skipped, counted, and reported; semantically invalid rows (out-of-range
    domain, label, or vocabulary index) abort with a data error naming the
    line.
    """
    feats_by_domain = [[] for _ in range(schema.domains)]
    labels_by_domain = [[] for _ in range(schema.domains)]
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        expected = schema.header()
        if header != expected:
            missing = [c for c in expected.split(",")
                       if c not in header.split(",")]
            raise SchemaError(
                f"header mismatch: missing columns {missing}; "
                f"expected {expected!r}, got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            sample = parse_row(line, schema, line_no)
            if sample is None:
                malformed += 1
                continue
            feats_by_domain[sample.domain].append(sample.features)
            labels_by_domain[sample.domain].append(sample.label)
    if malformed:
        log.warning("%s: skipped %d malformed row(s)", path, malformed)
    datas = []
    for d in range(schema.domains):
        if feats_by_domain[d]:
            datas.append(DomainData(np.array(feats_by_domain[d], dtype=np.int64),
                                    np.array(labels_by_domain[d], dtype=np.float64)))
        else:
            datas.append(DomainData.empty(schema.num_fields))
    return DomainDataset(schema, {"all": datas}, malformed=malformed)


def save_csv(dataset: DomainDataset, path, partition: str = "all") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dataset.schema.header() + "\n")
        for d, dd in enumerate(dataset.partitions[partition]):
            for i in range(len(dd)):
                row = [str(d), str(int(dd.labels[i]))]
                row += [str(int(v)) for v in dd.features[i]]
                fh.write(",".join(row) + "\n")


def _largest_remainder(total: int, weights) -> list:
    """Integer apportionment of `total` by `weights`; remainders break ties
    toward earlier positions."""
    weights = np.asarray(weights, dtype=np.float64)
    exact = total * weights / weights.sum()
    base = np.floor(exact).astype(int)
    remainder = exact - base
    short = total - int(base.sum())
    if short:
        order = np.lexsort((np.arange(len(weights)), -remainder))
        for i in order[:short]:
            base[i] += 1
    return base.tolist()


def equal_quotas(batch_size: int, domains: int) -> list:
    """Split a batch size into near-equal per-domain quotas."""
    if batch_size < domains:
        raise ConfigError(
            f"batch size {batch_size} smaller than domain count {domains}")
    return _largest_remainder(batch_size, np.ones(domains))


def split(dataset: DomainDataset, fractions, seed: int,
          source: str = "all", enforce_min: bool = True) -> DomainDataset:
    """Per-domain random split into train/val/test.

    With enforce_min, every domain needs at least 3 samples and each
    positive-fraction partition receives at least one sample per domain.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3:
        raise ConfigError(f"need 3 fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be >= 0 and sum to 1: {fractions}")
    if all(f == 0 for f in fractions):
        raise ConfigError("at least one fraction must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = {name: [] for name in PARTITIONS}
    for d, dd in enumerate(dataset.partitions[source]):
        n = len(dd)
        if enforce_min and n < 3:
            raise SplitError(
                f"domain {d} has {n} sample(s); need >= 3 to split")
        sizes = _largest_remainder(n, fractions) if n else [0, 0, 0]
        if enforce_min and n >= 3:
            # guarantee one sample per requested partition
            for i, f in enumerate(fractions):
                if f > 0 and sizes[i] == 0:
                    donor = int(np.argmax(sizes))
                    sizes[donor] -= 1
                    sizes[i] += 1
        perm = rng.permutation(n)
        start = 0
        for name, size in zip(PARTITIONS, sizes):
            out[name].append(dd.take(perm[start:start + size]))
            start += size
    return DomainDataset(dataset.schema, out, affinity=dataset.affinity)


class QuotaSampler:
    """Fixed-quota multi-domain batch sampler.

    Every batch contains exactly quotas[d] samples of domain d, drawn from a
    per-domain shuffled cursor. A batch that does not cross the end of the
    permutation is a plain slice of it. An exhausted domain reshuffles and
    wraps, lazily: the fresh permutation is drawn only when another sample
    is needed. Whenever the domain holds at least quota samples, a batch
    never repeats a sample: only a wrapping batch can collide, and its
    collisions are swapped forward inside the fresh permutation, preserving
    full-pass coverage.
    """

    def __init__(self, datas, quotas, rng: np.random.Generator):
        if len(quotas) != len(datas):
            raise ConfigError(
                f"{len(quotas)} quotas for {len(datas)} domains")
        for d, (dd, q) in enumerate(zip(datas, quotas)):
            if q <= 0:
                raise ConfigError(
                    f"domain {d} has zero quota but participates in training")
            if len(dd) == 0:
                raise ConfigError(f"domain {d} is empty; cannot sample")
        self.datas = list(datas)
        self.quotas = [int(q) for q in quotas]
        self.rng = rng
        self._perms = [rng.permutation(len(dd)) for dd in datas]
        self._cursors = [0] * len(datas)

    def _draw_domain(self, d: int) -> np.ndarray:
        dd, quota = self.datas[d], self.quotas[d]
        n = len(dd)
        cur = self._cursors[d]
        if cur + quota <= n:
            # Within one pass of a permutation no index repeats, so the
            # loop below would take exactly this slice and swap nothing.
            self._cursors[d] = cur + quota
            return self._perms[d][cur:cur + quota].copy()
        taken = []
        taken_set = set()
        dedup = n >= quota
        for _ in range(quota):
            if self._cursors[d] == n:
                self._perms[d] = self.rng.permutation(n)
                self._cursors[d] = 0
            perm, cur = self._perms[d], self._cursors[d]
            if dedup and perm[cur] in taken_set:
                j = cur + 1
                while j < n and perm[j] in taken_set:
                    j += 1
                if j < n:
                    perm[cur], perm[j] = perm[j], perm[cur]
            taken.append(perm[cur])
            taken_set.add(int(perm[cur]))
            self._cursors[d] += 1
        return np.array(taken, dtype=np.int64)

    def next_batch(self) -> list:
        """One batch: list over domains of (features, labels) arrays."""
        batch = []
        for d in range(len(self.datas)):
            idx = self._draw_domain(d)
            dd = self.datas[d]
            batch.append((dd.features[idx], dd.labels[idx]))
        return batch


def synth_generate(spec: AffinitySpec, sizes, seed: int,
                   fields_per_concept: int = 2, vocab_size: int = 16,
                   feature_noise: float = 0.3) -> DomainDataset:
    """Generate a planted-affinity dataset under partition "all".

    Domain d, sample i: loadings U ~ Uniform(-1,1)^D; click score
    s = affinity[d] . U; label = [s > 0] flipped with probability noise[d].
    Field j in concept group k reads affinity[d, k] * U_k plus Gaussian
    feature noise, binned uniformly over [-1.5, 1.5] into the vocabulary.
    The planted spec travels with the dataset for ground-truth checks.
    """
    if len(sizes) != spec.domains:
        raise ConfigError(f"{len(sizes)} sizes for {spec.domains} domains")
    if fields_per_concept < 1 or vocab_size < 2:
        raise ConfigError("need fields_per_concept >= 1 and vocab_size >= 2")
    if feature_noise < 0:
        raise ConfigError("feature_noise must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d_count = spec.domains
    fields = tuple(FeatureField(f"c{k}r{r}", vocab_size)
                   for k in range(d_count) for r in range(fields_per_concept))
    schema = Schema(domains=d_count, fields=fields)
    half_range = 1.5
    datas = []
    for d in range(d_count):
        n = int(sizes[d])
        u = rng.uniform(-1.0, 1.0, size=(n, d_count))
        score = u @ spec.affinity[d]
        labels = (score > 0.0).astype(np.float64)
        flips = rng.random(n) < spec.noise[d]
        labels[flips] = 1.0 - labels[flips]
        # readout matrix (n, D*fields_per_concept): group k repeats its
        # mixture term affinity[d,k] * U_k across its fields
        weighted = u * spec.affinity[d]
        readout = np.repeat(weighted, fields_per_concept, axis=1)
        readout = readout + rng.normal(0.0, feature_noise, size=readout.shape)
        bins = np.floor((readout + half_range) / (2 * half_range) * vocab_size)
        bins = np.clip(bins, 0, vocab_size - 1).astype(np.int64)
        datas.append(DomainData(bins, labels))
    return DomainDataset(schema, {"all": datas}, affinity=spec)
