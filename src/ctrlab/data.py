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
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataError, InvariantError, SchemaError,
                     SplitError, UsageError)

__all__ = [
    "FeatureField", "Schema", "DomainData", "DomainDataset",
    "AffinitySpec", "parse_row", "load_csv", "save_csv", "split",
    "equal_quotas", "QuotaSampler", "synth_generate", "feature_indices",
    "as_int", "check_fractions", "check_synth_options",
]

log = logging.getLogger(__name__)

PARTITIONS = ("train", "val", "test")

# Characters of whole lines that load_csv reads and parses at a time.
_CHUNK_CHARS = 1 << 16
# The longest cell parsed by digit arithmetic: 10**18 - 1 < 2**63.
_MAX_DIGITS = 18
_POW10 = np.array([10 ** k for k in range(_MAX_DIGITS)], dtype=np.int64)


def as_int(value, name: str, error=ConfigError) -> int:
    """``value`` as an ``int`` if it is an int or a numpy integer and not a
    bool; anything else raises ``error`` naming ``name`` and the value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


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
        # Frozen: store the checked ints, so numpy integers serialize.
        object.__setattr__(self, "domains",
                           as_int(self.domains, "domains", SchemaError))
        if self.domains < 1:
            raise SchemaError(f"domain count must be >= 1, got {self.domains}")
        if not self.fields:
            raise SchemaError("schema needs at least one feature field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in {names}")
        object.__setattr__(self, "fields", tuple(
            FeatureField(f.name, as_int(f.vocab_size,
                                        f"field {f.name!r} vocab_size",
                                        SchemaError))
            for f in self.fields))
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
            fields = tuple(FeatureField(f["name"], f["vocab_size"])
                           for f in raw["fields"])
            return cls(domains=raw["domains"], fields=fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"cannot parse schema: {exc}") from exc

    @classmethod
    def load(cls, path) -> "Schema":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


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
        # Written so that NaN fails too.
        if not ((self.affinity >= 0.0) & (self.affinity <= 1.0)).all():
            raise ConfigError("affinity entries must lie in [0, 1]")
        if np.any(np.diag(self.affinity) <= 0.0):
            raise ConfigError("affinity diagonal must be positive")
        if self.noise.shape != (d,):
            raise ConfigError(f"noise must have shape ({d},)")
        if not ((self.noise >= 0.0) & (self.noise <= 0.5)).all():
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


def parse_row(line: str, schema: Schema, line_no: int) -> tuple | None:
    """One CSV data row's ints as the tuple (domain, label, *features);
    None if structurally malformed."""
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
    return tuple(values)


def load_csv(path, schema: Schema) -> DomainDataset:
    """Read a dataset CSV into the single partition "all".

    Structurally malformed rows (wrong column count, non-integer cells) are
    skipped, counted, and reported; semantically invalid rows (out-of-range
    domain, label, or vocabulary index) abort with a data error naming the
    line. Blank and whitespace-only lines are skipped. Lines end at "\\n"
    after the text-mode newline translation, as file iteration splits them.

    The result, the malformed count and every error are those of reading
    the file line by line through ``parse_row``:

    * A canonical line holds only ASCII digits and commas, with one cell
      per column, none of them empty or longer than 18 digits. Canonical
      lines are parsed by digit arithmetic and range-checked against one
      bound row, a chunk at a time.
    * Every other non-blank line (whitespace, signs, underscores, non-ASCII
      digits, a wrong column count) goes to ``parse_row``, so ``int()``
      still decides which cells are integers.
    * The first invalid line in file order raises, through ``parse_row``,
      so its ``DataError`` is the line-by-line read's. A file that cannot
      be decoded is read again line by line, so that a row the line-by-line
      read rejects before it reaches the undecodable bytes still wins.
    * Whole lines are read about ``_CHUNK_CHARS`` characters at a time. A
      chunk's valid rows are kept as one int64 block per domain, and each
      domain's blocks are concatenated once at the end, so the peak is
      about the blocks plus the result plus one chunk's working arrays,
      never a multiple of the file's text.
    """
    try:
        return _load_chunks(path, schema)
    except UnicodeDecodeError as exc:
        undecodable = exc
    # A chunk is decoded before any of its lines is parsed; line by line,
    # a row before the undecodable bytes is parsed before they are decoded.
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            if line.strip():
                parse_row(line, schema, line_no)
    raise undecodable


def _load_chunks(path, schema: Schema) -> DomainDataset:
    """``load_csv``, reading the file a chunk of lines at a time."""
    bound = np.array((schema.domains, 2) + schema.vocab_sizes, dtype=np.int64)
    blocks = [[] for _ in range(schema.domains)]
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
        line_no = 2
        while lines := fh.readlines(_CHUNK_CHARS):
            rows, skipped = _parse_chunk(lines, schema, line_no, bound)
            malformed += skipped
            line_no += len(lines)
            counts = np.bincount(rows[:, 0], minlength=schema.domains)
            present = np.flatnonzero(counts)
            by_domain = rows[np.argsort(rows[:, 0], kind="stable")]
            for d, block in zip(present.tolist(), np.split(
                    by_domain, np.cumsum(counts[present])[:-1])):
                blocks[d].append(block)
    if malformed:
        log.warning("%s: skipped %d malformed row(s)", path, malformed)
    datas = []
    for d_blocks in blocks:
        if d_blocks:
            datas.append(DomainData(
                np.concatenate([b[:, 2:] for b in d_blocks]),
                np.concatenate([b[:, 1] for b in d_blocks],
                               dtype=np.float64)))
        else:
            datas.append(DomainData.empty(schema.num_fields))
    return DomainDataset(schema, {"all": datas}, malformed=malformed)


def _parse_chunk(lines: list, schema: Schema, first_line_no: int,
                 bound: np.ndarray):
    """The valid rows of consecutive lines, in line order, as an int64
    (rows, 2 + F) matrix, and the count of malformed lines among them.

    Raises the first invalid line's ``DataError``.
    """
    text = "".join(lines)
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    canonical, values = _canonical_rows(text, len(bound))
    rows = np.empty((len(lines), len(bound)), dtype=np.int64)
    rows[canonical] = values
    invalid = np.flatnonzero(canonical)[(values >= bound).any(axis=1)]
    stop = int(invalid[0]) if len(invalid) else len(lines)
    valid = canonical.copy()
    malformed = 0
    for i in np.flatnonzero(~canonical[:stop]).tolist():
        line = lines[i]
        if not line.strip():
            continue
        row = parse_row(line, schema, first_line_no + i)
        if row is None:
            malformed += 1
            continue
        rows[i] = row
        valid[i] = True
    if stop < len(lines):
        parse_row(lines[stop], schema, first_line_no + stop)
        raise InvariantError(f"parse_row accepted line {first_line_no + stop}")
    return rows[valid], malformed


def _canonical_rows(text: str, num_cols: int):
    """Which lines of ``text`` are canonical, and their values.

    ``text`` is whole lines, each ending in "\\n". Returns a bool per line
    and the canonical lines' cells as an int64 (lines, num_cols) matrix.
    """
    buf = np.frombuffer(text.encode(), dtype=np.uint8)
    newline = buf == ord("\n")
    sep = newline | (buf == ord(","))
    sep_at = np.flatnonzero(sep)
    ends = np.flatnonzero(newline[sep_at])  # each line's last separator
    seps = np.diff(ends, prepend=-1)
    canonical = seps == num_cols
    cell_len = np.diff(sep_at, prepend=-1) - 1
    bad_cells = np.flatnonzero((cell_len == 0) | (cell_len > _MAX_DIGITS))
    canonical[np.searchsorted(ends, bad_cells)] = False
    # Bytes that are neither a separator nor an ASCII digit (uint8 wraps
    # below "0").
    odd = np.flatnonzero(~sep & (buf - ord("0") > 9))
    canonical[np.searchsorted(sep_at[ends], odd)] = False
    kept = np.repeat(canonical, seps)
    cell_end, cell_len = sep_at[kept], cell_len[kept]
    values = np.zeros(len(cell_end), dtype=np.int64)
    for k in range(int(cell_len.max(initial=0))):  # k-th digit from the right
        # A cell of k digits or fewer reads a byte before it, which
        # np.where drops. The index is valid: at worst -(k + 1), and buf
        # holds the longest cell and its separator.
        digit = buf[cell_end - 1 - k] - ord("0")
        values += np.where(cell_len > k, digit, 0) * _POW10[k]
    return canonical, values.reshape(-1, num_cols)


def save_csv(dataset: DomainDataset, path, partition: str = "all") -> None:
    """Write one partition as the CSV ``load_csv`` reads: the schema header,
    then a ``domain,label,features...`` line per sample, domain by domain.

    The lines are formatted from one int64 table of every row; labels are
    truncated to integers, as ``int`` would.
    """
    table = np.concatenate([
        np.column_stack((np.full(len(dd), d), dd.labels.astype(np.int64),
                         dd.features))
        for d, dd in enumerate(dataset.partitions[partition])])
    line = ",".join(["%d"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dataset.schema.header() + "\n")
        fh.write("".join([line % tuple(row) for row in table.tolist()]))


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


def check_fractions(fractions) -> list:
    """``split``'s rule: the train/val/test fractions as floats, if there
    are 3 of them, none negative, summing to 1; else ConfigError."""
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3:
        raise ConfigError(
            f"split_fractions needs 3 entries, got {len(fractions)}")
    # Written so that a NaN sum fails too.
    if min(fractions) < 0 or not abs(sum(fractions) - 1.0) <= 1e-9:
        raise ConfigError(
            f"split_fractions must be >= 0 and sum to 1, got {fractions}")
    return fractions


def split(dataset: DomainDataset, fractions, seed: int) -> DomainDataset:
    """Per-domain random split of partition "all" into train/val/test.

    Every domain needs at least 3 samples, and each positive-fraction
    partition receives at least one sample per domain.
    """
    fractions = check_fractions(fractions)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = {name: [] for name in PARTITIONS}
    for d, dd in enumerate(dataset.partitions["all"]):
        n = len(dd)
        if n < 3:
            raise SplitError(
                f"domain {d} has {n} sample(s); need >= 3 to split")
        sizes = _largest_remainder(n, fractions)
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
    return DomainDataset(dataset.schema, out, affinity=dataset.affinity,
                         malformed=dataset.malformed)


class QuotaSampler:
    """Fixed-quota multi-domain batch sampler.

    Every batch contains exactly quotas[d] samples of domain d, drawn from a
    per-domain shuffled cursor. A batch that does not cross the end of the
    permutation is a plain slice of it. An exhausted domain reshuffles and
    wraps, lazily: the fresh permutation is drawn only when another sample
    is needed. A wrapping batch is the rest of the old permutation followed
    by the head of the fresh one. Whenever the domain holds at least quota
    samples, a batch never repeats a sample: the head samples that the rest
    already holds are moved back, in their order, to the places of the
    first samples after the head that it does not hold, and those fill the
    head in theirs. That is the permutation a per-sample loop leaves when
    it swaps each collision with the next sample not yet taken, and it
    preserves full-pass coverage. A domain smaller than its quota repeats
    samples and swaps nothing.
    """

    def __init__(self, datas, quotas, rng: np.random.Generator):
        if len(quotas) != len(datas):
            raise ConfigError(
                f"{len(quotas)} quotas for {len(datas)} domains")
        self.quotas = [as_int(q, f"quotas[{d}]")
                       for d, q in enumerate(quotas)]
        for d, (dd, q) in enumerate(zip(datas, self.quotas)):
            if q <= 0:
                raise ConfigError(
                    f"domain {d} has zero quota but participates in training")
            if len(dd) == 0:
                raise ConfigError(f"domain {d} is empty; cannot sample")
        self.datas = list(datas)
        self.rng = rng
        self._perms = [rng.permutation(len(dd)) for dd in datas]
        self._cursors = [0] * len(datas)

    def _draw_domain(self, d: int) -> np.ndarray:
        n, quota = len(self.datas[d]), self.quotas[d]
        cur = self._cursors[d]
        if cur + quota <= n:
            self._cursors[d] = cur + quota
            return self._perms[d][cur:cur + quota].copy()
        tail = self._perms[d][cur:]
        parts = [tail]
        rest = quota - tail.size
        # One fresh permutation when n >= quota; as many as it takes when
        # the domain is smaller than its quota.
        while rest:
            perm = self.rng.permutation(n)
            take = min(n, rest)
            if n >= quota and tail.size:
                _move_tail_samples_back(perm, tail, take)
            parts.append(perm[:take])
            rest -= take
        self._perms[d], self._cursors[d] = perm, take
        return np.concatenate(parts)

    def next_batch(self) -> list:
        """One batch: list over domains of (features, labels) arrays."""
        batch = []
        for d in range(len(self.datas)):
            idx = self._draw_domain(d)
            dd = self.datas[d]
            batch.append((dd.features[idx], dd.labels[idx]))
        return batch


def _move_tail_samples_back(perm: np.ndarray, tail: np.ndarray,
                            take: int) -> None:
    """Rearrange ``perm`` in place so its first ``take`` entries avoid
    ``tail``, exactly as this loop would: for each head position c in
    turn, if the sample there is in ``tail``, swap it with the sample at
    the next position that holds one not in ``tail``.

    The loop fills head position c from the c-th position holding a sample
    not in ``tail``, so the head becomes those samples in order. A tail
    sample it bumps from position c lands on that c-th position, and is
    bumped on from there while that is inside the head; every bumped
    sample ends past the head. The hops are followed by repeated squaring
    of the hop map, a few array operations for any head length.
    ``take + len(tail)`` entries always hold ``take`` samples not in
    ``tail``, so only that many are read.
    """
    window = perm[:take + tail.size]
    in_tail = np.zeros(perm.size, dtype=bool)
    in_tail[tail] = True
    hit = in_tail[window]
    free = (~hit).nonzero()[0][:take]
    start = hit[:take].nonzero()[0]
    bumped = window[start]
    # Where the sample at each position goes when its turn comes; past the
    # head, it stays.
    hop = np.arange(window.size)
    hop[:take] = free
    while (hop[start] < take).any():
        hop = hop[hop]
    perm[:take] = window[free]
    perm[hop[start]] = bumped


def check_synth_options(fields_per_concept: int = 2, vocab_size: int = 16,
                        feature_noise: float = 0.3) -> None:
    """``synth_generate``'s rule for its options, which default as there;
    ConfigError unless fields_per_concept >= 1, vocab_size >= 2 and
    feature_noise is a finite number >= 0."""
    if fields_per_concept < 1 or vocab_size < 2:
        raise ConfigError("need fields_per_concept >= 1 and vocab_size >= 2")
    if not 0 <= feature_noise < np.inf:
        raise ConfigError(
            f"feature_noise must be a finite number >= 0, got {feature_noise!r}")


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
    check_synth_options(fields_per_concept, vocab_size, feature_noise)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d_count = spec.domains
    fields = tuple(FeatureField(f"c{k}r{r}", vocab_size)
                   for k in range(d_count) for r in range(fields_per_concept))
    schema = Schema(domains=d_count, fields=fields)
    half_range = 1.5
    datas = []
    for d in range(d_count):
        n = as_int(sizes[d], f"sizes[{d}]")
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
