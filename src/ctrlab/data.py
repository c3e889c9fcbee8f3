"""Dataset model, splitting, fixed-quota batch sampling, and synthesis.

Feature values are categorical vocabulary indices, one per declared field.
``load_csv`` and ``synth_generate`` store them in the schema's
``index_dtype``: uint8 if every vocabulary holds at most 256 entries, else
int32, which holds every index of the largest vocabulary allowed,
``VOCAB_LIMIT`` = 2**31 entries. A dataset is grouped by integer domain id;
partitions ("all" after loading, "train"/"val"/"test" after splitting) hold
per-domain feature arrays and uint8 0/1 label arrays.

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
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DataError, SchemaError, SplitError,
                     UsageError)

__all__ = [
    "FeatureField", "Schema", "DomainData", "DomainDataset",
    "SynthSpec", "load_csv", "save_csv", "split",
    "equal_quotas", "QuotaSampler", "synth_generate", "feature_indices",
    "unsigned_indices",
    "as_int", "as_float", "as_list", "read_text", "check_fractions",
    "VOCAB_LIMIT", "SPLIT_MIN_SAMPLES",
]

log = logging.getLogger(__name__)

PARTITIONS = ("train", "val", "test")

# The feature formats, narrowest first: a schema's data takes the first
# that holds every index of its largest vocabulary.
_INDEX_DTYPES = tuple(map(np.dtype, (np.uint8, np.int32)))
# The most entries a vocabulary may hold: its largest index, 2**31 - 1, is
# the largest int32, the widest feature format.
VOCAB_LIMIT = 2 ** 31
# The fewest samples of a domain that split takes: one per partition.
SPLIT_MIN_SAMPLES = len(PARTITIONS)

# Characters of whole lines that load_csv reads and parses at a time: a
# chunk ends with the line that takes it past this many.
_CHUNK_CHARS = 1 << 16
# The longest cell parsed by digit arithmetic: 10**18 - 1 < 2**63.
_MAX_DIGITS = 18
_POW10 = np.array([10 ** k for k in range(_MAX_DIGITS)], dtype=np.int64)
# Rows that save_csv formats and writes, and synth_generate draws and
# bins, at a time.
_BLOCK_ROWS = 1 << 12


def as_int(value, name: str, error=ConfigError, minimum=None,
           maximum=None) -> int:
    """``value`` as an ``int`` if it is an int or a numpy integer, not a
    bool, at least ``minimum`` and at most ``maximum`` when they are given.
    Anything else raises ``error("<name> must be an integer, got <value>")``,
    ``error("<name> must be >= <minimum>, got <value>")`` or
    ``error("<name> must be <= <maximum>, got <value>")``: the one rule for
    every count, size and seed the package takes."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be <= {maximum}, got {value}")
    return value


def as_float(value, name: str) -> float:
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


def as_list(value, name: str) -> list:
    """``value`` as a list if it is a list, a tuple or a numpy array of at
    least one dimension; anything else raises ConfigError naming ``name``
    and the value."""
    if isinstance(value, (list, tuple)) or (
            isinstance(value, np.ndarray) and value.ndim >= 1):
        return list(value)
    raise ConfigError(f"{name} must be a list, got {value!r}")


@contextmanager
def _reading(path, error):
    """Raise ``error`` naming ``path`` for a file that cannot be read or is
    not UTF-8 text, chained from the cause."""
    try:
        yield
    except OSError as exc:
        raise error(f"{path}: cannot be read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_text(path, error) -> str:
    """The whole text of a UTF-8 file, newlines translated as text mode
    does; else ``error("<path>: cannot be read (...)")`` or
    ``error("<path>: not UTF-8 text (...)")``."""
    with _reading(path, error), open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
        object.__setattr__(self, "domains", as_int(
            self.domains, "domains", SchemaError, minimum=1))
        if not self.fields:
            raise SchemaError("schema needs at least one feature field")
        for i, f in enumerate(self.fields):
            if not isinstance(f.name, str):
                raise SchemaError(
                    f"fields[{i}] name must be a string, got {f.name!r}")
            # A "\r" would end the header line when load_csv reads it back.
            if not f.name or any(c in f.name for c in ",\n\r"):
                raise SchemaError(f"field name {f.name!r} is not CSV-safe")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in {names}")
        object.__setattr__(self, "fields", tuple(
            FeatureField(f.name, as_int(f.vocab_size,
                                        f"field {f.name!r} vocab_size",
                                        SchemaError, minimum=1,
                                        maximum=VOCAB_LIMIT))
            for f in self.fields))

    @property
    def num_fields(self) -> int:
        return len(self.fields)

    @property
    def vocab_sizes(self) -> tuple:
        return tuple(f.vocab_size for f in self.fields)

    @property
    def index_dtype(self) -> np.dtype:
        """The feature format of this schema's data: uint8 if every
        vocabulary holds at most 256 entries, else int32."""
        largest = max(self.vocab_sizes)
        return next(t for t in _INDEX_DTYPES if largest <= np.iinfo(t).max + 1)

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
        """The schema ``to_json`` writes: an object of exactly "domains"
        and "fields", each field an object of exactly "name" and
        "vocab_size"; an unknown or missing key is refused by name."""
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise SchemaError(f"cannot parse schema: {exc}") from exc
        _exact_keys(raw, ("domains", "fields"), "schema")
        if not isinstance(raw["fields"], list):
            raise SchemaError(
                f"schema fields must be a list, got {raw['fields']!r}")
        fields = tuple(
            FeatureField(**_exact_keys(f, ("name", "vocab_size"),
                                       f"schema fields[{i}]"))
            for i, f in enumerate(raw["fields"]))
        return cls(domains=raw["domains"], fields=fields)

    @classmethod
    def load(cls, path) -> "Schema":
        return cls.from_json(read_text(path, SchemaError))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def _exact_keys(raw, keys: tuple, what: str) -> dict:
    """``raw`` if it is a JSON object holding exactly ``keys``; else a
    SchemaError naming ``what`` and the unknown or missing keys."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{what} must be an object, got {raw!r}")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise SchemaError(
            f"{what} has unknown keys {unknown}; it takes {list(keys)}")
    missing = [k for k in keys if k not in raw]
    if missing:
        raise SchemaError(f"{what} is missing keys {missing}")
    return raw


def feature_indices(features) -> np.ndarray:
    """``features`` as an index array, refusing values that are not whole
    or do not fit.

    A uint8 or int32 array, the formats a schema's data is stored in, is
    returned as it is, after one dtype check. Any other input is cast to
    int32, and a value the cast would change raises ``DataError`` instead
    of silently becoming a different index: one that is not whole (1.7,
    NaN, inf, or one outside the int64 range), or a whole one outside the
    int32 range.
    """
    features = np.asarray(features)
    if features.dtype in _INDEX_DTYPES:
        return features
    with np.errstate(invalid="ignore"):
        whole = features.astype(np.int64, copy=False)
    if not np.array_equal(whole, features):
        raise DataError("feature values must be whole numbers")
    fits = np.iinfo(np.int32)
    if whole.size and (whole.min() < fits.min or whole.max() > fits.max):
        raise DataError(f"feature values must lie in [{fits.min}, {fits.max}]")
    return whole.astype(np.int32)


def unsigned_indices(features: np.ndarray) -> np.ndarray:
    """``features``, in a format ``feature_indices`` returns, viewed as
    unsigned integers of the same width: a negative int32 index reads as
    one of at least ``VOCAB_LIMIT``, past every vocabulary, so one bound
    checks both ends of each field's range."""
    return features.view(f"u{features.itemsize}")


class DomainData:
    """Feature/label arrays for one domain within one partition.

    Features are kept as ``feature_indices`` returns them. Labels are
    stored as uint8; a label other than 0 or 1 (0.5, NaN, 2, -1) raises a
    DataError naming its row.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = feature_indices(features)
        labels = np.asarray(labels)
        if features.ndim != 2 or labels.ndim != 1:
            raise UsageError("features must be (n, F), labels (n,)")
        if features.shape[0] != labels.shape[0]:
            raise UsageError("features and labels disagree on sample count")
        # Written so that NaN is refused too.
        bad = (labels != 0) & (labels != 1)
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"row {i}: label {labels[i]} is not 0/1")
        self.features = features
        self.labels = labels.astype(np.uint8, copy=False)

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, idx) -> "DomainData":
        return DomainData(np.take(self.features, idx, axis=0),
                          np.take(self.labels, idx))

    @classmethod
    def empty(cls, schema: Schema) -> "DomainData":
        """No rows, in the formats of ``schema``'s data."""
        return cls(np.zeros((0, schema.num_fields), dtype=schema.index_dtype),
                   np.zeros(0, dtype=np.uint8))


@dataclass
class SynthSpec:
    """Planted ground truth and readout options for ``synth_generate``.

    affinity[d, k] says how much domain d's labels borrow concept k; noise[d]
    is the probability that domain d's label is flipped after thresholding;
    domain d has sizes[d] samples. fields_per_concept fields of vocab_size
    values read each concept, with Gaussian noise of sd feature_noise. The
    one rule for a synthetic spec, which RunConfig applies by constructing
    one: the fields are checked in order, by ``as_list``, ``as_float`` and
    ``as_int``, naming an entry as ``affinity[i][j]``; else ConfigError.
    """

    domains: int
    affinity: np.ndarray
    noise: np.ndarray
    sizes: list
    fields_per_concept: int = 2
    vocab_size: int = 16
    feature_noise: float = 0.3

    def __post_init__(self):
        self.domains = d = as_int(self.domains, "domains", minimum=1)
        rows = [as_list(row, f"affinity[{i}]")
                for i, row in enumerate(as_list(self.affinity, "affinity"))]
        if len(rows) != d or any(len(row) != d for row in rows):
            raise ConfigError(f"affinity must be {d}x{d}")
        self.affinity = np.array(
            [[as_float(v, f"affinity[{i}][{j}]") for j, v in enumerate(row)]
             for i, row in enumerate(rows)], dtype=np.float64)
        if not ((self.affinity >= 0.0) & (self.affinity <= 1.0)).all():
            raise ConfigError("affinity entries must lie in [0, 1]")
        if np.any(np.diag(self.affinity) <= 0.0):
            raise ConfigError("affinity diagonal must be positive")
        noise = as_list(self.noise, "noise")
        if len(noise) != d:
            raise ConfigError(f"noise must have shape ({d},)")
        self.noise = np.array([as_float(v, f"noise[{k}]")
                               for k, v in enumerate(noise)], dtype=np.float64)
        if not ((self.noise >= 0.0) & (self.noise <= 0.5)).all():
            raise ConfigError("noise probabilities must lie in [0, 0.5]")
        sizes = as_list(self.sizes, "sizes")
        if len(sizes) != d:
            raise ConfigError(f"sizes needs {d} entries")
        self.sizes = [as_int(n, f"sizes[{k}]", minimum=0)
                      for k, n in enumerate(sizes)]
        self.fields_per_concept = as_int(self.fields_per_concept,
                                         "fields_per_concept", minimum=1)
        self.vocab_size = as_int(self.vocab_size, "vocab_size", minimum=2,
                                 maximum=VOCAB_LIMIT)
        feature_noise = as_float(self.feature_noise, "feature_noise")
        if feature_noise < 0:
            raise ConfigError(f"feature_noise must be a finite number >= 0, "
                              f"got {self.feature_noise!r}")
        self.feature_noise = feature_noise


class DomainDataset:
    """Schema plus per-domain sample arrays grouped into named partitions.

    Every partition covers every domain, and every domain has one feature
    column per field; else a UsageError names the partition, and the
    domain whose columns differ. Every feature index lies in its field's
    vocabulary, so ``save_csv`` writes only what ``load_csv`` reads back;
    else a DataError names the partition, the domain, the row, the field
    and the index. Features are stored in the schema's ``index_dtype``.
    """

    def __init__(self, schema: Schema, partitions: dict, malformed: int = 0):
        self.schema = schema
        self.malformed = malformed
        self.partitions = {}
        dtype, smallest = schema.index_dtype, min(schema.vocab_sizes)
        for name, datas in partitions.items():
            if len(datas) != schema.domains:
                raise UsageError(
                    f"partition {name!r} covers {len(datas)} domains, "
                    f"schema declares {schema.domains}")
            checked = []
            for d, dd in enumerate(datas):
                if dd.features.shape[1] != schema.num_fields:
                    raise UsageError(
                        f"partition {name!r} domain {d} has "
                        f"{dd.features.shape[1]} feature columns, schema "
                        f"declares {schema.num_fields} fields")
                # The largest index alone settles a block whose indices
                # all lie below every vocabulary.
                indices = unsigned_indices(dd.features)
                if indices.size and indices.max() >= smallest:
                    _check_vocab(schema, dd.features,
                                 f"partition {name!r} domain {d}")
                if dd.features.dtype != dtype:
                    # Every index lies in its vocabulary: the cast is exact.
                    dd = DomainData(dd.features.astype(dtype), dd.labels)
                checked.append(dd)
            self.partitions[name] = checked

    def partition(self, name: str) -> list:
        """Partition ``name``'s data, one DomainData per domain; a
        UsageError names a missing partition and the ones present."""
        if name not in self.partitions:
            raise UsageError(f"no partition {name!r}; the dataset holds "
                             f"{', '.join(map(repr, self.partitions))}")
        return self.partitions[name]

    def domain(self, partition: str, d: int) -> DomainData:
        """Domain ``d``'s data in partition ``partition``; a UsageError
        names a domain outside the schema's."""
        if not 0 <= d < self.schema.domains:
            raise UsageError(f"domain {d} outside [0, {self.schema.domains})")
        return self.partition(partition)[d]


def _check_vocab(schema: Schema, features: np.ndarray, where: str) -> None:
    """Raise a DataError naming ``where``, the row, the field and the index
    of the first index of ``features`` outside its field's vocabulary."""
    out = unsigned_indices(features) >= np.array(schema.vocab_sizes)
    if out.any():
        i, j = np.argwhere(out)[0].tolist()
        f = schema.fields[j]
        raise DataError(f"{where} row {i}: field {f.name!r} index "
                        f"{features[i, j]} outside [0, {f.vocab_size})")


def load_csv(path, schema: Schema) -> DomainDataset:
    """Read a dataset CSV into the single partition "all".

    After the header, each data line is a row: 2 + F comma-separated
    cells, ``domain,label,features...``, each cell an optional "-"
    followed by 1 to 18 ASCII digits, as ``save_csv`` writes them. Lines
    end at "\\n" after the text-mode newline translation, as file iteration
    splits them. Blank and whitespace-only lines are skipped; every other
    line that is not a row is malformed: counted, reported and skipped. A
    row with a value out of range (domain, label, or vocabulary index)
    aborts with a DataError naming the first such line and its first such
    cell. A header other than ``schema.header()`` raises a SchemaError
    naming the missing, unexpected, repeated and out-of-order columns. A
    file that cannot be opened or read, or that is not UTF-8 text, raises
    a DataError naming it, as ``read_text`` does.

    A chunk is one ``read`` of ``_CHUNK_CHARS + 1`` characters, completed
    by a ``readline`` when it ends inside a line: the lines up to the one
    that takes it past ``_CHUNK_CHARS``. Each chunk is parsed as one byte
    array: its separators, "," and "\\n", end the cells. A row's value is
    assembled from the right: the ones digit of every cell, then digit k of
    just the cells longer than k digits, so the work grows with the digits
    the chunk holds, not with its cell count times its longest cell. One
    stable sort groups a chunk's rows by domain; each domain's rows are
    copied into a feature block of the schema's ``index_dtype`` and a uint8
    label block, the result's own formats, and each domain's blocks are
    concatenated once at the end and dropped as they are, so the peak is
    the result plus one domain's blocks plus one chunk's working arrays,
    never a multiple of the file's text. A chunk is decoded before any of
    its lines is parsed, so bytes that are not UTF-8 raise before an
    out-of-range row of their own chunk; such bytes in a later chunk may
    raise before or after it, as far as text mode has decoded ahead.
    """
    # A negative value reads as a huge unsigned one, so one comparison
    # with the bounds checks both ends of each range.
    bound = np.array((schema.domains, 2) + schema.vocab_sizes, dtype=np.uint64)
    blocks = [[] for _ in range(schema.domains)]
    malformed = 0
    dtype = schema.index_dtype
    with _reading(path, DataError), open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != schema.header():
            raise _header_error(schema, header)
        line_no = 2
        while text := fh.read(_CHUNK_CHARS + 1):
            if not text.endswith("\n"):
                text += fh.readline()
            is_row, rows = _parse_chunk(text, len(bound))
            out = rows.view(np.uint64) >= bound
            if out.any():
                i = int(out.any(axis=1).argmax())
                raise _range_error(
                    schema, line_no + int(np.flatnonzero(is_row)[i]),
                    rows[i].tolist())
            if not is_row.all():
                # Lines end at "\n" alone, as the parse splits them.
                lines = text.split("\n")
                malformed += sum(1 for i in np.flatnonzero(~is_row).tolist()
                                 if lines[i].strip())
            line_no += len(is_row)
            # Rows lie below ``bound``, so both casts are exact.
            features = rows[:, 2:].astype(dtype)
            labels = rows[:, 1].astype(np.uint8)
            domains = rows[:, 0]
            # One stable sort groups the rows by domain, in line order. A
            # gather copies, and a domain that holds the whole chunk takes
            # its fresh arrays: no block keeps another's rows alive.
            order = np.argsort(domains, kind="stable")
            stops = np.bincount(domains, minlength=schema.domains).cumsum()
            start = 0
            for d, stop in enumerate(stops.tolist()):
                if stop > start:
                    mine = (slice(None) if stop - start == len(order)
                            else order[start:stop])
                    blocks[d].append((features[mine], labels[mine]))
                start = stop
    if malformed:
        log.warning("%s: skipped %d malformed row(s)", path, malformed)
    datas = []
    for d in range(schema.domains):
        d_blocks, blocks[d] = blocks[d], None  # freed once joined
        if d_blocks:
            datas.append(DomainData(np.concatenate([f for f, _ in d_blocks]),
                                    np.concatenate([y for _, y in d_blocks])))
        else:
            datas.append(DomainData.empty(schema))
    return DomainDataset(schema, {"all": datas}, malformed=malformed)


def _header_error(schema: Schema, header: str) -> SchemaError:
    """The SchemaError for a header line that is not ``schema.header()``:
    it names the columns missing, unexpected, repeated and out of order."""
    expected = schema.header()
    want, got = expected.split(","), header.split(",")
    shared = [c for c in got if c in want]
    problems = {
        "missing columns": [c for c in want if c not in got],
        "unexpected columns": [c for c in got if c not in want],
        "repeated columns": sorted({c for c in got if got.count(c) > 1}),
        "columns out of order": [
            c for c, w in zip(shared, [c for c in want if c in got])
            if c != w],
    }
    parts = [f"{what} {cols}" for what, cols in problems.items() if cols]
    parts.append(f"expected {expected!r}, got {header!r}")
    return SchemaError("header mismatch: " + "; ".join(parts))


def _range_error(schema: Schema, line_no: int, row: list) -> DataError:
    """The DataError for the first cell of ``row``, a row of line
    ``line_no``, that lies outside its range."""
    domain, label, *feats = row
    if not 0 <= domain < schema.domains:
        what = f"domain {domain} outside [0, {schema.domains})"
    elif label not in (0, 1):
        what = f"label {label} is not 0/1"
    else:
        f, v = next((f, v) for f, v in zip(schema.fields, feats)
                    if not 0 <= v < f.vocab_size)
        what = f"field {f.name!r} index {v} outside [0, {f.vocab_size})"
    return DataError(f"line {line_no}: {what}")


def _gaps(at: np.ndarray) -> np.ndarray:
    """``np.diff(at, prepend=-1)`` of a nonempty 1-d array, without the
    concatenation that ``prepend`` makes."""
    out = np.empty_like(at)
    out[0] = at[0] + 1
    np.subtract(at[1:], at[:-1], out=out[1:])
    return out


def _parse_chunk(text: str, num_cols: int):
    """Which lines of ``text`` are rows of ``num_cols`` cells, and those
    rows' values as an int64 (rows, num_cols) matrix, in line order.

    ``text`` is whole lines, each ending in "\\n" but perhaps the last.
    Each cell ends at a separator, "," or "\\n". A row's cells are built
    from the right: every such cell has a ones digit, which is read for
    all of them with no mask; digit k is read only for the cells longer
    than k digits, a set that narrows as k grows; the sign comes last.
    When every line is a row, the cells are the separators as they
    stand, with no gather.
    """
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    buf = np.frombuffer(text.encode(), dtype=np.uint8)
    newline = buf == ord("\n")
    sep = newline | (buf == ord(","))
    sep_at = np.flatnonzero(sep)
    ends = np.flatnonzero(newline[sep_at])  # each line's last separator
    seps = _gaps(ends)
    is_row = seps == num_cols
    # Each cell's digit count: its length, less one for a leading "-".
    digits = _gaps(sep_at) - 1
    # Bytes that are neither a separator nor an ASCII digit (uint8 wraps
    # below "0"); of these, a "-" that begins its cell is a sign.
    odd = np.flatnonzero(~sep & (buf - ord("0") > 9))
    minus = buf[odd] == ord("-")
    cell = np.searchsorted(sep_at, odd[minus])
    signed = odd[minus] == sep_at[cell] - digits[cell]
    minus[minus] = signed
    negative = cell[signed]
    digits[negative] -= 1
    bad_cells = np.flatnonzero((digits == 0) | (digits > _MAX_DIGITS))
    is_row[np.searchsorted(ends, bad_cells)] = False
    is_row[np.searchsorted(sep_at[ends], odd[~minus])] = False
    # A basic slice: the whole arrays as views, not gathered copies.
    kept = slice(None) if is_row.all() else np.repeat(is_row, seps)
    cell_end, digits = sep_at[kept], digits[kept]
    values = (buf[cell_end - 1] - ord("0")).astype(np.int64)
    longer = np.flatnonzero(digits > 1)
    k = 1  # digit k from the right, of the cells in ``longer``
    while longer.size:
        digit = buf[cell_end[longer] - 1 - k] - ord("0")
        values[longer] += digit * _POW10[k]
        k += 1
        longer = longer[digits[longer] > k]
    if negative.size:  # sign work only for chunks that hold a sign
        sign = np.zeros(len(sep_at), dtype=bool)
        sign[negative] = True
        values[sign[kept]] *= -1
    return is_row, values.reshape(-1, num_cols)


def save_csv(dataset: DomainDataset, path, partition: str = "all") -> None:
    """Write one partition as the CSV ``load_csv`` reads: the schema header,
    then a ``domain,label,features...`` line per sample, domain by domain.

    The lines are formatted and written ``_BLOCK_ROWS`` rows at a time,
    each block from an int64 table of its rows, so the memory it takes
    does not grow with the file.
    """
    datas = dataset.partition(partition)
    line = ",".join(["%d"] * (2 + dataset.schema.num_fields)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dataset.schema.header() + "\n")
        for d, dd in enumerate(datas):
            for start in range(0, len(dd), _BLOCK_ROWS):
                labels = dd.labels[start:start + _BLOCK_ROWS]
                table = np.column_stack((
                    np.full(len(labels), d), labels.astype(np.int64),
                    dd.features[start:start + _BLOCK_ROWS]))
                fh.write("".join([line % tuple(row)
                                  for row in table.tolist()]))


def _largest_remainder(total: int, weights) -> list:
    """Integer apportionment of `total` by `weights`; remainders break ties
    toward earlier positions."""
    weights = np.asarray(weights, dtype=np.float64)
    exact = total * weights / weights.sum()
    base = np.floor(exact).astype(int)
    remainder = exact - base
    short = total - int(base.sum())
    if short:
        order = np.argsort(-remainder, kind="stable")
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
    """``split``'s rule: the train/val/test fractions as floats, if they
    are a list of 3, each a finite number by ``as_float``, none negative,
    summing to 1; else ConfigError."""
    fractions = [as_float(f, f"split_fractions[{i}]") for i, f in
                 enumerate(as_list(fractions, "split_fractions"))]
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

    Every domain needs at least ``SPLIT_MIN_SAMPLES`` samples, and each
    positive-fraction partition receives at least one sample per domain.
    """
    fractions = check_fractions(fractions)
    seed = as_int(seed, "seed", minimum=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = {name: [] for name in PARTITIONS}
    for d, dd in enumerate(dataset.partition("all")):
        n = len(dd)
        if n < SPLIT_MIN_SAMPLES:
            raise SplitError(f"domain {d} has {n} sample(s); need >= "
                             f"{SPLIT_MIN_SAMPLES} to split")
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
    return DomainDataset(dataset.schema, out, malformed=dataset.malformed)


class QuotaSampler:
    """Fixed-quota multi-domain batch sampler.

    Every batch contains exactly quotas[d] samples of domain d, drawn from a
    per-domain shuffled cursor. A batch that does not cross the end of the
    permutation is a plain slice of it. An exhausted domain reshuffles and
    wraps, lazily: the fresh permutation is drawn only when another sample
    is needed. A wrapping batch is the rest of the old permutation followed
    by the head of the fresh one. Whenever the domain holds at least quota
    samples, a batch never repeats a sample: a loop walks the head and
    swaps each sample that the rest already holds with the next later
    sample it does not. The head becomes the first samples of the fresh
    permutation that the rest does not hold, in their order; the samples
    it bumps end past the head, not always in their order. This preserves
    full-pass coverage. A domain smaller than its quota repeats samples
    and swaps nothing.
    """

    def __init__(self, datas, quotas, rng: np.random.Generator):
        quotas = as_list(quotas, "quotas")
        if len(quotas) != len(datas):
            raise ConfigError(
                f"{len(quotas)} quotas for {len(datas)} domains")
        self.quotas = [as_int(q, f"quotas[{d}]", minimum=1)
                       for d, q in enumerate(quotas)]
        for d, dd in enumerate(datas):
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
                in_tail = np.zeros(n, dtype=bool)
                in_tail[tail] = True
                # After a swap at c, positions c + 1 to j hold tail
                # samples, so the next free one lies past j: j only moves
                # forward.
                j = 0
                for c in range(take):
                    if in_tail[perm[c]]:
                        j = max(j, c) + 1
                        while in_tail[perm[j]]:
                            j += 1
                        perm[c], perm[j] = perm[j], perm[c]
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


def synth_generate(spec: SynthSpec, seed: int) -> DomainDataset:
    """Generate a planted-affinity dataset under partition "all".

    Domain d, sample i: loadings U ~ Uniform(-1,1)^D; click score
    s = affinity[d] . U; label = [s > 0] flipped with probability noise[d].
    Field j in concept group k reads affinity[d, k] * U_k plus Gaussian
    feature noise, binned uniformly over [-1.5, 1.5] into the vocabulary.

    One generator, seeded by ``seed``, draws domain by domain: the (n, D)
    loadings, then n uniforms for the flips, then the readout noise as
    standard normals in row order, fields within concepts within a row,
    scaled by ``feature_noise``. The noise is drawn and binned
    ``_BLOCK_ROWS`` rows at a time into the domain's feature array, so a
    domain takes its loadings and one block beside its result.
    """
    seed = as_int(seed, "seed", minimum=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d_count, per_concept = spec.domains, spec.fields_per_concept
    fields = tuple(FeatureField(f"c{k}r{r}", spec.vocab_size)
                   for k in range(d_count) for r in range(per_concept))
    schema = Schema(domains=d_count, fields=fields)
    datas = []
    for d, n in enumerate(spec.sizes):
        u = rng.uniform(-1.0, 1.0, size=(n, d_count))
        labels = (u @ spec.affinity[d] > 0.0).astype(np.uint8)
        labels[rng.random(n) < spec.noise[d]] ^= 1
        u *= spec.affinity[d]  # each concept's mixture term
        features = np.empty((n, schema.num_fields), dtype=schema.index_dtype)
        for start in range(0, n, _BLOCK_ROWS):
            mixed = u[start:start + _BLOCK_ROWS, :, None]
            # Noise plus the mixture term on each of the concept's fields,
            # binned in place: floor((readout + 1.5) / 3 * vocab_size).
            block = rng.standard_normal((len(mixed), d_count, per_concept))
            block *= spec.feature_noise
            block += mixed
            block += 1.5
            block /= 3.0
            block *= spec.vocab_size
            np.floor(block, out=block)
            np.clip(block, 0, spec.vocab_size - 1, out=block)
            features[start:start + _BLOCK_ROWS] = block.reshape(len(mixed), -1)
        datas.append(DomainData(features, labels))
    return DomainDataset(schema, {"all": datas})
