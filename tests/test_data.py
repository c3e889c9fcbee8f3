import dataclasses
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest

from ctrlab import data as D
from ctrlab.errors import (ConfigError, DataError, SchemaError, SplitError,
                           UsageError)
from ctrlab.metrics import auc
import reference as ref


def two_field_schema(domains=2):
    return D.Schema(domains=domains,
                    fields=(D.FeatureField("f0", 8), D.FeatureField("f1", 32)))


def onehot(features, vocab_sizes):
    cols = []
    for j, v in enumerate(vocab_sizes):
        block = np.zeros((features.shape[0], v))
        block[np.arange(features.shape[0]), features[:, j]] = 1.0
        cols.append(block)
    return np.concatenate(cols, axis=1)


def train_logreg(X, y, steps=300, lr=0.5):
    w = np.zeros(X.shape[1])
    b = 0.0
    n = X.shape[0]
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        g = p - y
        w -= lr * (X.T @ g) / n
        b -= lr * g.mean()
    return w, b


def logreg_scores(X, w, b):
    return 1.0 / (1.0 + np.exp(-(X @ w + b)))


def loop_save_csv(dataset, path, partition="all"):
    """Reference ``save_csv``: every cell formatted in a per-row loop."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dataset.schema.header() + "\n")
        for d, dd in enumerate(dataset.partitions[partition]):
            for i in range(len(dd)):
                row = [str(d), str(int(dd.labels[i]))]
                row += [str(int(v)) for v in dd.features[i]]
                fh.write(",".join(row) + "\n")


def counts(ds, partition):
    """Rows per domain in one partition."""
    return [len(dd) for dd in ds.partitions[partition]]


# load_csv's row grammar: 2 + F cells, each an optional "-" and 1 to 18
# ASCII digits.
CELL = "-?[0-9]{1,18}"


def loop_load_csv(path, schema):
    """Reference loader: reads the CSV line by line, takes a line that the
    row grammar matches as a row, range-checks it cell by cell, and builds
    each domain's arrays from per-row lists."""
    row = re.compile(",".join([CELL] * (2 + schema.num_fields)))
    feats_by_domain = [[] for _ in range(schema.domains)]
    labels_by_domain = [[] for _ in range(schema.domains)]
    malformed = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != schema.header():
                raise D._header_error(schema, header)
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                if not row.fullmatch(line.removesuffix("\n")):
                    malformed += 1
                    continue
                domain, label, *features = map(int, line.split(","))
                if not 0 <= domain < schema.domains:
                    raise DataError(f"line {line_no}: domain {domain} "
                                    f"outside [0, {schema.domains})")
                if label not in (0, 1):
                    raise DataError(
                        f"line {line_no}: label {label} is not 0/1")
                for f, v in zip(schema.fields, features):
                    if not 0 <= v < f.vocab_size:
                        raise DataError(
                            f"line {line_no}: field {f.name!r} index {v} "
                            f"outside [0, {f.vocab_size})")
                feats_by_domain[domain].append(features)
                labels_by_domain[domain].append(label)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if malformed:
        D.log.warning("%s: skipped %d malformed row(s)", path, malformed)
    datas = []
    for d in range(schema.domains):
        if feats_by_domain[d]:
            datas.append(D.DomainData(
                np.array(feats_by_domain[d], dtype=schema.index_dtype),
                np.array(labels_by_domain[d], dtype=np.uint8)))
        else:
            datas.append(D.DomainData.empty(schema))
    return D.DomainDataset(schema, {"all": datas}, malformed=malformed)


class TestSchema:
    def test_round_trip_json(self):
        s = two_field_schema(3)
        again = D.Schema.from_json(s.to_json())
        assert again == s
        assert again.header() == "domain,label,f0,f1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            D.Schema(domains=1,
                     fields=(D.FeatureField("x", 2), D.FeatureField("x", 2)))

    def test_bad_vocab_rejected(self):
        with pytest.raises(SchemaError):
            D.Schema(domains=1, fields=(D.FeatureField("x", 0),))

    def test_file_round_trip(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "schema.json"
        s.save(path)
        assert D.Schema.load(path) == s

    def test_missing_file_is_schema_error_naming_it(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(SchemaError) as err:
            D.Schema.load(path)
        assert str(err.value).startswith(f"{path}: cannot be read (")
        assert err.value.category == "schema"
        assert isinstance(err.value.__cause__, FileNotFoundError)

    @pytest.mark.parametrize("domains, vocab, named", [
        ("2.9", "8", "domains must be an integer, got 2.9"),
        ('"2"', "8", "domains must be an integer, got '2'"),
        ("true", "8", "domains must be an integer, got True"),
        ("2", "16.7", "field 'f0' vocab_size must be an integer, got 16.7"),
        ("2", "false", "field 'f0' vocab_size must be an integer, got False"),
    ])
    def test_non_integer_counts_rejected(self, domains, vocab, named):
        text = (f'{{"domains": {domains}, '
                f'"fields": [{{"name": "f0", "vocab_size": {vocab}}}]}}')
        with pytest.raises(SchemaError) as err:
            D.Schema.from_json(text)
        assert str(err.value) == named
        raw = json.loads(text)
        with pytest.raises(SchemaError) as err:
            D.Schema(raw["domains"], (D.FeatureField(
                "f0", raw["fields"][0]["vocab_size"]),))
        assert str(err.value) == named

    @pytest.mark.parametrize("name", [3, None, ["f"], b"f"],
                             ids=["int", "none", "list", "bytes"])
    def test_name_that_is_not_a_string_rejected(self, name):
        """Refused by position and rule, from the constructor and from a
        schema file alike."""
        named = f"fields[1] name must be a string, got {name!r}"
        fields = (D.FeatureField("f0", 4), D.FeatureField(name, 4))
        with pytest.raises(SchemaError) as err:
            D.Schema(2, fields)
        assert str(err.value) == named
        assert err.value.category == "schema"
        if isinstance(name, bytes):
            return  # JSON has no bytes
        text = json.dumps({"domains": 2, "fields": [
            {"name": f.name, "vocab_size": f.vocab_size} for f in fields]})
        with pytest.raises(SchemaError) as err:
            D.Schema.from_json(text)
        assert str(err.value) == named

    @pytest.mark.parametrize("raw, named", [
        ({"domains": 2, "zz": 1, "fields": [{"name": "a", "vocab_size": 4}]},
         "schema has unknown keys ['zz']; it takes ['domains', 'fields']"),
        ({"domains": 2, "fields": [{"name": "a", "vocab_size": 4, "x": 1}]},
         "schema fields[0] has unknown keys ['x']; it takes "
         "['name', 'vocab_size']"),
        ({"domains": 2, "fields": [{"name": "a", "vocab_size": 4},
                                   {"name": "b", "vocab_sise": 4}]},
         "schema fields[1] has unknown keys ['vocab_sise']; it takes "
         "['name', 'vocab_size']"),
        ({"domains": 2}, "schema is missing keys ['fields']"),
        ({"fields": [{"name": "a", "vocab_size": 4}]},
         "schema is missing keys ['domains']"),
        ({"domains": 2, "fields": [{"vocab_size": 4}]},
         "schema fields[0] is missing keys ['name']"),
        ([2], "schema must be an object, got [2]"),
        ({"domains": 2, "fields": {"name": "a"}},
         "schema fields must be a list, got {'name': 'a'}"),
        ({"domains": 2, "fields": ["a"]},
         "schema fields[0] must be an object, got 'a'"),
    ], ids=["top-level-unknown", "field-unknown", "misspelt", "no-fields",
            "no-domains", "field-missing", "not-an-object",
            "fields-not-a-list", "field-not-an-object"])
    def test_unknown_and_missing_keys_rejected(self, tmp_path, raw, named):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            D.Schema.load(path)
        assert str(err.value) == named

    def test_vocab_beyond_int32_indices_rejected(self):
        """Every index of a vocabulary of at most 2**31 entries fits the
        int32 feature format; a larger one is refused, naming its field."""
        with pytest.raises(SchemaError) as err:
            D.Schema(2, (D.FeatureField("f", 2 ** 40),))
        assert str(err.value) == (
            f"field 'f' vocab_size must be <= {2 ** 31}, got {2 ** 40}")
        assert D.Schema(2, (D.FeatureField("f", 2 ** 31),)).vocab_sizes == (
            2 ** 31,)

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", "a\r\nb", ""])
    def test_names_that_break_the_csv_rejected(self, name):
        with pytest.raises(SchemaError) as err:
            D.Schema(2, (D.FeatureField(name, 4),))
        assert str(err.value) == f"field name {name!r} is not CSV-safe"

    @pytest.mark.parametrize("name", [" a\tb ", "\x85", "x\u2028y", "é"])
    def test_csv_safe_names_round_trip(self, tmp_path, name):
        """A field name that Schema accepts heads a CSV that load_csv reads
        back from save_csv."""
        schema = D.Schema(2, (D.FeatureField(name, 4),))
        ds = D.DomainDataset(schema, {"all": [
            D.DomainData([[3]], [1.0]), D.DomainData([[0], [2]], [0.0, 1.0])]})
        D.save_csv(ds, tmp_path / "ds.csv")
        again = D.load_csv(tmp_path / "ds.csv", schema)
        assert counts(again, "all") == [1, 2]
        assert again.domain("all", 1).features.tolist() == [[0], [2]]

    def test_numpy_integer_counts_accepted(self):
        s = D.Schema(np.int64(2), (D.FeatureField("f0", np.int32(8)),))
        assert s.domains == 2 and s.vocab_sizes == (8,)

    def test_numpy_integer_counts_are_stored_as_ints(self, tmp_path):
        """The schema keeps ints, so it saves and loads back equal."""
        s = D.Schema(np.int64(2), (D.FeatureField("f0", np.int32(8)),
                                   D.FeatureField("f1", np.uint8(3))))
        assert [type(v) for v in (s.domains, *s.vocab_sizes)] == [int] * 3
        path = tmp_path / "schema.json"
        s.save(path)
        assert D.Schema.load(path) == s == D.Schema(
            2, (D.FeatureField("f0", 8), D.FeatureField("f1", 3)))


class TestDomainData:
    @pytest.mark.parametrize("bad", [1.7, -0.5, np.nan, np.inf, 2.0 ** 63])
    def test_non_whole_feature_rejected(self, bad):
        with pytest.raises(DataError, match="whole numbers"):
            D.DomainData(np.array([[0.0, bad]]), np.array([1.0]))

    def test_int32_features_kept_as_given(self):
        feats = np.array([[0, 1]], dtype=np.int32)
        assert D.DomainData(feats, np.array([1.0])).features is feats

    @pytest.mark.parametrize("feats", [
        [[0, 1]], np.array([[0.0, 1.0]]), np.array([[0, 1]], dtype=np.int64)])
    def test_whole_values_become_int32(self, feats):
        out = D.DomainData(feats, np.array([1.0])).features
        assert out.dtype == np.int32
        assert out.tolist() == [[0, 1]]

    @pytest.mark.parametrize("bad", [2 ** 31, -2 ** 31 - 1])
    def test_values_outside_int32_rejected(self, bad):
        """A whole value that int32 cannot hold is refused, not wrapped
        into a different index."""
        feats = np.array([[0, bad]], dtype=np.int64)
        with pytest.raises(DataError) as err:
            D.DomainData(feats, np.array([1.0]))
        assert str(err.value) == (
            f"feature values must lie in [{-2 ** 31}, {2 ** 31 - 1}]")
        edges = np.array([[-2 ** 31, 2 ** 31 - 1]], dtype=np.int64)
        assert D.DomainData(edges, np.array([1.0])).features.tolist() == (
            edges.tolist())

    @pytest.mark.parametrize("bad, shown", [
        (0.5, "0.5"), (np.nan, "nan"), (2, "2.0"), (-1, "-1.0")])
    def test_label_that_is_not_0_or_1_rejected(self, bad, shown):
        """A label save_csv would write as another one, or that would turn
        into a NaN loss mid-run, is refused, naming its row."""
        with pytest.raises(DataError) as err:
            D.DomainData([[0], [1], [2]], [1.0, 0.0, bad])
        assert str(err.value) == f"row 2: label {shown} is not 0/1"

    @pytest.mark.parametrize("labels", [
        [1.0, 0.0], np.array([1, 0]), np.array([True, False]),
        np.array([1, 0], dtype=np.uint8)])
    def test_labels_stored_as_uint8(self, labels):
        out = D.DomainData([[0], [1]], labels).labels
        assert out.dtype == np.uint8 and out.tolist() == [1, 0]

    def test_index_outside_the_vocabulary_refused(self):
        """A dataset that save_csv would write and load_csv refuse is
        refused when it is built, naming where the index lies."""
        schema = D.Schema(1, (D.FeatureField("f", 3),))
        for feats, named in (([[7], [-2]], "row 0: field 'f' index 7"),
                             ([[1], [-2]], "row 1: field 'f' index -2")):
            with pytest.raises(DataError) as err:
                D.DomainDataset(schema,
                                {"all": [D.DomainData(feats, [1, 0])]})
            assert str(err.value) == (
                f"partition 'all' domain 0 {named} outside [0, 3)")

    def test_index_outside_its_own_field_refused(self):
        """Each column is held to its own field's vocabulary, in every
        partition and domain, with the first bad index named."""
        schema = two_field_schema()  # f0 < 8, f1 < 32
        good = D.DomainData([[7, 31], [0, 0]], [1, 0])
        bad = D.DomainData([[7, 9], [1, 31], [8, 32]], [1, 0, 1])
        D.DomainDataset(schema, {"train": [good, good]})
        with pytest.raises(DataError) as err:
            D.DomainDataset(schema, {"train": [good, good],
                                     "test": [good, bad]})
        assert str(err.value) == ("partition 'test' domain 1 row 2: field "
                                  "'f0' index 8 outside [0, 8)")

    @pytest.mark.parametrize("vocab_size, dtype", [
        (256, np.uint8), (257, np.int32)])
    def test_features_stored_in_the_schema_format(self, tmp_path, vocab_size,
                                                  dtype):
        """Hand-built features, int32 or uint8, are stored in the schema's
        format, and save_csv writes what load_csv reads back."""
        schema = D.Schema(2, (D.FeatureField("f", vocab_size),))
        parts = [D.DomainData(np.array([[255], [0]], dtype=np.int32), [1, 0]),
                 D.DomainData(np.array([[3]], dtype=np.uint8), [1])]
        dataset = D.DomainDataset(schema, {"all": parts})
        for dd in dataset.partitions["all"]:
            assert dd.features.dtype == dtype
        path = tmp_path / "ds.csv"
        D.save_csv(dataset, path)
        again = D.load_csv(path, schema)
        for got, want in zip(again.partitions["all"],
                             dataset.partitions["all"]):
            assert got.features.dtype == want.features.dtype
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.labels, want.labels)

    def test_feature_columns_must_match_the_schema(self):
        """A domain with more or fewer feature columns than the schema has
        fields is refused by name before save_csv would write it."""
        schema = two_field_schema()
        good = D.DomainData([[1, 2]], [1])
        with pytest.raises(UsageError) as err:
            D.DomainDataset(schema, {"all": [good, D.DomainData([[1]], [0])]})
        assert str(err.value) == ("partition 'all' domain 1 has 1 feature "
                                  "columns, schema declares 2 fields")

    @pytest.mark.parametrize("d", [-1, 2])
    def test_domain_outside_the_schema_is_named(self, d):
        ds = synthetic([10, 12])
        with pytest.raises(UsageError,
                           match=rf"^domain {d} outside \[0, 2\)$"):
            ds.domain("all", d)


class TestParseRow:
    """How ``load_csv`` reads one data line of ``two_field_schema()``."""

    @staticmethod
    def load(tmp_path, body):
        return D.load_csv(write_csv(tmp_path, two_field_schema(), body),
                          two_field_schema())

    def load_error(self, tmp_path, body):
        with pytest.raises(DataError) as err:
            self.load(tmp_path, body)
        return str(err.value)

    def test_direct_parse(self, tmp_path):
        ds = self.load(tmp_path, "1,1,4,17\n")
        assert ds.malformed == 0 and counts(ds, "all") == [0, 1]
        assert ds.domain("all", 1).features.tolist() == [[4, 17]]
        assert ds.domain("all", 1).labels.tolist() == [1.0]

    def test_wrong_column_count_is_malformed(self, tmp_path):
        ds = self.load(tmp_path, "1,1,4\n1,1,4,17,0\n0,1,2,3\n")
        assert ds.malformed == 2 and counts(ds, "all") == [1, 0]

    def test_non_integer_is_malformed(self, tmp_path):
        cells = ["spam", "4.0", "+4", " 4", "4-", "-", "--4", "4 ", ""]
        ds = self.load(tmp_path, "".join(f"1,1,{c},17\n" for c in cells)
                       + "0,1,2,3\n")
        assert ds.malformed == len(cells) and counts(ds, "all") == [1, 0]

    def test_feature_at_vocab_size_names_field(self, tmp_path):
        assert self.load_error(tmp_path, GOOD + "0,1,2,32\n") == (
            "line 4: field 'f1' index 32 outside [0, 32)")

    def test_error_carries_line_number(self, tmp_path):
        """Blank and malformed lines count toward the line number."""
        assert self.load_error(tmp_path, "\nspam\n0,1,2,3\n0,1,8,0\n") == (
            "line 5: field 'f0' index 8 outside [0, 8)")

    def test_domain_out_of_range(self, tmp_path):
        assert self.load_error(tmp_path, "0,1,2,3\n2,1,0,0\n") == (
            "line 3: domain 2 outside [0, 2)")

    def test_bad_label(self, tmp_path):
        assert self.load_error(tmp_path, "0,3,0,0\n") == (
            "line 2: label 3 is not 0/1")

    def test_missing_value_sentinel_is_fatal(self, tmp_path):
        """A "-1" standing for a missing feature names its line and field
        instead of being skipped as a malformed line."""
        assert self.load_error(tmp_path, GOOD + "1,0,-1,5\n") == (
            "line 4: field 'f0' index -1 outside [0, 8)")


class TestCsvIO:
    def test_empty_file_after_header(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "empty.csv"
        path.write_text(s.header() + "\n")
        ds = D.load_csv(path, s)
        assert counts(ds, "all") == [0, 0]
        assert ds.malformed == 0

    def test_header_mismatch(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "bad.csv"
        path.write_text("domain,label,f0\n")
        with pytest.raises(SchemaError, match="f1"):
            D.load_csv(path, s)

    @pytest.mark.parametrize("header, named", [
        ("domain,label,f1,f0", "columns out of order ['f1', 'f0']"),
        ("domain,label,f0,f1,extra", "unexpected columns ['extra']"),
        ("domain,label,f0,f1,f1", "repeated columns ['f1']"),
        ("domain,f0,label", "missing columns ['f1']; "
                            "columns out of order ['f0', 'label']"),
    ])
    def test_header_mismatch_names_the_columns(self, tmp_path, header,
                                               named):
        """Columns out of order, unexpected, repeated or missing are each
        named; a reordered header no longer reads "missing columns []"."""
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n0,1,2,3\n")
        with pytest.raises(SchemaError) as err:
            D.load_csv(path, two_field_schema())
        assert str(err.value) == (
            f"header mismatch: {named}; expected 'domain,label,f0,f1', "
            f"got {header!r}")

    def test_malformed_rows_counted_not_fatal(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "messy.csv"
        path.write_text(s.header() + "\n0,1,2,3\nnot,a,row\n1,0,4,5\n")
        ds = D.load_csv(path, s)
        assert ds.malformed == 1
        assert counts(ds, "all") == [1, 1]

    def test_vocab_violation_is_fatal_with_line(self, tmp_path):
        s = two_field_schema()
        path = tmp_path / "oob.csv"
        path.write_text(s.header() + "\n0,1,2,3\n0,1,2,32\n")
        with pytest.raises(DataError, match="line 3"):
            D.load_csv(path, s)

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_undecodable_bytes_are_data_error_naming_the_file(self, tmp_path,
                                                              where):
        """Bytes that are not UTF-8, in the header or in a row, fail with a
        DataError that names the file, chained from the decode error."""
        s = two_field_schema()
        path = tmp_path / "latin1.csv"
        header = s.header().encode() + b"\n"
        path.write_bytes(header.replace(b"f0", b"f\xe90")
                         if where == "header" else
                         header + GOOD.encode() + b"1,0,\xff,4\n")
        with pytest.raises(DataError, match="not UTF-8") as err:
            D.load_csv(path, s)
        assert str(err.value).startswith(f"{path}: ")
        assert isinstance(err.value.__cause__, UnicodeDecodeError)

    def test_missing_file_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError) as err:
            D.load_csv(path, two_field_schema())
        assert str(err.value).startswith(f"{path}: cannot be read (")
        assert err.value.category == "data"
        assert isinstance(err.value.__cause__, FileNotFoundError)

    @pytest.mark.parametrize("filler", [0, 2_700],
                             ids=["adjacent", "16K-characters-apart"])
    def test_not_utf8_whatever_row_comes_first(self, tmp_path, filler):
        """A bad domain on line 3 and a byte that is not UTF-8 on a later
        line of the same chunk: the file is not UTF-8, however far apart
        the two are."""
        schema = D.Schema(2, (D.FeatureField("a", 3),))
        path = write_csv(tmp_path, schema,
                         b"0,1,2\n5,0,1\n" + b"0,1,2\n" * filler
                         + b"0,1,\xe9\n")
        with pytest.raises(DataError) as err:
            D.load_csv(path, schema)
        assert str(err.value) == (f"{path}: not UTF-8 text "
                                  f"(invalid continuation byte)")

    def test_save_load_round_trip(self, tmp_path):
        spec = D.SynthSpec(2, np.eye(2), np.array([0.1, 0.1]), [20, 30])
        ds = D.synth_generate(spec, seed=5)
        path = tmp_path / "ds.csv"
        D.save_csv(ds, path)
        again = D.load_csv(path, ds.schema)
        assert counts(again, "all") == [20, 30]
        for d in range(2):
            np.testing.assert_array_equal(again.domain("all", d).features,
                                          ds.domain("all", d).features)
            np.testing.assert_array_equal(again.domain("all", d).labels,
                                          ds.domain("all", d).labels)


def write_csv(tmp_path, schema, body, name="data.csv"):
    """The schema's header and ``body`` (str or bytes), written as bytes so
    that no newline is translated on the way out."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    path = tmp_path / name
    path.write_bytes(schema.header().encode() + b"\n" + body)
    return path


def assert_same_as_loop(path, schema, caplog):
    """``load_csv`` gives exactly what ``loop_load_csv`` gives: equal arrays
    (values, dtype, shape, C order), malformed count and warnings, or an
    exception of the same type and message. Returns the loop's result."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=D.log.name):
        try:
            want = loop_load_csv(path, schema)
        except Exception as exc:
            want = exc
        want_log = list(caplog.messages)
        caplog.clear()
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as got:
                D.load_csv(path, schema)
            assert type(got.value) is type(want)
            assert str(got.value) == str(want)
            return want
        got = D.load_csv(path, schema)
        assert caplog.messages == want_log
    assert got.malformed == want.malformed
    for d in range(schema.domains):
        g, w = got.domain("all", d), want.domain("all", d)
        for a, b in ((g.features, w.features), (g.labels, w.labels)):
            assert a.dtype == b.dtype
            assert a.shape == b.shape
            assert a.flags.c_contiguous and b.flags.c_contiguous
            np.testing.assert_array_equal(a, b)
    return want


GOOD = "0,1,2,3\n1,0,4,5\n"

# Each body follows two_field_schema()'s header: domain < 2, label 0/1,
# f0 < 8, f1 < 32.
LOOP_CASES = {
    "crlf": "0,1,2,3\r\n1,0,4,5\r\n0,0,7,31\r\n",
    "lone-cr": "0,1,2,3\r1,0,4,5\r0,0,7,31\r",
    "mixed-endings-no-final-newline": "0,1,2,3\r\n1,0,4,5\r0,0,7,31\n1,1,0,0",
    "blank-and-whitespace-lines":
        "\n0,1,2,3\n   \n\t\n\x0c\n\x0b\n\x85\n \n \r\n1,0,4,5\n\n",
    # str.splitlines breaks on these; file iteration does not, and no
    # such byte belongs to a cell.
    "line-breaks-inside-cells":
        "0,1\x0b,2,3\n1,0,4\x1c,5\n0,1,\x1d2,3\n1,1,5,6\x1e\n0,0,1\x85,2\n"
        "1,0,3,4 \n0,0, 1,2\n0,1,\x0c3,3\n",
    # int() reads every cell here; the row grammar reads "-0" and "007".
    "cells-int-accepts":
        "0,1, 3,4\n1,0,+3,4\n-0,1,3,4\n1,0,007,4\n0,1,3,1_0\n1,1,３,4\n"
        "0,0,\x0c3,4\n0,1,3 ,4\n١,0,3,4\n",
    "malformed-rows":
        "0,1,2\n0,1,2,3,4\n0,1,2,3,\n0,1,,3\n,0,1,2\n0,1,3.0,3\n0,1,spam,3\n"
        "0,1,--1,3\n0,1,2,3,,\n" + GOOD,
    "long-cells-that-are-in-range":
        "0,1,2,000000000000000031\n1,0,0000000000000000004,5\n"
        "0,1,2," + "0" * 30 + "7\n",
    "domain-out-of-range": GOOD + "2,1,2,3\n",
    "label-out-of-range": GOOD + "0,2,2,3\n",
    "f0-out-of-range": GOOD + "0,1,8,3\n",
    "f1-out-of-range": GOOD + "0,1,2,32\n",
    "every-cell-out-of-range": GOOD + "5,7,9,99\n",
    "negative-domain": GOOD + "-1,1,2,3\n",
    "negative-label": GOOD + "0,-1,2,3\n",
    "negative-feature": GOOD + "0,1,2,-3\n",
    "18-digit-value": GOOD + "0,1,2,999999999999999999\n",
    "25-digit-value": GOOD + "0,1,2," + "1" * 25 + "\n",
    "signs-that-are-not-leading": GOOD + "0,1,-,3\n0,1,2-,3\n-,1,2,3\n"
        "0,1,2,3-\n0,1,-+2,3\n0,1,2,-" + "0" * 19 + "\n0,-0,-00,0031\n",
    "18-digit-negative-value": GOOD + "0,1,2,-" + "9" * 18 + "\n",
    "malformed-before-first-bad-line": "0,1,spam,3\n" + GOOD + "1,5,2,3\n",
    "non-canonical-bad-line-first": GOOD + " 1,3,2,3\n1,2,2,3\n",
    "canonical-bad-line-first": GOOD + "1,3,2,3\n 1,2,2,3\n",
    "bad-line-without-final-newline": GOOD + "0,1,2,40",
    "undecodable": GOOD.encode() + b"0,1,\xff,3\n",
}


class TestLoadCsvMatchesLoop:
    """The chunked loader returns or raises exactly what the line-by-line
    reference loop does."""

    @pytest.mark.parametrize("body", LOOP_CASES.values(), ids=LOOP_CASES)
    def test_case(self, tmp_path, caplog, body):
        assert_same_as_loop(write_csv(tmp_path, two_field_schema(), body),
                            two_field_schema(), caplog)

    def test_save_csv_output_with_an_empty_domain(self, tmp_path, caplog):
        ds = synthetic([20, 30, 25], seed=4)
        parts = list(ds.partitions["all"])
        parts[1] = D.DomainData.empty(ds.schema)
        path = tmp_path / "ds.csv"
        D.save_csv(D.DomainDataset(ds.schema, {"all": parts}), path)
        want = assert_same_as_loop(path, ds.schema, caplog)
        assert counts(want, "all") == [20, 0, 25]

    @pytest.mark.parametrize("case, malformed", [
        ("cells-int-accepts", 7), ("line-breaks-inside-cells", 8),
        ("long-cells-that-are-in-range", 2), ("25-digit-value", 1)])
    def test_cells_outside_the_grammar_are_malformed(self, tmp_path, case,
                                                     malformed):
        """Signs other than a leading "-", whitespace, underscores,
        non-ASCII digits and cells over 18 digits are not cells."""
        ds = D.load_csv(write_csv(tmp_path, two_field_schema(),
                                  LOOP_CASES[case]), two_field_schema())
        assert ds.malformed == malformed

    def test_every_line_save_csv_writes_is_a_row(self, tmp_path, caplog):
        """save_csv writes only lines of the row grammar, with an empty
        domain and 10-digit indices near ``VOCAB_LIMIT``, and load_csv
        reads them back as they were."""
        schema = D.Schema(3, (D.FeatureField("small", 3),
                              D.FeatureField("big", D.VOCAB_LIMIT)))
        big = [0, 9, 10, 999_999_999, 1_000_000_000, D.VOCAB_LIMIT - 2,
               D.VOCAB_LIMIT - 1]
        parts = [D.DomainData(np.column_stack([np.arange(7) % 3, big]),
                              np.arange(7) % 2),
                 D.DomainData.empty(schema),
                 D.DomainData([[2, D.VOCAB_LIMIT - 1]], [1.0])]
        dataset = D.DomainDataset(schema, {"all": parts})
        path = tmp_path / "ds.csv"
        D.save_csv(dataset, path)
        row = re.compile(",".join([CELL] * 4))
        header, *lines = path.read_text().split("\n")[:-1]
        assert header == schema.header() and len(lines) == 8
        assert all(row.fullmatch(line) for line in lines)
        got = assert_same_as_loop(path, schema, caplog)
        assert got.malformed == 0
        for g, w in zip(got.partitions["all"], parts):
            np.testing.assert_array_equal(g.features, w.features)
            np.testing.assert_array_equal(g.labels, w.labels)

    @staticmethod
    def many_chunks(bad_at=None):
        """Canonical rows over more than three chunks, with odd lines in
        several of them and, if ``bad_at`` is given, an out-of-range row
        at that line number (counted from the header's 1)."""
        rng = np.random.default_rng(3)
        n = 40_000
        cells = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n),
                                 rng.integers(0, 8, n), rng.integers(0, 32, n)])
        lines = [",".join(map(str, row)) + "\n" for row in cells.tolist()]
        odd = {100: " 1,0,3,4\n", 9_000: "0,1,spam,3\n", 9_001: "\n",
               17_500: "1,1,+7,1_0\n", 20_000: "-0,1,-0,-00\n",
               26_000: "0,1,2\n",
               33_000: "1,0,３,4\n", 39_999: "0,1,2,3,4\n"}
        for i, line in odd.items():
            lines[i] = line
        if bad_at is not None:
            lines[bad_at - 2] = "1,0,3,32\n"
        return "".join(lines)

    @pytest.mark.parametrize("bad_at", [None, 30_000])
    def test_more_than_three_chunks(self, tmp_path, caplog, bad_at):
        schema = two_field_schema()
        path = write_csv(tmp_path, schema, self.many_chunks(bad_at))
        assert path.stat().st_size > 3 * D._CHUNK_CHARS
        want = assert_same_as_loop(path, schema, caplog)
        if bad_at is None:
            assert want.malformed == 6
        else:
            assert str(want).startswith(f"line {bad_at}:")

    # The grammar's edge cells: signs, spaces, empty cells, the longest
    # cell and one digit more, non-ASCII digits.
    EDGE_CELLS = ["-", "--1", "+1", " 1", "", "1 ", "-0", "0" * 17 + "5",
                  "-" + "0" * 18, "0" * 19, "1" * 19, "３", "١", "x"]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lines_across_chunk_boundaries(self, tmp_path, caplog,
                                                  monkeypatch, seed):
        """Random files of rows, edge cells, wrong cell counts, blank lines
        and the odd out-of-range value, read in chunks of a few lines each
        so that every kind of line meets a chunk boundary: load_csv returns
        or raises what the line-by-line reference does."""
        rng = np.random.default_rng(seed)
        vocab = (2, 2, 8, 32)  # domain, label, f0, f1
        cell_counts = [4] * 6 + [0, 1, 3, 5, 6]
        # A third of the files may hold an out-of-range value, which
        # aborts the load; the others load.
        out_of_range = 0.02 if seed % 3 == 0 else 0.0

        def cell(column):
            r = rng.random()
            if r < out_of_range:
                return str(rng.choice([str(vocab[column]), "-1", "100",
                                       "9" * 18, "-" + "123" * 6]))
            if r < 0.9:
                return str(rng.integers(vocab[column]))
            return str(rng.choice(self.EDGE_CELLS))

        lines = []
        for _ in range(rng.integers(1, 60)):
            if rng.random() < 0.05:
                lines.append(str(rng.choice(["", " ", "\t"])))
                continue
            count = int(rng.choice(cell_counts))
            lines.append(",".join(cell(min(c, 3)) for c in range(count)))
        body = "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")
        monkeypatch.setattr(D, "_CHUNK_CHARS", int(rng.integers(1, 80)))
        assert_same_as_loop(write_csv(tmp_path, two_field_schema(), body),
                            two_field_schema(), caplog)

    @pytest.mark.parametrize("case", ["crlf", "lone-cr",
                                      "mixed-endings-no-final-newline",
                                      "blank-and-whitespace-lines"])
    def test_every_chunk_size(self, tmp_path, caplog, monkeypatch, case):
        """Chunks of every size up to the whole body, so that a read ends
        at every character: beside each "\\r\\n" and lone "\\r", just
        before a last line without "\\n", on a blank line. load_csv returns
        what the line-by-line reference does."""
        body = LOOP_CASES[case]
        path = write_csv(tmp_path, two_field_schema(), body)
        for chars in range(1, len(body) + 1):
            monkeypatch.setattr(D, "_CHUNK_CHARS", chars)
            assert_same_as_loop(path, two_field_schema(), caplog)

    @pytest.mark.parametrize("where, error", [
        ("last line of the row's chunk", "not UTF-8"),
        ("two chunks later", "line 2: field 'f1' index 99")])
    def test_a_chunk_is_decoded_before_it_is_parsed(
            self, tmp_path, where, error):
        """An out-of-range row on line 2 and a byte that is not UTF-8 after
        it. A chunk is decoded whole before any of its lines is parsed, so
        a byte in the row's own chunk raises first; a byte two chunks later
        has not been decoded when the row raises."""
        schema = two_field_schema()
        header = len(schema.header()) + 1
        body = b"1,0,4,99\n" + b"0,1,2,3\n" * 40_000
        # The first chunk's lines, up to the one that holds its
        # (_CHUNK_CHARS + 1)-th character, end here in the file.
        chunk_end = header + body.index(b"\n", D._CHUNK_CHARS) + 1
        at = {"last line of the row's chunk": chunk_end - 2,
              "two chunks later": chunk_end + 2 * D._CHUNK_CHARS}[where]
        raw = bytearray(body)
        raw[at - header] = 0xFF
        path = write_csv(tmp_path, schema, bytes(raw))
        with pytest.raises(DataError) as err:
            D.load_csv(path, schema)
        assert error in str(err.value)

    def test_a_chunk_of_exactly_chunk_chars_takes_one_line_more(
            self, tmp_path):
        """Lines of exactly ``_CHUNK_CHARS`` characters do not end a chunk:
        it ends with the line that takes it past that many. So the
        out-of-range row right after them is parsed with them, and raises
        before a byte that is not UTF-8 half a chunk later."""
        schema = two_field_schema()
        assert D._CHUNK_CHARS % 8 == 0
        raw = bytearray(b"0,1,2,3\n" * (D._CHUNK_CHARS // 8)
                        + b"1,0,4,99\n" + b"0,1,2,3\n" * 5_000)
        raw[D._CHUNK_CHARS + D._CHUNK_CHARS // 2] = 0xFF
        path = write_csv(tmp_path, schema, bytes(raw))
        with pytest.raises(DataError) as err:
            D.load_csv(path, schema)
        assert str(err.value) == (f"line {D._CHUNK_CHARS // 8 + 2}: field "
                                  f"'f1' index 99 outside [0, 32)")

    def test_bad_row_before_undecodable_bytes_in_its_chunk(self, tmp_path):
        # The byte that is not UTF-8 sits about 16K characters after line
        # 3: inside line 3's chunk, but beyond what a line-by-line read has
        # decoded when it rejects line 3. The file is not UTF-8, and that
        # is the error.
        body = (GOOD.replace("1,0,4,5", "1,0,4,99").encode()
                + GOOD.encode() * 1_000 + b"0,1,\xff,3\n")
        path = write_csv(tmp_path, two_field_schema(), body)
        with pytest.raises(DataError, match="not UTF-8") as err:
            D.load_csv(path, two_field_schema())
        assert str(err.value).startswith(f"{path}: ")


class TestLoadCsvMemory:
    # Domain 0's share of the rows: even, or skewed to 32%.
    @pytest.mark.parametrize("domain_p", [None, [0.32] + [0.68 / 7] * 7],
                             ids=["even", "skewed"])
    def test_peak_within_the_result_plus_one_chunk(self, tmp_path, domain_p):
        # About 200,000 rows in the benchmark's blocks8 shape (8 domains,
        # 16 fields). A whole-file vectorized parse needs several times
        # the result, and blocks that are views of their chunk twice it;
        # the chunked one holds the result plus one domain's blocks.
        fields = tuple(D.FeatureField(f"c{k}r{r}", 16)
                       for k in range(8) for r in range(2))
        schema = D.Schema(domains=8, fields=fields)
        rng = np.random.default_rng(0)
        cells = np.column_stack([rng.choice(8, 2_000, p=domain_p),
                                 rng.integers(0, 2, 2_000),
                                 rng.integers(0, 16, (2_000, 16))])
        block = "".join(",".join(map(str, row)) + "\n"
                        for row in cells.tolist())
        path = write_csv(tmp_path, schema, block * 100)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = D.load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sum(counts(ds, "all")) == 200_000
        result = sum(dd.features.nbytes + dd.labels.nbytes
                     for dd in ds.partitions["all"])
        assert peak <= 1.5 * result + 4 * 2 ** 20


class TestSynthGenerateMemory:
    def test_peak_within_the_loadings_plus_the_result(self):
        # One 200,000-row domain in the benchmark's chain4 shape (4
        # concepts, 2 fields each): a whole-array readout holds several
        # float64 copies of (n, 8); the block draw holds the (n, 4)
        # loadings, one block and the result.
        n, d = 200_000, 4
        affinity = np.full((d, d), 0.25) + 0.5 * np.eye(d)
        spec = D.SynthSpec(d, affinity, np.full(d, 0.1), [n, 0, 0, 0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = D.synth_generate(spec, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert counts(ds, "all") == [n, 0, 0, 0]
        result = sum(dd.features.nbytes + dd.labels.nbytes
                     for dd in ds.partitions["all"])
        assert peak <= n * d * 8 + 2 * result + 4 * 2 ** 20


class TestSaveCsvMemory:
    def test_peak_does_not_grow_with_the_file(self, tmp_path):
        # 200,000 rows in the benchmark's blocks8 shape (8 domains, 16
        # fields): a writer that formats the whole file before writing it
        # holds several times the dataset; a bounded one holds a few
        # blocks of lines, whatever the row count.
        fields = tuple(D.FeatureField(f"c{k}r{r}", 16)
                       for k in range(8) for r in range(2))
        schema = D.Schema(domains=8, fields=fields)
        rng = np.random.default_rng(0)
        datas = [D.DomainData(rng.integers(0, 16, (25_000, 16)),
                              rng.integers(0, 2, 25_000))
                 for _ in range(8)]
        dataset = D.DomainDataset(schema, {"all": datas})
        path = tmp_path / "data.csv"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            D.save_csv(dataset, path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert path.read_bytes().count(b"\n") == 1 + 200_000
        assert peak <= 4 * 2 ** 20


def synthetic(sizes, seed=0, **options):
    d = len(sizes)
    return D.synth_generate(D.SynthSpec(d, np.eye(d), np.zeros(d), sizes,
                                        **options), seed=seed)


class TestSplit:
    def test_eight_one_one(self):
        ds = synthetic([100, 100])
        out = D.split(ds, (0.8, 0.1, 0.1), seed=1)
        assert counts(out, "train") == [80, 80]
        assert counts(out, "val") == [10, 10]
        assert counts(out, "test") == [10, 10]

    def test_same_seed_identical(self):
        ds = synthetic([50, 37])
        a = D.split(ds, (0.8, 0.1, 0.1), seed=9)
        b = D.split(ds, (0.8, 0.1, 0.1), seed=9)
        for part in D.PARTITIONS:
            for d in range(2):
                np.testing.assert_array_equal(a.domain(part, d).features,
                                              b.domain(part, d).features)

    def test_is_a_partition(self):
        ds = synthetic([41, 53], seed=3)
        out = D.split(ds, (0.8, 0.1, 0.1), seed=2)
        for d in range(2):
            whole = ds.domain("all", d)
            rows = {tuple(r) for r in whole.features}
            pieces = [out.domain(p, d) for p in D.PARTITIONS]
            assert sum(len(p) for p in pieces) == len(whole)
            seen = []
            for p in pieces:
                seen += [tuple(r) for r in p.features]
            # row multisets match (rows are almost surely unique here)
            assert sorted(seen) == sorted(tuple(r) for r in whole.features)
            assert rows == set(seen)

    def test_minimum_size_enforced(self):
        ds = synthetic([2, 50])
        with pytest.raises(SplitError, match="domain 0"):
            D.split(ds, (0.8, 0.1, 0.1), seed=0)

    def test_small_domain_gets_all_partitions(self):
        ds = synthetic([5, 50])
        out = D.split(ds, (0.8, 0.1, 0.1), seed=0)
        for part in D.PARTITIONS:
            assert len(out.domain(part, 0)) >= 1

    def test_missing_partition_is_named(self, tmp_path):
        """Splitting a split dataset, and reading or saving a partition it
        lacks, raise a UsageError that names the partition and the ones it
        holds; save_csv raises before it creates the file."""
        out = D.split(synthetic([10, 10]), (0.8, 0.1, 0.1), seed=0)
        named = (r"^no partition 'all'; the dataset holds 'train', 'val', "
                 r"'test'$")
        path = tmp_path / "ds.csv"
        for call in (lambda: D.split(out, (0.8, 0.1, 0.1), seed=0),
                     lambda: out.domain("all", 0),
                     lambda: D.save_csv(out, path)):
            with pytest.raises(UsageError, match=named):
                call()
        assert not path.exists()
        with pytest.raises(UsageError, match=r"^no partition 'train'; the "
                                             r"dataset holds 'all'$"):
            synthetic([10, 10]).domain("train", 0)

    def test_bad_fractions(self):
        ds = synthetic([10, 10])
        with pytest.raises(ConfigError):
            D.split(ds, (0.5, 0.2, 0.2), seed=0)

    def test_nan_fraction_rejected(self):
        with pytest.raises(ConfigError, match=r"^split_fractions\[0\] must "
                                              r"be a finite number, got nan$"):
            D.split(synthetic([10, 10]), (float("nan"), 0.5, 0.5), seed=0)

    @pytest.mark.parametrize("fractions, named", [
        (["0.8", "0.1", "0.1"],
         "split_fractions[0] must be a finite number, got '0.8'"),
        ([True, 0, 0], "split_fractions[0] must be a finite number, got True"),
        (["a", 0.1, 0.1], "split_fractions[0] must be a finite number, got 'a'"),
        ([0.8, np.inf, 0.1],
         "split_fractions[1] must be a finite number, got inf"),
    ])
    def test_fractions_that_are_not_numbers_rejected(self, fractions, named):
        """split applies RunConfig's rule for split_fractions: each entry a
        finite number, not a string or a bool."""
        with pytest.raises(ConfigError) as err:
            D.split(synthetic([10, 10]), fractions, seed=0)
        assert str(err.value) == named

    def test_fractions_that_are_not_a_list_rejected(self):
        with pytest.raises(ConfigError) as err:
            D.split(synthetic([10, 10]), 0.5, 0)
        assert str(err.value) == "split_fractions must be a list, got 0.5"

    @pytest.mark.parametrize("seed, named", [
        (-1, "seed must be >= 0, got -1"),
        (1.0, "seed must be an integer, got 1.0")])
    def test_bad_seed_rejected(self, seed, named):
        with pytest.raises(ConfigError) as err:
            D.split(synthetic([10, 10]), (0.8, 0.1, 0.1), seed=seed)
        assert str(err.value) == named

    def test_keeps_the_malformed_count(self, tmp_path):
        s = two_field_schema()
        rows = "".join(f"{i % 2},{i % 3 % 2},{i % 8},{i}\n" for i in range(20))
        path = write_csv(tmp_path, s, rows[:40] + "0,1,2\nspam\n" + rows[40:])
        ds = D.load_csv(path, s)
        assert ds.malformed == 2
        assert D.split(ds, (0.8, 0.1, 0.1), seed=0).malformed == 2


class TestEqualQuotas:
    def test_paper_batch(self):
        assert D.equal_quotas(4096, 3) == [1366, 1365, 1365]

    def test_divisible(self):
        assert D.equal_quotas(6, 3) == [2, 2, 2]

    def test_sums_to_batch(self):
        for b in (7, 97, 4096):
            for d in (2, 3, 5):
                q = D.equal_quotas(b, d)
                assert sum(q) == b
                assert max(q) - min(q) <= 1

    def test_too_small(self):
        with pytest.raises(ConfigError):
            D.equal_quotas(2, 3)


def lexsort_largest_remainder(total, weights):
    """Reference ``_largest_remainder``: the leftover units go by
    np.lexsort of the remainders, descending, then of the positions."""
    weights = np.asarray(weights, dtype=np.float64)
    exact = total * weights / weights.sum()
    base = np.floor(exact).astype(int)
    remainder = exact - base
    order = np.lexsort((np.arange(len(weights)), -remainder))
    base[order[:total - int(base.sum())]] += 1
    return base.tolist()


def test_largest_remainder_same_as_lexsort_reference():
    """Equal remainders, which equal weights and the split fractions
    give, go to earlier positions first."""
    rng = np.random.default_rng(4)
    cases = [(n, (0.8, 0.1, 0.1)) for n in range(5, 40)]
    cases += [(b, np.ones(d)) for b in range(3, 30) for d in (2, 3, 5, 8)]
    cases += [(int(rng.integers(1, 500)), rng.integers(1, 5, size=6) / 4)
              for _ in range(200)]
    for total, weights in cases:
        assert (D._largest_remainder(total, weights)
                == lexsort_largest_remainder(total, weights)), (total, weights)


class TestQuotaSampler:
    def _sampler(self, sizes, quotas, seed=0):
        ds = synthetic(sizes, seed=1)
        rng = np.random.default_rng(seed)
        return D.QuotaSampler([ds.domain("all", d) for d in range(len(sizes))],
                              quotas, rng), ds

    def test_exact_quota_counts(self):
        sampler, _ = self._sampler([10, 10, 10], [2, 2, 2])
        batch = sampler.next_batch()
        assert len(batch) == 3
        for feats, labels in batch:
            assert feats.shape[0] == 2
            assert labels.shape[0] == 2

    def test_wrap_reshuffles_without_batch_duplicates(self):
        sampler, _ = self._sampler([3, 3], [2, 2], seed=4)
        for _ in range(40):  # many wraps
            batch = sampler.next_batch()
            for feats, _ in batch:
                rows = [tuple(r) for r in feats]
                assert len(set(rows)) == len(rows)

    def test_epoch_coverage(self):
        sizes, quota, batches = [7], [3], 21
        ds = synthetic([7, 7], seed=2)
        dd = ds.domain("all", 0)
        sampler = D.QuotaSampler([dd], quota, np.random.default_rng(0))
        visits = {tuple(r): 0 for r in dd.features}
        for _ in range(batches):
            feats, _ = sampler.next_batch()[0]
            for r in feats:
                visits[tuple(r)] += 1
        floor_passes = (batches * quota[0]) // sizes[0]
        assert all(v >= floor_passes for v in visits.values())

    def test_quota_exceeding_domain_allows_repeats(self):
        sampler, _ = self._sampler([2], [5])
        feats, labels = sampler.next_batch()[0]
        assert feats.shape[0] == 5

    def test_fractional_quota_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^quotas\[0\] must be an integer, got 2.9$"):
            self._sampler([10], [2.9])

    def test_numpy_quota_stored_as_int(self):
        sampler, _ = self._sampler([10], [np.int64(3)])
        assert sampler.quotas == [3] and type(sampler.quotas[0]) is int
        assert len(sampler.next_batch()[0][1]) == 3

    def test_zero_quota_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^quotas\[1\] must be >= 1, got 0$"):
            self._sampler([10, 10], [2, 0])

    def test_scalar_quotas_rejected(self):
        ds = synthetic([10, 10])
        with pytest.raises(ConfigError,
                           match=r"^quotas must be a list, got 5$"):
            D.QuotaSampler(ds.partitions["all"], 5, np.random.default_rng(0))

    def test_empty_domain_rejected(self):
        ds = synthetic([10, 10])
        empty = D.DomainData.empty(ds.schema)
        with pytest.raises(ConfigError, match="empty"):
            D.QuotaSampler([empty], [2], np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        a, _ = self._sampler([9, 9], [4, 4], seed=11)
        b, _ = self._sampler([9, 9], [4, 4], seed=11)
        for _ in range(5):
            for (fa, la), (fb, lb) in zip(a.next_batch(), b.next_batch()):
                np.testing.assert_array_equal(fa, fb)
                np.testing.assert_array_equal(la, lb)


class TestSamplerMatchesLoop:
    """The shipped sampler draws exactly the reference loop's sequence."""

    @staticmethod
    def index_domains(sizes):
        # One feature column holding the row's own index, so every batch's
        # features are its index array.
        return [D.DomainData(np.arange(n).reshape(-1, 1), np.zeros(n))
                for n in sizes]

    def run_both(self, sizes, quotas, epochs=3, seed=9):
        datas = self.index_domains(sizes)
        shipped = D.QuotaSampler(datas, quotas, np.random.default_rng(seed))
        loop = ref.LoopSampler(datas, quotas, np.random.default_rng(seed))
        # An epoch is one pass over the largest domain, in batches.
        batches = epochs * max(-(-n // q) for n, q in zip(sizes, quotas))
        for _ in range(batches):
            for (got, _), (want, _) in zip(shipped.next_batch(),
                                           loop.next_batch()):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        assert (shipped.rng.bit_generator.state
                == loop.rng.bit_generator.state)
        return loop

    def test_cursor_lands_on_end_of_permutation(self):
        self.run_both([12], [4])

    def test_wrap_with_dedup_swaps(self):
        loop = self.run_both([5], [3], epochs=20)
        assert loop.swaps > 0

    def test_quota_equals_domain_size(self):
        self.run_both([6], [6])

    def test_quota_exceeds_domain_size(self):
        self.run_both([3], [8], epochs=5)

    def test_domains_of_different_sizes(self):
        loop = self.run_both([40, 7, 3, 16], [5, 4, 5, 16], epochs=5)
        assert loop.swaps > 0


class TestDrawDomainMatchesLoop:
    """From any cursor, each draw returns the reference loop's indices and
    leaves its permutation, cursor and generator state."""

    @pytest.mark.parametrize("quota", [1, 3, 8, 9, 16, 40])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 16, 33])
    def test_grid(self, n, quota):
        data = D.DomainData(np.arange(n).reshape(-1, 1), np.zeros(n))
        for cursor in sorted({0, 1, n // 2, max(n - quota, 0), n - 1, n}):
            seed = 1000 * n + quota + cursor
            shipped = D.QuotaSampler([data], [quota], np.random.default_rng(seed))
            loop = D.QuotaSampler([data], [quota], np.random.default_rng(seed))
            shipped._cursors[0] = loop._cursors[0] = cursor
            for _ in range(8):
                got = shipped._draw_domain(0)
                want, _ = ref.loop_draw_domain(loop, 0)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
                assert shipped._perms[0].dtype == loop._perms[0].dtype
                np.testing.assert_array_equal(shipped._perms[0],
                                              loop._perms[0])
                assert shipped._cursors == loop._cursors
                assert (shipped.rng.bit_generator.state
                        == loop.rng.bit_generator.state)

    def test_bumped_samples_can_swap_order(self):
        """Fresh permutation [10, 11, 0, 1, 2, ...] after the rest
        [10, 11], taking 3: the loop swaps 10 to position 2, then 11 to 3
        and 10 on to 4, so the bumped samples end as 11, 10."""
        n, fresh = 12, np.array([10, 11] + list(range(10)))

        class FixedPermutation:
            def permutation(self, size):
                return fresh.copy()

        data = D.DomainData(np.arange(n).reshape(-1, 1), np.zeros(n))
        samplers = [D.QuotaSampler([data], [5], FixedPermutation())
                    for _ in range(2)]
        for sampler in samplers:
            sampler._perms[0] = np.arange(n)
            sampler._cursors[0] = n - 2
        got = samplers[0]._draw_domain(0)
        want, swaps = ref.loop_draw_domain(samplers[1], 0)
        assert got.tolist() == want.tolist() == [10, 11, 0, 1, 2]
        assert swaps == 3
        for sampler in samplers:
            assert sampler._perms[0].tolist() == [0, 1, 2, 11, 10] + list(
                range(3, 10))
            assert sampler._cursors == [3]

    def test_long_run_of_bumped_samples(self):
        """The one sample left in the old permutation comes first in the
        fresh one, so the loop bumps it once per head position before it
        lands just past the head."""
        n, quota = 300, 150
        data = D.DomainData(np.arange(n).reshape(-1, 1), np.zeros(n))
        rng = np.random.default_rng(5)
        rng.permutation(n)  # the sampler's first permutation
        first = rng.permutation(n)[0]  # the head of the fresh one
        old = np.concatenate([np.delete(np.arange(n), first), [first]])
        samplers = [D.QuotaSampler([data], [quota], np.random.default_rng(5))
                    for _ in range(2)]
        for sampler in samplers:
            sampler._perms[0] = old.copy()
            sampler._cursors[0] = n - 1
        got = samplers[0]._draw_domain(0)
        want, swaps = ref.loop_draw_domain(samplers[1], 0)
        assert swaps == quota - 1
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(samplers[0]._perms[0],
                                      samplers[1]._perms[0])
        assert samplers[1]._perms[0][quota - 1] == first


class TestSaveCsvMatchesLoop:
    """``save_csv`` writes the bytes of the per-row reference writer."""

    def same_bytes(self, dataset, tmp_path, partition="all"):
        D.save_csv(dataset, tmp_path / "shipped.csv", partition)
        loop_save_csv(dataset, tmp_path / "loop.csv", partition)
        got = (tmp_path / "shipped.csv").read_bytes()
        assert got == (tmp_path / "loop.csv").read_bytes()
        return got

    def test_an_empty_domain(self, tmp_path):
        ds = synthetic([20, 30, 25], seed=4)
        parts = list(ds.partitions["all"])
        parts[1] = D.DomainData.empty(ds.schema)
        self.same_bytes(D.DomainDataset(ds.schema, {"all": parts}), tmp_path)

    def test_every_domain_empty(self, tmp_path):
        ds = synthetic([20, 30], seed=4)
        parts = [D.DomainData.empty(ds.schema)] * 2
        got = self.same_bytes(D.DomainDataset(ds.schema, {"all": parts}),
                              tmp_path)
        assert got.count(b"\n") == 1

    def test_several_write_blocks(self, tmp_path):
        """Domains that span several write blocks, end inside one, and
        are empty."""
        block = D._BLOCK_ROWS
        ds = synthetic([2 * block + 5, 1, block - 1], seed=6)
        parts = list(ds.partitions["all"])
        parts[1] = D.DomainData.empty(ds.schema)
        got = self.same_bytes(D.DomainDataset(ds.schema, {"all": parts}),
                              tmp_path)
        assert got.count(b"\n") == 1 + 3 * block + 4

    def test_blocks8_shaped(self, tmp_path):
        """Eight domains of 12,000 down to 600 rows, 16 fields, two-domain
        affinity blocks; the train partition of its split too."""
        affinity = [[1.0 if i == j else 0.8 if i // 2 == j // 2 else 0.0
                     for j in range(8)] for i in range(8)]
        sizes = [round(12_000 * 0.05 ** (k / 7)) for k in range(8)]
        ds = D.synth_generate(D.SynthSpec(8, affinity, np.zeros(8), sizes),
                              seed=3)
        got = self.same_bytes(ds, tmp_path)
        assert got.count(b"\n") == 1 + sum(sizes)
        self.same_bytes(D.split(ds, (0.8, 0.1, 0.1), seed=3), tmp_path,
                        "train")


class TestSynthGenerateMatchesWholeArray:
    """The block draw returns the arrays of the whole-array generator: the
    same draws in the same order, binned alike, for domains of fewer,
    exactly and more rows than a block (``_BLOCK_ROWS``), one of them
    empty."""

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    @pytest.mark.parametrize("vocab_size", [16, 257])
    @pytest.mark.parametrize("feature_noise", [0.0, 0.3])
    @pytest.mark.parametrize("per_concept", [1, 3])
    def test_same_arrays(self, per_concept, feature_noise, vocab_size,
                         noise):
        block = D._BLOCK_ROWS
        sizes = [0, 1, block - 1, block, block + 1, 2 * block + 3]
        d = len(sizes)
        # Zero affinities too: a negative loading times 0 is -0.0.
        rng = np.random.default_rng(2)
        affinity = rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.6)
        np.fill_diagonal(affinity, 0.8)
        spec = D.SynthSpec(d, affinity, np.full(d, noise), sizes,
                           fields_per_concept=per_concept,
                           vocab_size=vocab_size, feature_noise=feature_noise)
        got = D.synth_generate(spec, seed=9)
        want = ref.whole_array_synth_generate(spec, seed=9)
        assert counts(got, "all") == sizes
        for g, w in zip(got.partitions["all"], want.partitions["all"]):
            assert g.features.dtype == w.features.dtype
            assert g.labels.dtype == w.labels.dtype
            np.testing.assert_array_equal(g.features, w.features)
            np.testing.assert_array_equal(g.labels, w.labels)


class TestSynthGenerate:
    def test_deterministic(self):
        spec = D.SynthSpec(3, np.eye(3), np.full(3, 0.1), [40, 40, 40])
        a = D.synth_generate(spec, seed=7)
        b = D.synth_generate(spec, seed=7)
        for d in range(3):
            np.testing.assert_array_equal(a.domain("all", d).features,
                                          b.domain("all", d).features)
            np.testing.assert_array_equal(a.domain("all", d).labels,
                                          b.domain("all", d).labels)

    def test_fractional_size_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^sizes\[0\] must be an integer, got 50.7$"):
            D.SynthSpec(2, np.eye(2), np.zeros(2), [50.7, 50])
        spec = D.SynthSpec(2, np.eye(2), np.zeros(2), [np.int64(50), 40])
        assert [type(n) for n in spec.sizes] == [int, int]
        assert counts(D.synth_generate(spec, seed=1), "all") == [50, 40]

    def test_respects_vocab(self):
        spec = D.SynthSpec(2, np.eye(2), np.zeros(2), [30, 30], vocab_size=8)
        ds = D.synth_generate(spec, seed=1)
        for d in range(2):
            feats = ds.domain("all", d).features
            assert feats.min() >= 0 and feats.max() < 8

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            D.SynthSpec(2, np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2),
                        [10, 10])
        with pytest.raises(ConfigError):
            D.SynthSpec(2, np.eye(2) * 2.0, np.zeros(2), [10, 10])
        with pytest.raises(ConfigError):
            D.SynthSpec(2, np.eye(2), np.array([0.1, 0.9]), [10, 10])

    @pytest.mark.parametrize("affinity, noise, named", [
        ([[1.0, np.nan], [0.0, 1.0]], [0.0, 0.0],
         "affinity[0][1] must be a finite number, got nan"),
        ([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0],
         "affinity[0][0] must be a finite number, got nan"),
        ([[1.0, 0.0], [np.inf, 1.0]], [0.0, 0.0],
         "affinity[1][0] must be a finite number, got inf"),
        (np.eye(2), [np.nan, 0.1],
         "noise[0] must be a finite number, got nan"),
        (np.eye(2), [0.1, -np.inf],
         "noise[1] must be a finite number, got -inf"),
    ], ids=["affinity0-noise0-affinity entries",
            "affinity1-noise1-affinity entries",
            "affinity2-noise2-affinity entries",
            "affinity3-noise3-noise probabilities",
            "affinity4-noise4-noise probabilities"])
    def test_non_finite_spec_rejected(self, affinity, noise, named):
        with pytest.raises(ConfigError) as err:
            D.SynthSpec(2, affinity, noise, [10, 10])
        assert str(err.value) == named

    @pytest.mark.parametrize("affinity, noise, named", [
        ([[1.0, True], [0.0, 1.0]], [0.1, 0.1],
         "affinity[0][1] must be a finite number, got True"),
        ([["1.0", "0.5"], [0.5, 1.0]], [0.1, 0.1],
         "affinity[0][0] must be a finite number, got '1.0'"),
        ([[1.0, 0.5], 0.5], [0.1, 0.1], "affinity[1] must be a list, got 0.5"),
        ([[1.0, 0.5], [0.5]], [0.1, 0.1], "affinity must be 2x2"),
        (np.eye(2), 0.1, "noise must be a list, got 0.1"),
    ])
    def test_malformed_entries_rejected(self, affinity, noise, named):
        """SynthSpec reads each row and entry as RunConfig does, instead
        of letting numpy cast a bool or a string to a float."""
        with pytest.raises(ConfigError) as err:
            D.SynthSpec(2, affinity, noise, [10, 10])
        assert str(err.value) == named

    def test_non_integer_domain_count_rejected(self):
        with pytest.raises(ConfigError) as err:
            D.SynthSpec(2.0, np.eye(2), np.zeros(2), [10, 10])
        assert str(err.value) == "domains must be an integer, got 2.0"
        with pytest.raises(ConfigError) as err:
            D.SynthSpec(0, np.eye(0), np.zeros(0), [])
        assert str(err.value) == "domains must be >= 1, got 0"
        spec = D.SynthSpec(np.int64(2), np.eye(2), np.zeros(2), [10, 10])
        assert type(spec.domains) is int

    def test_fields_checked_in_order(self):
        """SynthSpec checks its fields in their declared order: with every
        field from one on malformed, that field's rule names it."""
        bad = [("domains", 2.0, "domains must be an integer, got 2.0"),
               ("affinity", [[1.0, 0.5]], "affinity must be 2x2"),
               ("noise", [0.1], "noise must have shape (2,)"),
               ("sizes", [10], "sizes needs 2 entries"),
               ("fields_per_concept", 0,
                "fields_per_concept must be >= 1, got 0"),
               ("vocab_size", 1, "vocab_size must be >= 2, got 1"),
               ("feature_noise", -1.0,
                "feature_noise must be a finite number >= 0, got -1.0")]
        assert [key for key, _, _ in bad] == [
            f.name for f in dataclasses.fields(D.SynthSpec)]
        good = {"domains": 2, "affinity": np.eye(2), "noise": np.zeros(2),
                "sizes": [10, 10]}
        for i, (_, _, named) in enumerate(bad):
            fields = dict(good, **{key: value for key, value, _ in bad[i:]})
            with pytest.raises(ConfigError) as err:
                D.SynthSpec(**fields)
            assert str(err.value) == named

    def test_fields_stored_as_read(self):
        """Each field is stored as its rule reads it: float64 arrays for
        the affinity and the label noise, ints for the counts, a float for
        the feature noise."""
        spec = D.SynthSpec(2, [[1, 0], [0, 1]], (0, 0.25), [np.int64(5), 7],
                           fields_per_concept=np.int32(3),
                           vocab_size=np.uint8(8),
                           feature_noise=np.float32(0.5))
        assert spec.affinity.dtype == spec.noise.dtype == np.float64
        assert spec.noise.tolist() == [0.0, 0.25]
        assert spec.sizes == [5, 7]
        assert [type(v) for v in (*spec.sizes, spec.fields_per_concept,
                                  spec.vocab_size, spec.feature_noise)] == [
            int, int, int, int, float]

    @pytest.mark.parametrize("changes, named", [
        ({"fields_per_concept": 2.0},
         "fields_per_concept must be an integer, got 2.0"),
        ({"vocab_size": True}, "vocab_size must be an integer, got True"),
        ({"fields_per_concept": 0}, "fields_per_concept must be >= 1, got 0"),
        ({"vocab_size": 1}, "vocab_size must be >= 2, got 1"),
        ({"sizes": [-5, 400]}, "sizes[0] must be >= 0, got -5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"sizes": 5}, "sizes must be a list, got 5"),
        ({"sizes": [10]}, "sizes needs 2 entries"),
        ({"feature_noise": "x"},
         "feature_noise must be a finite number, got 'x'"),
        ({"feature_noise": True},
         "feature_noise must be a finite number, got True"),
        ({"vocab_size": 2 ** 40},
         f"vocab_size must be <= {2 ** 31}, got {2 ** 40}"),
    ])
    def test_bad_counts_rejected(self, changes, named):
        """Every count a SynthSpec or synth_generate takes is an integer of
        at least its minimum and at most its maximum, in a list where it
        takes one, and feature_noise a number; anything else is a
        ConfigError naming it, not a bare numpy or Python error."""
        kwargs = {"sizes": [10, 10], "seed": 1, **changes}
        seed = kwargs.pop("seed")
        with pytest.raises(ConfigError) as err:
            D.synth_generate(D.SynthSpec(2, np.eye(2), np.zeros(2), **kwargs),
                             seed)
        assert str(err.value) == named

    def test_empty_domain_generated(self):
        ds = D.synth_generate(D.SynthSpec(2, np.eye(2), np.zeros(2), [0, 10]),
                              seed=1)
        assert counts(ds, "all") == [0, 10]

    @pytest.mark.parametrize("feature_noise", [np.nan, np.inf, -0.1])
    def test_bad_feature_noise_rejected(self, feature_noise):
        with pytest.raises(ConfigError, match="feature_noise must be"):
            D.SynthSpec(2, np.eye(2), np.zeros(2), [10, 10],
                        feature_noise=feature_noise)

    def test_identity_affinity_foreign_domains_uninformative(self):
        # train a linear probe on domain 0; foreign AUC must hover at chance
        spec = D.SynthSpec(3, np.eye(3), np.zeros(3), [5000, 5000, 5000])
        ds = D.synth_generate(spec, seed=42)
        vocab = ds.schema.vocab_sizes
        home = ds.domain("all", 0)
        w, b = train_logreg(onehot(home.features, vocab), home.labels)
        home_auc = auc(logreg_scores(onehot(home.features, vocab), w, b),
                       home.labels)
        assert home_auc >= 0.80
        for d in (1, 2):
            foreign = ds.domain("all", d)
            scores = logreg_scores(onehot(foreign.features, vocab), w, b)
            assert auc(scores, foreign.labels) <= 0.55

    def test_planted_overlap_transfers_and_disjoint_does_not(self):
        # A borrows B's concept heavily, C's not at all
        affinity = np.array([[1.0, 0.8, 0.0],
                             [0.8, 1.0, 0.0],
                             [0.0, 0.0, 1.0]])
        spec = D.SynthSpec(3, affinity, np.array([0.05, 0.05, 0.05]),
                           [4000, 4000, 4000])
        ds = D.synth_generate(spec, seed=11)
        vocab = ds.schema.vocab_sizes
        a = ds.domain("all", 0)

        def probe_auc(train_d):
            src = ds.domain("all", train_d)
            w, b = train_logreg(onehot(src.features, vocab), src.labels)
            return auc(logreg_scores(onehot(a.features, vocab), w, b), a.labels)

        assert probe_auc(1) >= 0.70   # similar domain transfers
        assert probe_auc(2) <= 0.55   # disjoint domain does not


def synth_features(tmp_path, vocab_size):
    ds = synthetic([30, 20, 25], vocab_size=vocab_size)
    return [dd.features for dd in ds.partitions["all"]]


def csv_features(tmp_path, vocab_size):
    ds = synthetic([30, 20, 25], vocab_size=vocab_size)
    D.save_csv(ds, tmp_path / "data.csv")
    loaded = D.load_csv(tmp_path / "data.csv", ds.schema)
    return [dd.features for dd in loaded.partitions["all"]]


def split_features(tmp_path, vocab_size):
    out = D.split(synthetic([30, 20, 25], vocab_size=vocab_size),
                  (0.8, 0.1, 0.1), seed=2)
    return [dd.features for name in D.PARTITIONS
            for dd in out.partitions[name]]


def sampler_features(tmp_path, vocab_size):
    ds = synthetic([30, 5, 25], vocab_size=vocab_size)
    sampler = D.QuotaSampler(ds.partitions["all"], [4, 7, 3],
                             np.random.default_rng(3))
    return [feats for _ in range(12) for feats, _ in sampler.next_batch()]


PRODUCERS = pytest.mark.parametrize(
    "produce", [synth_features, csv_features, split_features,
                sampler_features],
    ids=["synth", "load_csv", "split", "sampler"])


@PRODUCERS
def test_every_producer_holds_int32_features(produce, tmp_path):
    """Synthetic data, ``load_csv`` output, every split partition and
    every sampler batch hold features in the int32 format when a
    vocabulary has more than 256 entries."""
    features = produce(tmp_path, 257)
    assert features
    assert {f.dtype for f in features} == {np.dtype(np.int32)}


@PRODUCERS
def test_every_producer_holds_uint8_features(produce, tmp_path):
    """With at most 256 entries per vocabulary every producer holds
    uint8: split and the sampler keep the dtype they are given."""
    features = produce(tmp_path, 256)
    assert features
    assert {f.dtype for f in features} == {np.dtype(np.uint8)}


class TestIndexDtype:
    """One rule picks the feature format from the largest vocabulary."""

    @pytest.mark.parametrize("vocab_sizes, dtype", [
        ((2,), np.uint8), ((256,), np.uint8), ((257,), np.int32),
        ((8, 257, 3), np.int32), ((4, D.VOCAB_LIMIT), np.int32)])
    def test_rule(self, vocab_sizes, dtype):
        schema = D.Schema(2, tuple(D.FeatureField(f"f{j}", v)
                                   for j, v in enumerate(vocab_sizes)))
        assert schema.index_dtype == np.dtype(dtype)

    @pytest.mark.parametrize("vocab_size, dtype", [
        (256, np.uint8), (257, np.int32)])
    def test_synth_generate_at_the_boundaries(self, vocab_size, dtype):
        """Feature noise wide enough to clip many readouts to the top bin:
        the largest index is stored, not wrapped, in every domain, and an
        empty domain takes the format too."""
        ds = synthetic([60, 0, 40], seed=3, vocab_size=vocab_size,
                       feature_noise=3.0)
        for d, dd in enumerate(ds.partitions["all"]):
            assert dd.features.dtype == dtype and dd.labels.dtype == np.uint8
            if d != 1:
                assert dd.features.min() == 0
                assert dd.features.max() == vocab_size - 1
        assert counts(ds, "all") == [60, 0, 40]

    @pytest.mark.parametrize("vocab_size, dtype", [
        (256, np.uint8), (257, np.int32)])
    def test_load_csv_at_the_boundaries(self, tmp_path, vocab_size, dtype):
        """Every domain, the empty one too, holds the schema's format, and
        the indices around the top of the vocabulary read back as
        written."""
        schema = D.Schema(3, (D.FeatureField("small", 3),
                              D.FeatureField("big", vocab_size)))
        top = vocab_size - 1
        path = write_csv(tmp_path, schema,
                         f"0,1,2,{top}\n2,0,0,0\n0,0,1,{top - 1}\n"
                         f"2,1,1,255\n")
        ds = D.load_csv(path, schema)
        assert counts(ds, "all") == [2, 0, 2]
        for dd in ds.partitions["all"]:
            assert dd.features.dtype == dtype and dd.labels.dtype == np.uint8
        assert ds.domain("all", 0).features.tolist() == [[2, top],
                                                         [1, top - 1]]
        assert ds.domain("all", 2).features.tolist() == [[0, 0], [1, 255]]
        assert ds.domain("all", 0).labels.tolist() == [1, 0]
