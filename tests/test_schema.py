"""Data-model tests: schema shape, table parsing, catalogs, validation."""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from nanocorona import schema as schema_module
from nanocorona.curation import load_alignment_table
from nanocorona.errors import (
    BadNumberError,
    BadSequenceError,
    DuplicateAccessionError,
    EncodingError,
    RowShapeError,
    UnknownColumnError,
)
from nanocorona.schema import (
    BOOKKEEPING_COLUMNS,
    UNKNOWN,
    FeatureValue,
    ProteinCatalog,
    ProteinRecord,
    SampleRecord,
    ValidationReport,
    categorical,
    default_schema,
    free_text,
    keep_parse,
    load_protein_catalog,
    numeric,
    parse_sample_table,
    validate_corpus,
    write_protein_catalog,
    write_sample_table,
)
from nanocorona.splits import read_split_manifest

from conftest import base_features, make_catalog

import numpy as np


class TestFeatureSchema:
    def test_29_features_with_fixed_group_sizes(self, schema):
        assert len(schema.features) == 29
        groups = {}
        for f in schema.features:
            groups[f.group] = groups.get(f.group, 0) + 1
        assert groups == {"nanomaterial": 14, "incubation": 9,
                          "separation": 5, "proteomic": 1}

    def test_ids_unique_and_order_stable(self, schema):
        ids = schema.feature_ids
        assert len(set(ids)) == 29
        assert ids == default_schema().feature_ids


def _write_table(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _full_row(schema, sample_id, zeta="12.5"):
    cells = [sample_id, "study1", "g1", f"origin-{sample_id}", "P00001",
             "0.01", "", "0"]
    for fdef in schema.features:
        if fdef.feature_id == "zeta_potential":
            cells.append(zeta)
        elif fdef.kind == "numeric":
            cells.append("5")
        else:
            cells.append("x")
    return cells


class TestParseSampleTable:
    def header(self, schema):
        return list(BOOKKEEPING_COLUMNS) + list(schema.feature_ids)

    def test_fully_populated_rows(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        _write_table(path, self.header(schema),
                     [_full_row(schema, "s1"), _full_row(schema, "s2")])
        records = parse_sample_table(path, schema)
        assert len(records) == 2
        for rec in records:
            assert not any(v.is_unknown for v in rec.features.values())

    def test_empty_cell_becomes_unknown(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        _write_table(path, self.header(schema), [_full_row(schema, "s1", zeta="")])
        (rec,) = parse_sample_table(path, schema)
        assert rec.features["zeta_potential"].is_unknown

    def test_short_row_reports_line_number(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        row = _full_row(schema, "s1")[:-3]
        _write_table(path, self.header(schema), [_full_row(schema, "s0"), row])
        with pytest.raises(RowShapeError, match="line 3"):
            parse_sample_table(path, schema)

    def test_unknown_column_rejected(self, tmp_path, schema):
        header = self.header(schema) + ["mystery"]
        path = tmp_path / "t.tsv"
        _write_table(path, header, [])
        with pytest.raises(UnknownColumnError, match="mystery"):
            parse_sample_table(path, schema)

    def test_roundtrip_is_identity(self, tmp_path, schema):
        rng = np.random.default_rng(3)
        records = []
        for i in range(10):
            feats = base_features(schema, rng)
            if i % 3 == 0:
                feats["zeta_potential"] = UNKNOWN
            records.append(SampleRecord(
                sample_id=f"s{i}", study_id="st", group_id="g",
                origin_id=f"o{i}", features=feats,
                protein_accession=f"P{i:05d}",
                rpa=None if i % 4 == 0 else float(rng.uniform(0, 1)),
                fill_flags=frozenset({"local_fill"}) if i % 5 == 0
                else frozenset(),
                is_filled_variant=i % 2 == 1))
        path = tmp_path / "round.tsv"
        write_sample_table(records, path, schema)
        reparsed = parse_sample_table(path, schema)
        assert reparsed == records
        # second roundtrip is byte-stable
        path2 = tmp_path / "round2.tsv"
        write_sample_table(reparsed, path2, schema)
        assert path.read_bytes() == path2.read_bytes()


class TestParseOnce:
    """parse_sample_table keeps the last table it parsed, keyed by content,
    and parses each distinct cell of a column once."""

    @pytest.fixture(autouse=True)
    def no_kept_table(self, monkeypatch):
        monkeypatch.setattr(schema_module, "_last_parse", (None, []))

    def header(self, schema):
        return list(BOOKKEEPING_COLUMNS) + list(schema.feature_ids)

    def test_same_content_returns_the_same_records(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        _write_table(path, self.header(schema),
                     [_full_row(schema, "s1"), _full_row(schema, "s2")])
        first = parse_sample_table(path, schema)
        again = parse_sample_table(path, default_schema())
        assert again is not first
        assert all(a is b for a, b in zip(first, again))

    def test_equal_cells_share_one_feature_value(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        _write_table(path, self.header(schema),
                     [_full_row(schema, "s1"), _full_row(schema, "s2")])
        a, b = parse_sample_table(path, schema)
        for fid in schema.feature_ids:
            assert a.features[fid] is b.features[fid]
        assert a.fill_flags is b.fill_flags

    def test_same_size_rewrite_with_old_mtime_is_parsed_again(self, tmp_path,
                                                              schema):
        path = tmp_path / "t.tsv"
        _write_table(path, self.header(schema),
                     [_full_row(schema, "s1", zeta="12.5")])
        before = os.stat(path)
        (old,) = parse_sample_table(path, schema)
        _write_table(path, self.header(schema),
                     [_full_row(schema, "s1", zeta="13.5")])
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == \
            (before.st_size, before.st_mtime_ns)
        (new,) = parse_sample_table(path, schema)
        assert old.features["zeta_potential"].number == 12.5
        assert new.features["zeta_potential"].number == 13.5

    def test_mutating_the_returned_list_leaves_the_next_parse(self, tmp_path,
                                                              schema):
        path = tmp_path / "t.tsv"
        _write_table(path, self.header(schema),
                     [_full_row(schema, "s1"), _full_row(schema, "s2")])
        first = parse_sample_table(path, schema)
        expected = list(first)
        first.pop()
        first.append(first[0])
        first.reverse()
        assert parse_sample_table(path, schema) == expected

    def test_repeated_bad_cell_names_its_first_line(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        rows = [_full_row(schema, f"s{i}", zeta="12.5x" if i % 2 else "1")
                for i in range(4)]  # lines 3 and 5 hold the bad cell
        _write_table(path, self.header(schema), rows)
        with pytest.raises(BadNumberError,
                           match="line 3: zeta_potential '12.5x'") as exc:
            parse_sample_table(path, schema)
        assert exc.value.code == "E_BAD_NUMBER"

    def test_failed_parse_keeps_the_previous_table(self, tmp_path, schema):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        _write_table(good, self.header(schema), [_full_row(schema, "s1")])
        _write_table(bad, self.header(schema),
                     [_full_row(schema, "s1", zeta="x")])
        (kept,) = parse_sample_table(good, schema)
        with pytest.raises(BadNumberError, match="line 2"):
            parse_sample_table(bad, schema)
        (again,) = parse_sample_table(good, schema)
        assert again is kept



def _kept_records(schema):
    rng = np.random.default_rng(4)
    return [SampleRecord(
        sample_id=f"s{i}", study_id="st", group_id="g", origin_id=f"o{i}",
        features=base_features(schema, rng), protein_accession=f"P{i:05d}",
        rpa=None if i == 0 else 0.1 * i,
        fill_flags=frozenset({"local_fill", "imputed:pdi"}) if i == 1
        else frozenset(),
        is_filled_variant=i == 1) for i in range(3)]


def _perturbed(rec):
    """(name, record, whether it parses back), each record one change away
    from `rec`."""
    def feature(fid, value):
        return replace(rec, features={**rec.features, fid: value})

    reordered = dict(reversed(list(rec.features.items())))
    dropped = {k: v for k, v in rec.features.items() if k != "shape"}
    return [
        ("unchanged", rec, True),
        ("other unit", feature("dls_size", numeric(12.0, "um")), True),
        ("padded categorical", feature("core", categorical(" gold ")), False),
        ("empty categorical", feature("core", categorical("")), False),
        ("unit-less numeric", feature("dls_size", numeric(12.0)), False),
        ("integer number", feature("dls_size", FeatureValue(
            kind="numeric", number=12, unit="nm")), False),
        ("nan", feature("dls_size", numeric(float("nan"), "nm")), False),
        ("tab in categorical", feature("core", categorical("go\tld")), False),
        ("padded free text", feature("primary_size", free_text("80 ")),
         False),
        ("categorical in a numeric column", feature("dls_size",
                                                    categorical("12")), False),
        ("numeric with text", feature("dls_size", FeatureValue(
            kind="numeric", text="x", number=12.0, unit="nm")), False),
        ("unit with a space", feature("dls_size", numeric(12.0, "n m")),
         True),
        ("padded unit", feature("dls_size", numeric(12.0, "nm ")), False),
        ("unknown with text", feature("core", FeatureValue(
            kind="unknown", text="gold")), False),
        ("features reordered", replace(rec, features=reordered), False),
        ("feature missing", replace(rec, features=dropped), False),
        ("tab in sample id", replace(rec, sample_id="s\t1"), False),
        ("line break in origin", replace(rec, origin_id="o\u20281"), False),
        ("padded group", replace(rec, group_id=" g"), True),
        ("numpy rpa", replace(rec, rpa=np.float64(0.5)), False),
        ("integer rpa", replace(rec, rpa=1), False),
        ("flag with separator", replace(rec, fill_flags=frozenset({"a;b"})),
         False),
        ("padded flag", replace(rec, fill_flags=frozenset({" a"})), False),
        ("integer variant flag", replace(rec, is_filled_variant=1), False),
    ]


def _same_records(parsed, records) -> bool:
    """Equal, with features in the same order and every number, flag and
    rpa of the same type."""
    def types(rec):
        return ([type(v.number) for v in rec.features.values()],
                type(rec.rpa), type(rec.is_filled_variant))

    return parsed == records and all(
        list(p.features) == list(r.features) and types(p) == types(r)
        for p, r in zip(parsed, records))


class TestKeepParse:
    """stage_curate hands the records it writes to the next parse of
    curated.tsv; that is sound only when those bytes parse back to them."""

    @pytest.fixture(autouse=True)
    def no_kept_table(self, monkeypatch):
        monkeypatch.setattr(schema_module, "_last_parse", (None, []))

    def test_kept_records_are_returned_without_reading_rows(
            self, tmp_path, schema, monkeypatch):
        records = _kept_records(schema)
        path = tmp_path / "curated.tsv"
        keep_parse(write_sample_table(records, path, schema), records, schema)
        monkeypatch.setattr(schema_module, "_split_tsv", None)  # unused
        again = parse_sample_table(path, schema)
        assert again == records
        assert all(a is b for a, b in zip(again, records))

    def test_round_trip_check_agrees_with_a_parse(self, tmp_path, schema):
        # each record that keep_parse would keep parses back equal, with
        # its features in schema order; each it refuses does not
        base = _kept_records(schema)
        for name, rec, parses_back in _perturbed(base[1]):
            records = [base[0], rec]
            path = tmp_path / "t.tsv"
            raw = write_sample_table(records, path, schema)
            schema_module._last_parse = (None, [])
            try:
                same = _same_records(parse_sample_table(path, schema),
                                     records)
            except (BadNumberError, RowShapeError):
                same = False
            assert same is parses_back, name
            assert schema_module._parses_back(records, schema) is same, name
            schema_module._last_parse = (None, [])
            keep_parse(raw, records, schema)
            kept = schema_module._last_parse[1]
            assert (kept == records if same else kept == []), name

    def test_empty_table_is_kept(self, tmp_path, schema):
        path = tmp_path / "empty.tsv"
        keep_parse(write_sample_table([], path, schema), [], schema)
        assert schema_module._last_parse[0] is not None
        assert parse_sample_table(path, schema) == []

def _sample_table(path):
    return parse_sample_table(path, default_schema())


# reader, its required columns, and one valid row under those columns
TABLE_READERS = {
    "sample_table": (_sample_table,
                     [*BOOKKEEPING_COLUMNS, *default_schema().feature_ids],
                     _full_row(default_schema(), "s1")),
    "protein_catalog": (load_protein_catalog,
                        ["accession", "sequence", "molecular_weight_kda"],
                        ["P1", "ACDE", "66.5"]),
    "alignment_table": (load_alignment_table,
                        ["feature_id", "raw", "canonical", "derived_category"],
                        ["core", "GO", "carbon", "carbon-based"]),
    "split_manifest": (read_split_manifest, ["origin_id", "split", "bin"],
                       ["o1", "train", "0"]),
}


@pytest.mark.parametrize("name", sorted(TABLE_READERS))
class TestTableReaders:
    """Every TSV reader checks its header and row shapes the same way."""

    def test_missing_required_column(self, tmp_path, name):
        reader, header, row = TABLE_READERS[name]
        path = tmp_path / "t.tsv"
        _write_table(path, header[1:], [row[1:]])
        with pytest.raises(UnknownColumnError, match=repr(header[0])):
            reader(path)

    def test_short_row_names_its_line(self, tmp_path, name):
        reader, header, row = TABLE_READERS[name]
        path = tmp_path / "t.tsv"
        _write_table(path, header, [row, row[:-1]])
        with pytest.raises(RowShapeError, match="line 3"):
            reader(path)

    def test_non_utf8_byte_names_its_line(self, tmp_path, name):
        reader, header, row = TABLE_READERS[name]
        path = tmp_path / "t.tsv"
        _write_table(path, header, [row, row])
        data = path.read_bytes()
        cut = data.rindex(b"\t") + 1  # into the last cell of line 3
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        with pytest.raises(EncodingError, match=f"{path}: line 3: byte 0xff"):
            reader(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, column", [
    ("sample_table", "dls_size"), ("sample_table", "rpa"),
    ("protein_catalog", "molecular_weight_kda"), ("split_manifest", "bin")])
def test_number_cell_must_be_finite(tmp_path, name, column, cell):
    reader, header, row = TABLE_READERS[name]
    bad = list(row)
    bad[header.index(column)] = cell
    path = tmp_path / "t.tsv"
    _write_table(path, header, [row, bad])
    with pytest.raises(BadNumberError, match=f"line 3: {column} '{cell}'"):
        reader(path)


class TestProteinCatalog:
    def test_lookup_exact_match(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("accession\tsequence\tmolecular_weight_kda\n"
                        "P02768\tACDEFGHIKL\t66.5\n")
        catalog = load_protein_catalog(path)
        rec = catalog.lookup("P02768")
        assert rec.sequence == "ACDEFGHIKL"
        assert rec.molecular_weight == 66.5
        assert catalog.lookup("P99999") is None

    def test_duplicate_accession_with_different_sequence(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("accession\tsequence\tmolecular_weight_kda\n"
                        "P1\tACDE\t\nP1\tWXYZ\t\n".replace("WXYZ", "WYVA"))
        with pytest.raises(DuplicateAccessionError):
            load_protein_catalog(path)

    def test_bad_sequence_character_named(self):
        with pytest.raises(BadSequenceError, match="'1'"):
            ProteinRecord(accession="P1", sequence="ACDE1")

    def test_ambiguity_codes_accepted(self):
        ProteinRecord(accession="P1", sequence="ACDBXZJOU")

    def test_bad_molecular_weight_names_its_line(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("accession\tsequence\tmolecular_weight_kda\n"
                        "P1\tACDE\t66.5\nP2\tWYVA\theavy\n")
        with pytest.raises(BadNumberError, match="line 3"):
            load_protein_catalog(path)

    def test_catalog_roundtrip(self, tmp_path):
        catalog = make_catalog(5, seed=1)
        path = tmp_path / "cat.tsv"
        write_protein_catalog(catalog, path)
        loaded = load_protein_catalog(path)
        assert loaded.accessions() == catalog.accessions()
        for acc in catalog.accessions():
            assert loaded.lookup(acc) == catalog.lookup(acc)


class TestValidateCorpus:
    def _record(self, schema, sample_id, accession="P00001", rpa=0.01,
                group="g1", filled=False):
        rng = np.random.default_rng(0)
        return SampleRecord(
            sample_id=sample_id, study_id="st", group_id=group,
            origin_id=f"o-{sample_id}", features=base_features(schema, rng),
            protein_accession=accession, rpa=rpa, is_filled_variant=filled)

    def test_clean_corpus(self, schema):
        catalog = make_catalog(3)
        records = [self._record(schema, f"s{i}", f"P0000{i}", group=f"g{i}")
                   for i in range(3)]
        report = validate_corpus(records, catalog)
        assert report.issues == []
        assert report.valid == report.total == 3

    def test_negative_rpa_flagged(self, schema):
        catalog = make_catalog(1)
        report = validate_corpus(
            [self._record(schema, "s0", "P00000", rpa=-0.001)], catalog)
        assert [i.code for i in report.issues] == ["NEGATIVE_RPA"]
        assert report.valid + report.invalid == report.total

    def test_missing_protein_flagged(self, schema):
        catalog = make_catalog(1)
        report = validate_corpus(
            [self._record(schema, "s0", "P11111")], catalog)
        assert [i.code for i in report.issues] == ["MISSING_PROTEIN"]

    def test_duplicate_key_flagged(self, schema):
        catalog = make_catalog(1)
        records = [self._record(schema, "s0"), self._record(schema, "s1")]
        report = validate_corpus(records, catalog)
        assert "DUPLICATE_KEY" in [i.code for i in report.issues]

    def test_input_not_mutated(self, schema):
        catalog = make_catalog(1)
        records = [self._record(schema, "s0", rpa=-1.0)]
        before = list(records)
        validate_corpus(records, catalog)
        assert records == before
