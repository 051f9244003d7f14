"""Data-model tests: schema shape, table parsing, catalogs, validation."""

from __future__ import annotations

import os

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
    ProteinCatalog,
    ProteinRecord,
    SampleRecord,
    ValidationReport,
    categorical,
    default_schema,
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
