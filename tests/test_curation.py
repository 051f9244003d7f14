"""Curation tests: alignment, units, imputation, RPA estimation, fills,
top-n scaling, and labeling, with brute-force oracles for the fill counts."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from nanocorona.curation import (
    GROUPING_KEYS,
    IMPUTE_FEATURES,
    AlignmentTable,
    QuantityObservation,
    RetainedOriginal,
    align_categorical,
    apply_alignment,
    binarize,
    build_reference_curve,
    estimate_rpa,
    global_fill,
    impute_numeric_weighted,
    impute_protocol_defaults,
    load_alignment_table,
    local_fill,
    normalize_concentration,
    top_n_scale,
)
from nanocorona.errors import (
    MissingMolecularWeightError,
    NoDataError,
    OutOfRangeError,
    UnknownUnitError,
    ZeroTotalError,
)
from nanocorona.schema import (
    NUMERIC,
    SampleRecord,
    UNKNOWN,
    categorical,
    numeric,
)

from conftest import base_features


def _rec(schema, sample_id, study="st1", group="g1", accession="P1",
         rpa=0.01, seed=0, **feature_overrides):
    rng = np.random.default_rng(seed)
    feats = base_features(schema, rng)
    feats.update(feature_overrides)
    return SampleRecord(
        sample_id=sample_id, study_id=study, group_id=group,
        origin_id=f"o-{sample_id}", features=feats,
        protein_accession=accession, rpa=rpa)


class TestAlignCategorical:
    def _table(self):
        table = AlignmentTable()
        table.add("core", "GO", "carbon", "carbon-based")
        table.add("core", "carbon nanotubes", "carbon", "carbon-based")
        table.add("core", "Au and Fe3O4", "Au@Fe3O4", "core-shell")
        table.add("shape", "nanosphere", "spherical", "spherical")
        return table

    def test_graphene_oxide_aligns_to_carbon(self):
        aligned = align_categorical("core", "GO", self._table())
        assert aligned.canonical == "carbon"
        assert aligned.derived_category == "carbon-based"
        assert not aligned.unaligned

    def test_composite_core_becomes_core_shell(self):
        aligned = align_categorical("core", "Au and Fe3O4", self._table())
        assert aligned.canonical == "Au@Fe3O4"
        assert aligned.derived_category == "core-shell"

    def test_unmapped_value_passes_through_flagged(self):
        aligned = align_categorical("shape", "nanosphere-like-object",
                                    self._table())
        assert aligned.canonical == "nanosphere-like-object"
        assert aligned.derived_category == "other"
        assert aligned.unaligned

    def test_invalid_derived_category_rejected(self):
        table = AlignmentTable()
        with pytest.raises(ValueError):
            table.add("core", "x", "x", "not-a-core-type")

    def test_bad_category_in_loaded_table_names_its_line(self, tmp_path):
        path = tmp_path / "align.tsv"
        path.write_text("feature_id\traw\tcanonical\tderived_category\n"
                        "core\tGO\tcarbon\tcarbon-based\n"
                        "core\tx\tx\tnot-a-class\n")
        with pytest.raises(OutOfRangeError, match="line 3: .*'not-a-class'"):
            load_alignment_table(path)

    def test_loaded_table_aligns_records(self, tmp_path, schema):
        path = tmp_path / "align.tsv"
        path.write_text("feature_id\traw\tcanonical\tderived_category\n"
                        "core\tGO\tcarbon\tcarbon-based\n"
                        "shape\tnanosphere\tspherical\tspherical\n")
        table = load_alignment_table(path)
        records = [_rec(schema, "a", core=categorical("GO"),
                        core_type=UNKNOWN, shape=categorical("nanosphere")),
                   _rec(schema, "b", core=categorical("Au"),
                        core_type=UNKNOWN)]
        aligned, untouched = apply_alignment(records, table, schema)
        assert aligned.features["core"] == categorical("carbon")
        assert aligned.features["core_type"] == categorical("carbon-based")
        assert aligned.features["shape"] == categorical("spherical")
        assert untouched.features == records[1].features


class TestNormalizeConcentration:
    def test_mg_per_ml(self):
        assert normalize_concentration(1, "mg/mL") == 1000.0

    def test_molar_with_molecular_weight(self):
        assert normalize_concentration(1e-3, "mol/L", mw=58.0) == \
            pytest.approx(58000.0)

    def test_wt_percent_retained(self):
        result = normalize_concentration(5, "wt%")
        assert result == RetainedOriginal(value=5, tag="wt%")

    def test_molar_without_mw_retained(self):
        result = normalize_concentration(2.0, "mmol/L")
        assert isinstance(result, RetainedOriginal)

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnitError):
            normalize_concentration(1, "furlongs")


class TestImputeNumericWeighted:
    KEYS = ("core", "shape")

    def test_curation_constants_name_schema_features(self, schema):
        # a misspelt name would be observed nowhere and silently skipped
        assert all(schema[fid].kind == NUMERIC for fid in IMPUTE_FEATURES)
        assert set(GROUPING_KEYS) <= set(schema.feature_ids)

    def test_weighted_mean(self, schema):
        records = ([_rec(schema, "a0", dls_size=numeric(10.0, "nm"))]
                   + [_rec(schema, f"b{i}", dls_size=numeric(20.0, "nm"))
                      for i in range(3)]
                   + [_rec(schema, "c0", dls_size=UNKNOWN)])
        out = impute_numeric_weighted(records, "dls_size", self.KEYS)
        # {10 once, 20 three times} -> 17.5
        assert out[-1].features["dls_size"].number == pytest.approx(17.5)
        assert "imputed:dls_size" in out[-1].fill_flags

    def test_backoff_order_against_fixture(self, schema):
        # full key (core=gold, shape=rod) has no observed values; the parent
        # level (core=gold) holds a single 8.0
        records = [
            _rec(schema, "obs", core=categorical("gold"),
                 shape=categorical("sphere"), dls_size=numeric(8.0, "nm")),
            _rec(schema, "other", core=categorical("iron"),
                 shape=categorical("rod"), dls_size=numeric(100.0, "nm")),
            _rec(schema, "miss", core=categorical("gold"),
                 shape=categorical("rod"), dls_size=UNKNOWN),
        ]
        out = impute_numeric_weighted(records, "dls_size", self.KEYS)
        # brute-force backoff oracle over explicit levels
        levels = [("core", "shape"), ("core",), ()]
        expected = None
        for keys in levels:
            member = [r.features["dls_size"].number for r in records[:2]
                      if all(r.features[k].text ==
                             records[2].features[k].text for k in keys)]
            if member:
                expected = sum(member) / len(member)
                break
        assert expected == 8.0
        assert out[2].features["dls_size"].number == pytest.approx(expected)

    def test_noop_without_unknowns(self, schema):
        records = [_rec(schema, "a", dls_size=numeric(5.0, "nm"))]
        assert impute_numeric_weighted(records, "dls_size", self.KEYS) == \
            records

    def test_idempotent(self, schema):
        records = [_rec(schema, "a", dls_size=numeric(10.0, "nm")),
                   _rec(schema, "b", dls_size=UNKNOWN)]
        once = impute_numeric_weighted(records, "dls_size", self.KEYS)
        twice = impute_numeric_weighted(once, "dls_size", self.KEYS)
        assert once == twice

    def test_no_data_anywhere(self, schema):
        records = [_rec(schema, "a", dls_size=UNKNOWN)]
        with pytest.raises(NoDataError):
            impute_numeric_weighted(records, "dls_size", self.KEYS)


class TestImputeProtocolDefaults:
    def test_temperature_defaults_to_37(self, schema):
        records = [_rec(schema, "a", incubation_temperature=UNKNOWN)]
        out = impute_protocol_defaults(records, schema)
        assert out[0].features["incubation_temperature"].number == 37.0

    def test_medium_defaults_to_water(self, schema):
        records = [_rec(schema, "a", dispersing_medium=UNKNOWN)]
        out = impute_protocol_defaults(records, schema)
        assert out[0].features["dispersing_medium"].text == "water"

    def test_other_protocol_features_use_mode(self, schema):
        records = ([_rec(schema, f"m{i}",
                         separation_method=categorical("centrifugation"))
                    for i in range(3)]
                   + [_rec(schema, "x",
                           separation_method=categorical("magnetic"))]
                   + [_rec(schema, "missing", separation_method=UNKNOWN)])
        out = impute_protocol_defaults(records, schema)
        assert out[-1].features["separation_method"].text == "centrifugation"
        assert "imputed:separation_method" in out[-1].fill_flags

    def test_idempotent(self, schema):
        records = [_rec(schema, "a", separation_method=UNKNOWN),
                   _rec(schema, "b")]
        once = impute_protocol_defaults(records, schema)
        assert impute_protocol_defaults(once, schema) == once


class TestEstimateRpa:
    def _obs(self, quantities, kind="spectral_count", mws=None):
        mws = mws or [None] * len(quantities)
        return [QuantityObservation(f"P{i}", q, kind, mw)
                for i, (q, mw) in enumerate(zip(quantities, mws))]

    def test_simple_normalization(self):
        rpa = estimate_rpa(self._obs([2, 3, 5]), "normalization")
        assert [rpa[f"P{i}"] for i in range(3)] == \
            pytest.approx([0.2, 0.3, 0.5])

    def test_mw_normalization(self):
        rpa = estimate_rpa(self._obs([10, 10], kind="intensity",
                                     mws=[50.0, 100.0]), "mw_normalization")
        assert rpa["P0"] == pytest.approx(2 / 3)
        assert rpa["P1"] == pytest.approx(1 / 3)

    def test_empai_mole_fraction(self):
        rpa = estimate_rpa(self._obs([1, 3], kind="empai"), "empai")
        assert rpa["P0"] == pytest.approx(0.25)
        assert rpa["P1"] == pytest.approx(0.75)

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            quantities = rng.uniform(0.01, 100, size=rng.integers(2, 50))
            rpa = estimate_rpa(self._obs(list(quantities)), "normalization")
            assert abs(sum(rpa.values()) - 1.0) < 1e-9
            assert all(0 <= v <= 1 for v in rpa.values())

    def test_missing_mw(self):
        with pytest.raises(MissingMolecularWeightError):
            estimate_rpa(self._obs([1, 2]), "mw_normalization")

    def test_zero_total(self):
        with pytest.raises(ZeroTotalError):
            estimate_rpa(self._obs([0, 0]), "normalization")


class TestLocalFill:
    def _study(self, schema, groups):
        records = []
        for group, accs in groups.items():
            for acc in accs:
                records.append(_rec(schema, f"{group}-{acc}", group=group,
                                    accession=acc, rpa=0.1))
        return records

    def test_union_rule(self, schema):
        records = self._study(schema, {"A": ["p1", "p2"], "B": ["p2", "p3"]})
        out = local_fill(records)
        added = [r for r in out if "local_fill" in r.fill_flags]
        assert {(r.group_id, r.protein_accession) for r in added} == \
            {("A", "p3"), ("B", "p1")}
        assert all(r.rpa == 0.0 for r in added)

    def test_single_group_unchanged(self, schema):
        records = self._study(schema, {"A": ["p1", "p2"]})
        assert local_fill(records) == records

    def test_row_count_matches_bruteforce(self, schema):
        groups = {"A": ["p1", "p2", "p5"], "B": ["p2", "p3"],
                  "C": ["p1", "p4", "p6", "p7"]}
        out = local_fill(self._study(schema, groups))
        union = set(itertools.chain.from_iterable(groups.values()))
        assert len(out) == len(groups) * len(union)

    def test_existing_rpa_untouched(self, schema):
        records = self._study(schema, {"A": ["p1"], "B": ["p2"]})
        out = local_fill(records)
        originals = {r.sample_id: r for r in records}
        for rec in out:
            if rec.sample_id in originals:
                assert rec.rpa == originals[rec.sample_id].rpa


class TestReferenceCurve:
    def test_single_study_cumulative(self):
        curve = build_reference_curve([[0.5, 0.3, 0.2]])
        assert curve(1) == pytest.approx(0.5)
        assert curve(2) == pytest.approx(0.8)
        assert curve(3) == pytest.approx(1.0)
        assert curve(150) == pytest.approx(1.0)

    def test_median_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        studies = []
        for _ in range(4):
            raw = rng.uniform(0.01, 1, size=rng.integers(5, 40))
            studies.append(list(raw / raw.sum()))
        curve = build_reference_curve(studies)
        for n in (1, 3, 7, 20, 60):
            per_study = []
            for vals in studies:
                top = sorted(vals, reverse=True)[:n]
                per_study.append(1.0 if n >= len(vals) else sum(top))
            assert curve(n) == pytest.approx(float(np.median(per_study)))

    def test_nondecreasing(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.01, 1, size=30)
        curve = build_reference_curve([list(raw / raw.sum())])
        values = [curve(n) for n in range(1, 151)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTopNScale:
    def _truncated_study(self, schema, rpas):
        return [_rec(schema, f"s{i}", accession=f"p{i}", rpa=r)
                for i, r in enumerate(rpas)]

    def _curve(self, value=0.9):
        return build_reference_curve(
            [[value] + [(1 - value) / 200] * 200])

    def test_scaled_sum_equals_curve_value(self, schema):
        curve = self._curve()
        result = top_n_scale(self._truncated_study(schema, [0.5, 0.3, 0.2]),
                             curve)
        assert result.scaled
        total = sum(r.rpa for r in result.records)
        assert total == pytest.approx(curve(3), abs=1e-9)
        assert all("topn_scaled" in r.fill_flags for r in result.records)

    def test_large_study_not_scaled(self, schema):
        rpas = [1.0 / 200] * 200
        result = top_n_scale(self._truncated_study(schema, rpas),
                             self._curve())
        assert not result.scaled
        assert result.note == "NOT_SCALED"
        assert [r.rpa for r in result.records] == rpas

    def test_rank_order_and_ratios_preserved(self, schema):
        rpas = [0.4, 0.35, 0.15, 0.1]
        result = top_n_scale(self._truncated_study(schema, rpas),
                             self._curve())
        scaled = [r.rpa for r in result.records]
        assert np.argmax(scaled) == np.argmax(rpas)
        for i, j in itertools.combinations(range(4), 2):
            assert scaled[i] / scaled[j] == pytest.approx(rpas[i] / rpas[j])


class TestGlobalFill:
    def _corpus(self, schema, layout):
        """layout: {(study, group): [accessions]}"""
        records = []
        for (study, group), accs in layout.items():
            for acc in accs:
                records.append(_rec(schema, f"{study}-{group}-{acc}",
                                    study=study, group=group, accession=acc,
                                    rpa=0.05))
        return records

    def _layout(self):
        # p1: 4 of 30 units (13.3%) across 3 studies -> eligible
        # p2: 12 units but only 2 studies -> not eligible
        layout = {}
        for s in range(4):
            for g in range(8 if s < 3 else 6):
                unit = (f"st{s}", f"g{g}")
                layout[unit] = [f"base{s}_{g}"]
        for unit in [("st0", "g0"), ("st1", "g1"), ("st2", "g2"),
                     ("st2", "g3")]:
            layout[unit].append("p1")
        for s, g in itertools.product(range(2), range(6)):
            layout[(f"st{s}", f"g{g}")].append("p2")
        return layout

    def test_threshold_membership(self, schema):
        layout = self._layout()
        out = global_fill(self._corpus(schema, layout))
        added = [r for r in out if "global_fill" in r.fill_flags]
        assert {r.protein_accession for r in added} == {"p1"}
        filled_units = {(r.study_id, r.group_id) for r in added}
        expected = set(layout) - {("st0", "g0"), ("st1", "g1"),
                                  ("st2", "g2"), ("st2", "g3")}
        assert filled_units == expected

    def test_added_count_matches_bruteforce(self, schema):
        layout = self._layout()
        corpus = self._corpus(schema, layout)
        out = global_fill(corpus)
        n_units = len(layout)
        expected_added = 0
        proteins = {acc for accs in layout.values() for acc in accs}
        for acc in proteins:
            units = [u for u, accs in layout.items() if acc in accs]
            studies = {u[0] for u in units}
            if len(units) > 0.10 * n_units and len(studies) >= 3:
                expected_added += n_units - len(units)
        assert len(out) - len(corpus) == expected_added

    def test_existing_values_untouched(self, schema):
        corpus = self._corpus(schema, self._layout())
        out = global_fill(corpus)
        assert out[:len(corpus)] == corpus


class TestBinarize:
    def test_above_threshold(self):
        assert binarize(2e-5) == 1

    def test_below_threshold(self):
        assert binarize(5e-6) == 0

    def test_exactly_at_threshold_is_negative(self):
        assert binarize(1e-5) == 0

    def test_monotone(self):
        rng = np.random.default_rng(2)
        values = np.sort(rng.uniform(0, 1e-4, size=200))
        labels = [binarize(v) for v in values]
        assert labels == sorted(labels)
