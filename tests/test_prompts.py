"""Prompt rendering and embedding provider tests: determinism, masking,
dimensions, and locality of the synthetic encoders."""

from __future__ import annotations

import numpy as np
import pytest

from nanocorona.errors import DimensionError, ProviderError
from nanocorona.prompts import UNKNOWN_TOKEN, canonical_hash, render_prompt
from nanocorona.providers import (
    PROTEIN_DIM,
    TEXT_DIM,
    PrecomputedProvider,
    SyntheticProteinProvider,
    SyntheticTextProvider,
    embed_protein,
    embed_text,
)
from nanocorona.schema import UNKNOWN, SampleRecord, categorical, numeric

from conftest import base_features, random_sequence


def _record(schema, seed=0, **overrides):
    rng = np.random.default_rng(seed)
    feats = base_features(schema, rng)
    feats.update(overrides)
    return SampleRecord(sample_id="s0", study_id="st", group_id="g",
                        origin_id="o0", features=feats,
                        protein_accession="P00001", rpa=0.01)


class TestRenderPrompt:
    def test_contains_all_29_clauses_in_order(self, schema):
        prompt = render_prompt(_record(schema), schema)
        body = prompt.text.split("\n")[1:]
        assert len(body) == 29
        names = [clause.split(":")[0] for clause in body]
        assert names == [f.display_name for f in schema.features]

    def test_deterministic(self, schema):
        a = render_prompt(_record(schema), schema)
        b = render_prompt(_record(schema), schema)
        assert a.text == b.text
        assert a.canonical_hash == b.canonical_hash == canonical_hash(a.text)

    def test_unknown_feature_renders_token(self, schema):
        prompt = render_prompt(_record(schema, zeta_potential=UNKNOWN), schema)
        line = next(l for l in prompt.text.split("\n")
                    if l.startswith("zeta potential".split()[0].capitalize())
                    or "eta" in l.split(":")[0])
        assert line.endswith(UNKNOWN_TOKEN)

    def test_mask_set_overrides_known_value(self, schema):
        record = _record(schema, core=categorical("gold"))
        masked = render_prompt(record, schema, mask_set=frozenset({"core"}))
        plain = render_prompt(record, schema)
        assert "gold" in plain.text
        assert "gold" not in masked.text
        assert masked.text != plain.text

    def test_masking_already_unknown_is_noop(self, schema):
        record = _record(schema, crystallinity=UNKNOWN)
        plain = render_prompt(record, schema)
        masked = render_prompt(record, schema,
                               mask_set=frozenset({"crystallinity"}))
        assert masked.text == plain.text
        assert masked.canonical_hash == plain.canonical_hash

    def test_numeric_includes_unit(self, schema):
        record = _record(schema, dls_size=numeric(85.0, "nm"))
        prompt = render_prompt(record, schema)
        assert "85 nm" in prompt.text

    def test_distinct_records_distinct_hashes(self, schema):
        a = render_prompt(_record(schema, core=categorical("gold")), schema)
        b = render_prompt(_record(schema, core=categorical("silica")), schema)
        assert a.canonical_hash != b.canonical_hash


class TestSyntheticProviders:
    def test_dimensions_and_unit_norm(self):
        rng = np.random.default_rng(0)
        protein = SyntheticProteinProvider(seed=0)
        text = SyntheticTextProvider(seed=0)
        seq = random_sequence(rng, 40)
        pv = embed_protein([seq], protein)[0]
        tv = embed_text(["gold nanoparticle in PBS"], text)[0]
        assert pv.shape == (PROTEIN_DIM,)
        assert tv.shape == (TEXT_DIM,)
        assert pv.dtype == tv.dtype == np.float32
        assert np.linalg.norm(pv) == pytest.approx(1.0, abs=1e-5)
        assert np.linalg.norm(tv) == pytest.approx(1.0, abs=1e-5)

    def test_deterministic_across_instances(self):
        a = SyntheticProteinProvider(seed=4).embed(["ACDEFGHIKLMNP"])[0]
        b = SyntheticProteinProvider(seed=4).embed(["ACDEFGHIKLMNP"])[0]
        c = SyntheticProteinProvider(seed=5).embed(["ACDEFGHIKLMNP"])[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_locality_similar_closer_than_dissimilar(self):
        provider = SyntheticProteinProvider(seed=0)
        base = "ACDEFGHIKLMNPQRSTVWYACDEFGHIKL"
        near = base[:-1] + "A"  # one substitution
        far = "KLMNPQKLMNPQKLMNPQKLMNPQKLMNPQ"
        sim_near = float(provider.embed([base])[0] @ provider.embed([near])[0])
        sim_far = float(provider.embed([base])[0] @ provider.embed([far])[0])
        assert sim_near > sim_far

    def test_text_provider_sensitive_to_single_clause(self, schema):
        provider = SyntheticTextProvider(seed=0)
        record = _record(schema, core=categorical("gold"))
        full = render_prompt(record, schema)
        masked = render_prompt(record, schema, mask_set=frozenset({"core"}))
        assert not np.array_equal(provider.embed([full.text])[0],
                                  provider.embed([masked.text])[0])

    def test_empty_input_rejected(self):
        with pytest.raises(ProviderError):
            SyntheticProteinProvider().embed([""])
        with pytest.raises(ProviderError):
            embed_text([""], SyntheticTextProvider())

    def test_modality_mismatch(self):
        with pytest.raises(ProviderError):
            embed_protein(["ACDE"], SyntheticTextProvider())
        with pytest.raises(ProviderError):
            embed_text(["hello"], SyntheticProteinProvider())


class _DictStore:
    def __init__(self):
        self.vectors = {}

    def get(self, key):
        return self.vectors.get(key)


class TestPrecomputedProvider:
    def test_lookup_by_content_hash(self):
        store = _DictStore()
        vec = np.arange(TEXT_DIM, dtype=np.float32)
        store.vectors[canonical_hash("some prompt")] = ("offline", vec)
        provider = PrecomputedProvider(store, "text", TEXT_DIM)
        assert np.array_equal(embed_text(["some prompt"], provider)[0], vec)

    def test_list_makes_one_get_per_input(self):
        store = _DictStore()
        gets = []
        store.get = lambda key: gets.append(key) or store.vectors.get(key)
        for i, text in enumerate(["p", "q"]):
            store.vectors[canonical_hash(text)] = (
                "offline", np.full(TEXT_DIM, i, dtype=np.float32))
        provider = PrecomputedProvider(store, "text", TEXT_DIM)
        vectors = embed_text(["q", "p", "q"], provider)
        assert [float(vec[0]) for vec in vectors] == [1.0, 0.0, 1.0]
        assert gets == [canonical_hash(t) for t in ["q", "p", "q"]]
        assert embed_text([], provider) == []
        assert len(gets) == 3

    def test_missing_entry(self):
        provider = PrecomputedProvider(_DictStore(), "text", TEXT_DIM)
        with pytest.raises(ProviderError):
            provider.embed(["never seen"])

    def test_wrong_dimension_rejected(self):
        store = _DictStore()
        store.vectors[canonical_hash("p")] = (
            "offline", np.zeros(7, dtype=np.float32))
        provider = PrecomputedProvider(store, "text", TEXT_DIM)
        with pytest.raises(DimensionError):
            provider.embed(["p"])
