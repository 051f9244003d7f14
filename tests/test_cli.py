"""Pipeline and CLI tests: config handling, run manifests, stage outputs,
end-to-end determinism, and process exit codes."""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from nanocorona import curation, model, pipeline, schema as schema_module
from nanocorona import splits
from nanocorona.cli import main
from nanocorona.errors import EmptyInputError, StageError
from nanocorona.schema import (
    UNKNOWN,
    numeric,
    ProteinCatalog,
    load_protein_catalog,
    parse_sample_table,
    write_protein_catalog,
    write_sample_table,
)

from conftest import make_labeled_corpus

MODEL_CONFIG = {"d_shared": 64, "tokens": 8, "heads": 8,
                "mlp_hidden": [32, 16], "max_epochs": 6, "patience": 6,
                "batch_size": 32, "seed": 0}


def make_workspace(tmp_path, schema, n=120, seed=0, out_name="out"):
    """Corpus + catalog + config on disk, ready for the pipeline."""
    records, catalog = make_labeled_corpus(schema, n, seed=seed,
                                           label_rule="text")
    # a few gaps so curation has something to impute
    records = [rec.with_feature("dls_size", UNKNOWN) if i % 10 == 0 else rec
               for i, rec in enumerate(records)]
    corpus_path = tmp_path / "corpus.tsv"
    catalog_path = tmp_path / "catalog.tsv"
    write_sample_table(records, corpus_path, schema)
    write_protein_catalog(catalog, catalog_path)
    config = {
        "paths": {"corpus": str(corpus_path), "catalog": str(catalog_path),
                  "cache": str(tmp_path / "embeddings.bin"),
                  "out_dir": str(tmp_path / out_name)},
        "split": {"seed": 7, "n_bins": 4},
        "model": MODEL_CONFIG,
        "ablation": {"features": ["core", "shape"],
                     "pairs": [["core", "shape"]], "epsilon": 0.01},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path, pipeline.load_config(config_path)


class TestConfig:
    def test_defaults_merged_under_user_values(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"split": {"seed": 99}}))
        config = pipeline.load_config(path)
        assert config["split"]["seed"] == 99
        assert config["split"]["n_bins"] == 10  # default preserved
        assert config["model"]["d_shared"] == 1024

    def test_apply_overrides_dot_paths_and_json_values(self):
        config = copy.deepcopy(pipeline.DEFAULT_CONFIG)
        pipeline.apply_overrides(config, ["split.seed=5",
                                          "provider.kind=remote",
                                          'ablation.pairs=[["core","shape"]]'])
        assert config["split"]["seed"] == 5
        assert config["provider"]["kind"] == "remote"
        assert config["ablation"]["pairs"] == [["core", "shape"]]

    def test_overrides_leave_the_defaults_alone(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        pipeline.apply_overrides(pipeline.load_config(path), ["split.seed=3"])
        assert pipeline.load_config(path)["split"]["seed"] == 7

    def test_apply_overrides_rejects_missing_equals(self):
        with pytest.raises(ValueError):
            pipeline.apply_overrides({}, ["no-equals-sign"])


class TestRunManifest:
    def test_records_stage_with_digests(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        artifact = out / "a.txt"
        artifact.write_text("hello")
        manifest = pipeline.RunManifest({"k": 1}, str(out))
        manifest.record_stage("demo", [], [str(artifact)], 0.1)
        saved = json.loads((out / "run_manifest.json").read_text())
        assert saved["run_id"] == manifest.run_id
        assert saved["stages"][0]["stage"] == "demo"
        assert saved["stages"][0]["outputs"][str(artifact)] == \
            pipeline.digest_bytes(b"hello")

    def test_failed_write_keeps_previous_manifest(self, tmp_path,
                                                  monkeypatch):
        manifest = pipeline.RunManifest({"k": 1}, str(tmp_path))
        manifest.record_stage("first", [], [], 0.1)

        def crash(src, dst):
            raise OSError("crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crash"):
            manifest.record_stage("second", [], [], 0.2)
        saved = json.loads((tmp_path / "run_manifest.json").read_text())
        assert [s["stage"] for s in saved["stages"]] == ["first"]

    def test_file_hashed_once_per_version(self, tmp_path, monkeypatch):
        artifact = tmp_path / "a.txt"
        artifact.write_text("one")
        hashed = []
        digest_file = pipeline.digest_file
        monkeypatch.setattr(pipeline, "digest_file",
                            lambda p: hashed.append(p) or digest_file(p))
        manifest = pipeline.RunManifest({"k": 1}, str(tmp_path))
        manifest.record_stage("write", [], [str(artifact)], 0.1)
        manifest.record_stage("read", [str(artifact)], [], 0.1)
        assert hashed == [str(artifact)]
        artifact.write_text("three")
        manifest.record_stage("reread", [str(artifact)], [], 0.1)
        assert len(hashed) == 2
        saved = json.loads((tmp_path / "run_manifest.json").read_text())
        assert saved["stages"][2]["inputs"][str(artifact)] == \
            pipeline.digest_bytes(b"three")

    def test_run_id_depends_only_on_config(self, tmp_path):
        a = pipeline.RunManifest({"x": 1}, str(tmp_path))
        b = pipeline.RunManifest({"x": 1}, str(tmp_path))
        c = pipeline.RunManifest({"x": 2}, str(tmp_path))
        assert a.run_id == b.run_id != c.run_id


class TestFigureData:
    def test_rpa_bin_table_columns(self):
        rng = np.random.default_rng(0)
        rpas = np.concatenate([np.zeros(20), rng.uniform(1e-4, 1e-2, 80)])
        labels = (rpas > 1e-5).astype(float)
        scores = np.clip(labels + 0.1 * rng.standard_normal(100), 0.01, 0.99)
        rows = pipeline.rpa_bin_table(scores, labels, rpas)
        assert sum(r["count"] for r in rows) == 100
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert 0.0 <= row["mean_probability"] <= 1.0
            assert row["rpa_low"] < row["rpa_high"]


class TestEndToEnd:
    def test_run_all_produces_artifacts(self, tmp_path, schema):
        _, config = make_workspace(tmp_path, schema)
        artifacts = pipeline.run_end_to_end(config)
        assert set(artifacts) == set(pipeline.RUN_ALL_ORDER)
        out = config["paths"]["out_dir"]
        for name in ("curated.tsv", "validation.json", "split_manifest.tsv",
                     "boxcox.json", "embed_stats.json",
                     "model_classification.ckpt",
                     "model_classification.ckpt.bin", "metrics.json",
                     "fig_metrics.csv", "importance.json",
                     "fig_importance.csv", "run_manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name
        manifest = json.loads(
            open(os.path.join(out, "run_manifest.json")).read())
        assert [s["stage"] for s in manifest["stages"]] == \
            list(pipeline.RUN_ALL_ORDER)

    def test_run_all_parses_each_sample_table_once(self, tmp_path, schema,
                                                   monkeypatch):
        # counted inside schema: a full parse splits the file's rows, a
        # parse of content already kept does not, and curate keeps the
        # records it writes to curated.tsv
        parsed = []
        split_tsv = schema_module._split_tsv

        def counting(raw, path, required):
            if required == schema_module.BOOKKEEPING_COLUMNS:
                parsed.append(os.path.basename(path))
            return split_tsv(raw, path, required)

        monkeypatch.setattr(schema_module, "_split_tsv", counting)
        monkeypatch.setattr(schema_module, "_last_parse", (None, []))
        _, config = make_workspace(tmp_path, schema)
        pipeline.run_end_to_end(config)
        assert parsed == ["corpus.tsv"]

    def test_run_all_renders_and_fetches_each_distinct_input_once(
            self, tmp_path, schema, monkeypatch):
        # per stage: every store get's key and every rendered prompt
        from nanocorona import cache, prompts
        stage, gets, renders = [None], {}, {}
        run_stage, get = pipeline.run_stage, cache.EmbeddingStore.get
        render = prompts.render_prompt

        def staged(name, *args):
            stage[0] = name
            return run_stage(name, *args)

        def counting_get(store, key):
            gets.setdefault(stage[0], []).append(key)
            return get(store, key)

        def counting_render(*args):
            text = render(*args)
            renders.setdefault(stage[0], []).append(text.text)
            return text

        monkeypatch.setattr(pipeline, "run_stage", staged)
        monkeypatch.setattr(cache.EmbeddingStore, "get", counting_get)
        monkeypatch.setattr(prompts, "render_prompt", counting_render)
        _, config = make_workspace(tmp_path, schema)
        pipeline.run_end_to_end(config)
        _, catalog, _, views, _ = pipeline.load_views(config)

        def keys(records):
            return {prompts.canonical_hash(text) for text in (
                *(catalog.lookup(r.protein_accession).sequence
                  for r in records),
                *(render(r, schema).text for r in records))}

        # eval encodes each split once for both tasks (the regression view
        # is a subset of the classification one), and renders a prompt
        # once in the stage however many splits hold it
        split_records = [views[("classification", split)].records
                         for split in pipeline.SPLITS]
        assert len(renders["eval"]) == len(set(renders["eval"])) == len(
            {render(r, schema).text for records in split_records
             for r in records})
        expected = Counter(key for records in split_records
                           for key in keys(records))
        assert Counter(gets["eval"]) == expected
        # ablate fetches each distinct test-view sequence once, and each
        # mask renders only prompts not rendered before in the stage
        test_view = views[("classification", "test")].records
        sequences = {prompts.canonical_hash(
            catalog.lookup(r.protein_accession).sequence) for r in test_view}
        assert Counter(key for key in gets["ablate"] if key in sequences) \
            == Counter(sequences)
        assert len(renders["ablate"]) == len(set(renders["ablate"]))

    def test_rerun_is_digest_identical(self, tmp_path, schema):
        _, config = make_workspace(tmp_path, schema, out_name="out1")
        pipeline.run_end_to_end(config)
        config2 = json.loads(json.dumps(config))
        config2["paths"]["out_dir"] = str(tmp_path / "out2")
        pipeline.run_end_to_end(config2)
        for name in ("curated.tsv", "split_manifest.tsv", "boxcox.json",
                     "model_classification.ckpt.bin", "metrics.json",
                     "importance.json"):
            d1 = pipeline.digest_file(os.path.join(
                config["paths"]["out_dir"], name))
            d2 = pipeline.digest_file(os.path.join(
                config2["paths"]["out_dir"], name))
            assert d1 == d2, name

    def test_curated_table_holds_only_valid_records(self, tmp_path, schema):
        _, config = make_workspace(tmp_path, schema)
        catalog_path = config["paths"]["catalog"]
        catalog = load_protein_catalog(catalog_path)
        dropped = catalog.accessions()[0]
        kept = ProteinCatalog()
        for acc in catalog.accessions()[1:]:
            kept.add(catalog.lookup(acc))
        write_protein_catalog(kept, catalog_path)
        manifest = pipeline.RunManifest(config, config["paths"]["out_dir"])
        for name in ("curate", "split", "embed", "train"):
            pipeline.run_stage(name, config, manifest)
        out = config["paths"]["out_dir"]
        curated = parse_sample_table(os.path.join(out, "curated.tsv"), schema)
        with open(os.path.join(out, "validation.json")) as fh:
            validation = json.load(fh)
        flagged = {sample_id for sample_id, code, _ in validation["issues"]
                   if code == "MISSING_PROTEIN"}
        assert flagged and len(curated) == validation["valid"]
        assert all(rec.protein_accession != dropped for rec in curated)
        assert not any(name.endswith(".tmp") for name in os.listdir(out))

    def test_run_all_on_five_rows_is_an_empty_input_error(self, tmp_path,
                                                          schema):
        _, config = make_workspace(tmp_path, schema, n=5)
        with pytest.raises(StageError, match="view has no rows") as info:
            pipeline.run_end_to_end(config)
        assert info.value.stage == "train"
        assert isinstance(info.value.__cause__, EmptyInputError)
        assert "classification" in str(info.value.__cause__)

    def test_stage_failure_names_stage(self, tmp_path, schema):
        _, config = make_workspace(tmp_path, schema)
        manifest = pipeline.RunManifest(config, config["paths"]["out_dir"])
        # split before curate: curated.tsv does not exist yet
        with pytest.raises(StageError, match="split"):
            pipeline.run_stage("split", config, manifest)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, schema):
    """Config of a workspace run through curate, split and train."""
    _, config = make_workspace(tmp_path_factory.mktemp("trained"), schema)
    manifest = pipeline.RunManifest(config, config["paths"]["out_dir"])
    for name in ("curate", "split", "train"):
        pipeline.run_stage(name, config, manifest)
    return config


def copy_run(config, tmp_path):
    """The config with its out dir copied to tmp_path/out."""
    out = tmp_path / "out"
    shutil.copytree(config["paths"]["out_dir"], out)
    copied = json.loads(json.dumps(config))
    copied["paths"]["out_dir"] = str(out)
    return copied


AFFINITY = curation.AFFINITY_THRESHOLD


def set_split_rpas(config, schema, split, rpas):
    """Rewrite curated.tsv: the affinity records of one split get the RPA
    values of `rpas` in order (0.0, a non-affinity value, past its end)."""
    out = config["paths"]["out_dir"]
    path = os.path.join(out, "curated.tsv")
    records = parse_sample_table(path, schema)
    assignment = splits.read_split_manifest(
        os.path.join(out, "split_manifest.tsv"))
    members = {id(r) for r in splits.split_records(records, assignment,
                                                   split)}
    values = iter(rpas)
    rewritten = [replace(r, rpa=next(values, 0.0))
                 if id(r) in members and (r.rpa or 0.0) > AFFINITY else r
                 for r in records]
    write_sample_table(rewritten, path, schema)


class TestStageInputs:
    def test_eval_and_ablate_record_what_they_read(self, trained, tmp_path):
        config = copy_run(trained, tmp_path)
        out = config["paths"]["out_dir"]
        manifest = pipeline.RunManifest(config, out)
        for name in ("eval", "ablate"):
            pipeline.run_stage(name, config, manifest)
        saved = json.loads(open(os.path.join(out,
                                             "run_manifest.json")).read())
        inputs = {s["stage"]: s["inputs"] for s in saved["stages"]}
        views = {"catalog.tsv", "curated.tsv", "split_manifest.tsv",
                 "boxcox.json"}
        classifier = {"model_classification.ckpt",
                      "model_classification.ckpt.bin"}
        regressor = {"model_regression.ckpt", "model_regression.ckpt.bin"}
        assert {os.path.basename(p) for p in inputs["eval"]} == \
            views | classifier | regressor
        assert {os.path.basename(p) for p in inputs["ablate"]} == \
            views | classifier
        weights = os.path.join(out, "model_classification.ckpt.bin")
        assert inputs["ablate"][weights] == pipeline.digest_file(weights)

    def test_curate_and_split_record_what_they_read(self, tmp_path, schema):
        _, config = make_workspace(tmp_path, schema)
        table = tmp_path / "align.tsv"
        table.write_text("feature_id\traw\tcanonical\tderived_category\n")
        config["paths"]["alignment_table"] = str(table)
        manifest = pipeline.RunManifest(config, config["paths"]["out_dir"])
        for name in ("curate", "split"):
            pipeline.run_stage(name, config, manifest)
        inputs = {s["stage"]: {os.path.basename(p) for p in s["inputs"]}
                  for s in manifest.stages}
        assert inputs["curate"] == {"corpus.tsv", "catalog.tsv", "align.tsv"}
        assert inputs["split"] == {"curated.tsv"}


class TestSharedInitialDraw:
    """Both task models start from one init_params draw."""

    def _train(self, config):
        manifest = pipeline.RunManifest(config, config["paths"]["out_dir"])
        pipeline.run_stage("train", config, manifest)
        out = config["paths"]["out_dir"]
        return {task: open(os.path.join(out, f"model_{task}.ckpt.bin"),
                           "rb").read()
                for task in ("classification", "regression")}

    def test_train_draws_once_for_both_tasks(self, trained, tmp_path,
                                             monkeypatch):
        config = copy_run(trained, tmp_path)
        draws = []
        init_params = model.init_params
        monkeypatch.setattr(model, "init_params",
                            lambda cfg: draws.append(cfg.task)
                            or init_params(cfg))
        self._train(config)
        assert draws == ["classification"]

    def test_each_checkpoint_matches_one_trained_from_a_fresh_draw(
            self, trained, tmp_path, monkeypatch):
        shared = self._train(copy_run(trained, tmp_path / "shared"))
        for task in ("classification", "regression"):
            # a task trained alone trains on a draw of its own
            monkeypatch.setattr(pipeline, "_tasks", lambda views: [task])
            alone = self._train(copy_run(trained, tmp_path / task))
            assert alone[task] == shared[task], task


class TestDegenerateViews:
    """A regression view eval cannot score, or train cannot fit or select
    on, is skipped instead of failing the stage."""

    def _eval(self, config):
        manifest = pipeline.RunManifest(config, config["paths"]["out_dir"])
        pipeline.run_stage("eval", config, manifest)
        return json.loads(open(os.path.join(config["paths"]["out_dir"],
                                            "metrics.json")).read())

    def test_eval_skips_one_row_regression_view(self, trained, tmp_path,
                                                schema):
        config = copy_run(trained, tmp_path)
        set_split_rpas(config, schema, "test", [5e-3])
        results = self._eval(config)
        assert "regression/test" not in results
        assert {"classification/test", "regression/train"} <= set(results)

    def test_eval_skips_constant_target_regression_view(self, trained,
                                                        tmp_path, schema):
        config = copy_run(trained, tmp_path)
        set_split_rpas(config, schema, "test", [5e-3] * 1000)
        results = self._eval(config)
        assert "regression/test" not in results
        assert {"classification/test", "regression/train"} <= set(results)

    def test_train_skips_regression_without_val_rows(self, trained,
                                                     tmp_path, schema):
        config = copy_run(trained, tmp_path)
        out = config["paths"]["out_dir"]
        for name in os.listdir(out):
            if name.startswith(("model_", "history_")):
                os.remove(os.path.join(out, name))
        set_split_rpas(config, schema, "val", [])
        manifest = pipeline.RunManifest(config, out)
        outputs = pipeline.run_stage("train", config, manifest)
        assert [os.path.basename(p) for p in outputs] == [
            "model_classification.ckpt", "model_classification.ckpt.bin",
            "history_classification.json"]
        assert not os.path.exists(os.path.join(out, "model_regression.ckpt"))
        results = self._eval(config)
        assert not any(key.startswith("regression/") for key in results)

    def test_train_skip_removes_stale_regression_model(self, trained,
                                                       tmp_path, schema):
        config = copy_run(trained, tmp_path)
        out = config["paths"]["out_dir"]
        stale = ["model_regression.ckpt", "model_regression.ckpt.bin",
                 "history_regression.json"]
        assert all(os.path.exists(os.path.join(out, n)) for n in stale)
        set_split_rpas(config, schema, "val", [])
        manifest = pipeline.RunManifest(config, out)
        pipeline.run_stage("train", config, manifest)
        assert not any(os.path.exists(os.path.join(out, n)) for n in stale)
        results = self._eval(config)
        assert "classification/test" in results
        assert not any(key.startswith("regression/") for key in results)


class TestCli:
    def _invoke(self, args):
        return CliRunner().invoke(main, args)

    def test_usage_error_without_config(self):
        result = self._invoke(["curate"])
        assert result.exit_code == 2

    def test_unknown_subcommand(self):
        result = self._invoke(["transmogrify"])
        assert result.exit_code == 2

    def test_missing_config_file(self):
        result = self._invoke(["curate", "--config", "/nonexistent.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("override", ["foo", "split.seed.x=1"])
    def test_bad_set_is_a_usage_error(self, tmp_path, schema, override):
        config_path, _ = make_workspace(tmp_path, schema)
        result = self._invoke(["curate", "--config", str(config_path),
                               "--set", override])
        assert result.exit_code == 2, result.output
        assert "bad config or --set" in result.output

    @pytest.mark.parametrize("text", ["{", "[1]"])
    def test_bad_config_file_is_a_usage_error(self, tmp_path, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        result = self._invoke(["curate", "--config", str(config_path)])
        assert result.exit_code == 2, result.output
        assert "bad config or --set" in result.output

    @pytest.mark.parametrize("user, override, path", [
        ({"ablations": {}}, None, "ablations"),
        ({"ablation": {"feature": ["core"]}}, None, "ablation.feature"),
        ({"model": {"max_epoch": 5}}, None, "model.max_epoch"),
        ({"split": 5}, None, "split"),
        ({}, "split.sed=3", "split.sed"),
        ({}, "curation.local_fill=false", "curation"),
        *(({"curation": {key: None}}, None, "curation")
          for key in ("make_filled_variants", "local_fill", "top_n_scaling",
                      "global_fill", "impute_features", "grouping_keys")),
        *(({"model": {key: 1}}, None, f"model.{key}")
          for key in ("task", "protein_dim", "text_dim")),
    ])
    def test_unknown_config_key_is_a_usage_error(self, tmp_path, user,
                                                 override, path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(user))
        args = ["curate", "--config", str(config_path)]
        result = self._invoke(args + ["--set", override] if override
                              else args)
        assert result.exit_code == 2, result.output
        assert f"bad config or --set: {path}: " in result.output

    @pytest.mark.parametrize("user, override, path", [
        ({"model": {"tokens": 7}}, None, "model"),
        ({"model": {"tokens": 0}}, None, "model"),
        ({"model": {"d_shared": "wide"}}, None, "model"),
        ({}, "model.heads=3", "model"),
        ({"ablation": {"features": ["core", "colour"]}}, None,
         "ablation.features"),
        ({"ablation": {"features": ["core"], "pairs": [["core", "shape"]]}},
         None, "ablation.pairs"),
        ({"ablation": {"pairs": [["core", "core"]]}}, None, "ablation.pairs"),
        ({"ablation": {"pairs": [["core"]]}}, None, "ablation.pairs"),
        ({}, "ablation.pairs=core", "ablation.pairs"),
        # a file value is checked before any --set could mend it
        ({"model": {"tokens": 7}}, "model.tokens=8", "model"),
        ({"model": {"heads": 0}}, None, "model"),
        ({"model": {"modality": "both"}}, None, "model"),
        ({}, "provider.kind=foo", "provider.kind"),
        ({}, "provider.seed=x", "provider.seed"),
        ({}, "provider.endpoint=3", "provider.endpoint"),
        ({}, "split.seed=x", "split.seed"),
        ({}, "split.seed=true", "split.seed"),
        ({}, "split.n_bins=-3", "split.n_bins"),
        ({}, "ablation.epsilon=x", "ablation.epsilon"),
        ({}, "ablation.epsilon=-0.1", "ablation.epsilon"),
        ({}, "model.seed=x", "model: seed"),
        ({}, "model.learning_rate=x", "model: learning_rate"),
        ({}, "model.patience=x", "model: patience"),
        ({}, "model.max_epochs=0", "model"),
        ({}, "paths.corpus=3", "paths.corpus"),
        ({}, "paths.alignment_table=3", "paths.alignment_table"),
        ({}, "model.learning_rate=-1", "model: learning_rate"),
        ({}, "model.learning_rate=0", "model: learning_rate"),
        ({}, "model.learning_rate=NaN", "model: learning_rate"),
        ({}, "model.learning_rate=Infinity", "model: learning_rate"),
        ({}, "model.patience=-5", "model: patience"),
        ({}, "model.patience=0", "model: patience"),
        ({}, "model.mlp_hidden=[0]", "model: mlp_hidden"),
        ({}, "model.mlp_hidden=[512,-1]", "model: mlp_hidden"),
        ({}, "model.d_shared=0", "model: d_shared"),
    ])
    def test_bad_config_value_is_a_usage_error(self, tmp_path, user,
                                               override, path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(user))
        args = ["curate", "--config", str(config_path)]
        result = self._invoke(args + ["--set", override] if override
                              else args)
        assert result.exit_code == 2, result.output
        assert f"bad config or --set: {path}: " in result.output

    def test_flags_override_config_and_set(self, tmp_path, schema,
                                           monkeypatch):
        config_path, _ = make_workspace(tmp_path, schema)
        monkeypatch.chdir(tmp_path)  # the command makes the relative --out
        seen = []
        monkeypatch.setattr(pipeline, "run_stage",
                            lambda name, cfg, manifest: seen.append(cfg) or [])
        result = self._invoke([
            "curate", "--config", str(config_path), "--set", "model.seed=4",
            "--out", "123", "--seed", "0", "--provider", "remote",
            "--endpoint", "http://127.0.0.1:1"])
        assert result.exit_code == 0, result.output
        [cfg] = seen
        assert cfg["paths"]["out_dir"] == "123"
        assert cfg["split"]["seed"] == cfg["model"]["seed"] == 0
        assert cfg["provider"] == {"kind": "remote", "seed": 0,
                                   "endpoint": "http://127.0.0.1:1"}

    def test_curate_stage_succeeds(self, tmp_path, schema):
        config_path, config = make_workspace(tmp_path, schema)
        result = self._invoke(["curate", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        assert os.path.exists(os.path.join(config["paths"]["out_dir"],
                                           "curated.tsv"))

    def test_runtime_error_exits_one(self, tmp_path, schema):
        config_path, _ = make_workspace(tmp_path, schema)
        result = self._invoke(["split", "--config", str(config_path)])
        assert result.exit_code == 1
        assert "split" in result.output

    def test_set_override_changes_split(self, tmp_path, schema):
        config_path, config = make_workspace(tmp_path, schema)
        out = config["paths"]["out_dir"]
        assert self._invoke(["curate", "--config",
                             str(config_path)]).exit_code == 0
        assert self._invoke(["split", "--config",
                             str(config_path)]).exit_code == 0
        first = open(os.path.join(out, "split_manifest.tsv")).read()
        assert self._invoke(["split", "--config", str(config_path),
                             "--set", "split.seed=99"]).exit_code == 0
        second = open(os.path.join(out, "split_manifest.tsv")).read()
        assert first != second

    def test_run_all_then_predict_and_finetune(self, tmp_path, schema):
        config_path, config = make_workspace(tmp_path, schema)
        out = config["paths"]["out_dir"]
        result = self._invoke(["run-all", "--config", str(config_path)])
        assert result.exit_code == 0, result.output

        ckpt = os.path.join(out, "model_classification.ckpt")
        result = self._invoke(["predict", "--config", str(config_path),
                               "--checkpoint", ckpt,
                               "--data", config["paths"]["corpus"]])
        assert result.exit_code == 0, result.output
        lines = open(os.path.join(out, "predictions.tsv")).read().splitlines()
        assert lines[0] == "sample_id\tprediction"
        assert len(lines) == 121  # header + every input row, order preserved
        for line in lines[1:]:
            _, score = line.split("\t")
            assert 0.0 < float(score) < 1.0

        result = self._invoke(["finetune", "--config", str(config_path),
                               "--checkpoint", ckpt,
                               "--data", config["paths"]["corpus"]])
        assert result.exit_code == 0, result.output
        assert os.path.exists(os.path.join(out, "model_finetuned.ckpt"))

    def test_predict_on_header_only_table(self, trained, tmp_path, schema):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        data = tmp_path / "header_only.tsv"
        write_sample_table([], data, schema)
        out = config["paths"]["out_dir"]
        result = self._invoke(["predict", "--config", str(config_path),
                               "--checkpoint",
                               os.path.join(out, "model_classification.ckpt"),
                               "--data", str(data)])
        assert result.exit_code == 0, result.output
        assert open(os.path.join(out, "predictions.tsv")).read() == \
            "sample_id\tprediction\n"

    def test_finetune_and_predict_make_a_new_out_dir(self, trained, tmp_path):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        ckpt = os.path.join(config["paths"]["out_dir"],
                            "model_classification.ckpt")
        for command, written in (("finetune", "model_finetuned.ckpt"),
                                 ("predict", "predictions.tsv")):
            out = tmp_path / command / "nested"
            result = self._invoke([command, "--config", str(config_path),
                                   "--checkpoint", ckpt,
                                   "--data", config["paths"]["corpus"],
                                   "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert (out / written).exists()

    def test_finetune_scores_its_held_out_rows(self, trained, tmp_path,
                                               schema):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = config["paths"]["out_dir"]
        result = self._invoke(["finetune", "--config", str(config_path),
                               "--checkpoint",
                               os.path.join(out, "model_classification.ckpt"),
                               "--data", config["paths"]["corpus"]])
        assert result.exit_code == 0, result.output
        path = os.path.join(out, "metrics_finetuned.json")
        assert path in result.output.splitlines()
        with open(path, encoding="utf-8") as fh:
            metrics = json.load(fh)
        n = len(splits.classification_view(
            parse_sample_table(config["paths"]["corpus"], schema)))
        held_out = n - round(0.70 * n) - round(0.15 * n)
        assert metrics["n"] == held_out > 0
        assert metrics["metric_kind"] == "F1"
        assert math.isfinite(metrics["value"])

    def test_predict_names_a_non_utf8_byte(self, trained, tmp_path):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = config["paths"]["out_dir"]
        data = tmp_path / "bad.tsv"
        text = open(os.path.join(out, "curated.tsv"), "rb").read()
        data.write_bytes(text.replace(b"\n", b"\n\xff", 1))
        result = self._invoke(["predict", "--config", str(config_path),
                               "--checkpoint",
                               os.path.join(out, "model_classification.ckpt"),
                               "--data", str(data)])
        assert result.exit_code == 1
        assert f"E_ENCODING: {data}: line 2: byte 0xff is not UTF-8" \
            in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_predict_without_the_payload_file_is_corrupt(self, trained,
                                                         tmp_path):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        ckpt = os.path.join(config["paths"]["out_dir"],
                            "model_classification.ckpt")
        os.remove(ckpt + ".bin")
        result = self._invoke(["predict", "--config", str(config_path),
                               "--checkpoint", ckpt,
                               "--data", config["paths"]["corpus"]])
        assert result.exit_code == 1
        assert f"E_CORRUPT: {ckpt}.bin: payload file is missing" \
            in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_finetune_on_two_rows_is_an_empty_input_error(self, trained,
                                                          tmp_path, schema):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = config["paths"]["out_dir"]
        data = tmp_path / "two_rows.tsv"
        write_sample_table(
            parse_sample_table(os.path.join(out, "curated.tsv"), schema)[:2],
            data, schema)
        result = self._invoke(["finetune", "--config", str(config_path),
                               "--checkpoint",
                               os.path.join(out, "model_classification.ckpt"),
                               "--data", str(data)])
        assert result.exit_code == 1
        assert "E_EMPTY: finetune needs train and val rows: 2 rows give " \
            "1 train, 0 val" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_predict_on_an_infinite_number_is_a_bad_number(self, trained,
                                                          tmp_path, schema):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = config["paths"]["out_dir"]
        records = parse_sample_table(os.path.join(out, "curated.tsv"), schema)
        records[0] = records[0].with_feature("zeta_potential",
                                             numeric(float("inf"), "mV"))
        data = tmp_path / "inf.tsv"
        write_sample_table(records, data, schema)
        result = self._invoke(["predict", "--config", str(config_path),
                               "--checkpoint",
                               os.path.join(out, "model_classification.ckpt"),
                               "--data", str(data)])
        assert result.exit_code == 1
        assert "E_BAD_NUMBER: line 2: zeta_potential 'inf' is not a finite " \
            "number" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_finetune_follows_a_regression_checkpoint(self, trained,
                                                      tmp_path, schema,
                                                      monkeypatch):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = config["paths"]["out_dir"]
        seen = []
        real = model.finetune
        monkeypatch.setattr(model, "finetune", lambda base, data, cfg:
                            seen.append(data[2]) or real(base, data, cfg))
        curated = os.path.join(out, "curated.tsv")
        result = self._invoke(["finetune", "--config", str(config_path),
                               "--checkpoint",
                               os.path.join(out, "model_regression.ckpt"),
                               "--data", curated])
        assert result.exit_code == 0, result.output
        view = splits.regression_view(parse_sample_table(curated, schema),
                                      pipeline.load_transform(config))
        [labels] = seen
        assert np.array_equal(labels, view.labels)
        header = json.load(open(os.path.join(out, "model_finetuned.ckpt")))
        assert header["config"]["task"] == "regression"
        history = json.load(open(os.path.join(out, "history_finetuned.json")))
        trained_history = json.load(open(os.path.join(
            out, "history_regression.json")))
        assert set(history) == set(trained_history)
        assert len(history["val_metric"]) == len(history["train_loss"]) >= 1

    @pytest.mark.parametrize("boxcox", [None, {"lambda": None,
                                               "fitted_on": "train"}],
                             ids=["missing", "null_lambda"])
    def test_regression_finetune_without_a_transform_is_no_data(
            self, trained, tmp_path, boxcox):
        config = copy_run(trained, tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = config["paths"]["out_dir"]
        path = os.path.join(out, "boxcox.json")
        if boxcox is None:
            os.remove(path)
        else:
            with open(path, "w") as fh:
                json.dump(boxcox, fh)
        result = self._invoke(["finetune", "--config", str(config_path),
                               "--checkpoint",
                               os.path.join(out, "model_regression.ckpt"),
                               "--data", os.path.join(out, "curated.tsv")])
        assert result.exit_code == 1
        assert "E_NO_DATA: " in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert not os.path.exists(os.path.join(out, "model_finetuned.ckpt"))
