"""End-to-end pipeline: curate, split, embed, train, evaluate, ablate,
finetune, predict — driven by one JSON config with chained run manifests."""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import json
import os
import time
from collections.abc import Callable
from dataclasses import asdict, fields, replace

import numpy as np

from . import curation, model, splits
from .boxcox import BoxCoxTransform, fit_boxcox
from .cache import CachedProvider, EmbeddingStore
from .encode import ProviderBundle, encode_view, protein_sequence
from .errors import NoDataError, StageError
from .importance import (
    ablate_feature,
    ablate_pair,
    evaluate_view,
    importance_report,
    write_importance_report,
)
from .metrics import classification_metrics, regression_metrics
from .providers import (
    BATCH,
    PROTEIN_DIM,
    TEXT_DIM,
    EmbeddingProvider,
    PrecomputedProvider,
    SyntheticProteinProvider,
    SyntheticTextProvider,
)
from .remote import RemoteProvider
from .schema import (
    default_schema,
    keep_parse,
    load_protein_catalog,
    parse_sample_table,
    validate_corpus,
    write_json_atomic,
    write_sample_table,
    write_table,
)

DEFAULT_CONFIG = {
    "paths": {
        "corpus": "corpus.tsv",
        "catalog": "catalog.tsv",
        "alignment_table": None,
        "cache": "embeddings.bin",
        "out_dir": "out",
    },
    "split": {"seed": 7, "n_bins": 10},
    "provider": {"kind": "synthetic", "seed": 0, "endpoint": None},
    # every ModelConfig field but those stage_train sets itself: the task
    # and each provider's output width
    "model": {f.name: f.default for f in fields(model.ModelConfig)
              if f.name not in ("task", "protein_dim", "text_dim")},
    "ablation": {"features": [], "pairs": [], "epsilon": 0.01},
}


def _deep_update(base: dict, override) -> dict:
    """A copy of base with override merged in.  DEFAULT_CONFIG is the
    schema: each key of override must be a key of base, holding an object
    exactly where base holds one.  Otherwise ValueError names the key's
    dotted path, as in "ablation.feature: not a config key"."""
    if not isinstance(override, dict):
        raise ValueError("a config is a JSON object")
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError(f"{key}: not a config key")
        if isinstance(value, dict) != isinstance(base[key], dict):
            expected = "an object" if isinstance(base[key], dict) \
                else "a value"
            raise ValueError(f"{key}: expected {expected}")
        if isinstance(value, dict):
            try:
                value = _deep_update(base[key], value)
            except ValueError as exc:
                raise ValueError(f"{key}.{exc}") from None
        out[key] = value
    return out


PROVIDER_KINDS = ("synthetic", "precomputed", "remote")


def _check_values(config: dict) -> dict:
    """config, once each value outside the model section fits its default
    (`model.fits_default`) and its range, the model section builds a
    ModelConfig, and the ablation names only schema features, each pair
    two different ablated ones; otherwise ValueError names the key, or the
    model section."""
    for section in ("paths", "split", "provider", "ablation"):
        for key, default in DEFAULT_CONFIG[section].items():
            value = config[section][key]
            if not model.fits_default(value, default):
                raise ValueError(f"{section}.{key}: {value!r} does not have "
                                 f"the type of its default {default!r}")
    if config["split"]["n_bins"] < 1:
        raise ValueError("split.n_bins: must be >= 1")
    if not config["ablation"]["epsilon"] >= 0:  # nan included
        raise ValueError("ablation.epsilon: must be >= 0")
    if config["provider"]["kind"] not in PROVIDER_KINDS:
        raise ValueError(f"provider.kind: must be one of {PROVIDER_KINDS}")
    try:
        model.ModelConfig(**config["model"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model: {exc}") from None
    feature_ids = default_schema().feature_ids
    features, pairs = (config["ablation"][k] for k in ("features", "pairs"))
    if any(f not in feature_ids for f in features):
        raise ValueError(f"ablation.features: {features!r} is not a list "
                         "of schema features")
    ablated = features or feature_ids
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and pair[0] != pair[1] and all(f in ablated for f in pair)):
            raise ValueError(f"ablation.pairs: {pair!r} is not two different "
                             "ablated features")
    return config


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        user = json.load(fh)
    return _check_values(_deep_update(DEFAULT_CONFIG, user))


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    """Merge repeated KEY.PATH=VALUE items into config in place, checked as
    a config file is; values parse as JSON when possible, else as
    strings."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        config.update(_deep_update(config, value))
    return _check_values(config)


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Per-run record: config digest, inputs, stage timings, output digests."""

    def __init__(self, config: dict, out_dir: str):
        self.config_digest = digest_bytes(
            json.dumps(config, sort_keys=True).encode())
        self.run_id = self.config_digest[:16]
        self.stages: list[dict] = []
        self.path = os.path.join(out_dir, "run_manifest.json")
        self._digests: dict[tuple, str] = {}

    def _digest(self, path: str) -> str:
        """digest_file(path), hashed once per version of the file in this
        run, a version being its (size, mtime_ns): a checkpoint train wrote
        is not hashed again as an input of eval and ablate."""
        st = os.stat(path)
        key = (path, st.st_size, st.st_mtime_ns)
        if key not in self._digests:
            self._digests[key] = digest_file(path)
        return self._digests[key]

    def record_stage(self, name: str, inputs: list[str], outputs: list[str],
                     elapsed: float) -> None:
        self.stages.append({
            "stage": name,
            "inputs": {p: self._digest(p) for p in inputs
                       if os.path.exists(p)},
            "outputs": {p: self._digest(p) for p in outputs},
            "elapsed_seconds": elapsed,
        })
        write_json_atomic(self.path, {"run_id": self.run_id,
                                      "config_digest": self.config_digest,
                                      "stages": self.stages},
                          indent=1, sort_keys=True)


def text_encoder(config: dict) -> EmbeddingProvider | None:
    """The inner text encoder that build_providers wraps in a stage's store;
    None for precomputed vectors, which are read from that store itself."""
    pcfg = config["provider"]
    if pcfg["kind"] == "synthetic":
        return SyntheticTextProvider(pcfg["seed"])
    if pcfg["kind"] == "remote":
        return RemoteProvider(pcfg["endpoint"], "text", TEXT_DIM)
    return None


def build_providers(config: dict,
                    text: EmbeddingProvider | None = None) -> ProviderBundle:
    """A stage's providers, each reading and filling one store.  `text` is
    the inner text encoder to wrap, `text_encoder(config)` when None."""
    pcfg = config["provider"]
    store = EmbeddingStore(config["paths"]["cache"])
    kind = pcfg["kind"]
    if kind == "precomputed":
        return ProviderBundle(
            protein=PrecomputedProvider(store, "protein", PROTEIN_DIM),
            text=PrecomputedProvider(store, "text", TEXT_DIM))
    if kind == "synthetic":
        protein = SyntheticProteinProvider(pcfg["seed"])
    else:  # "remote"
        protein = RemoteProvider(pcfg["endpoint"], "protein", PROTEIN_DIM)
    if text is None:
        text = text_encoder(config)
    return ProviderBundle(protein=CachedProvider(protein, store),
                          text=CachedProvider(text, store))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _out(config: dict, name: str) -> str:
    return os.path.join(config["paths"]["out_dir"], name)


def make_filled_variants(records, schema):
    """Imputed copies of raw records that have missing features.

    The copy shares its origin_id with the raw record so splitting keeps the
    pair together.
    """
    incomplete = [rec for rec in records
                  if any(v.is_unknown for v in rec.features.values())]
    if not incomplete:
        return []
    variants = [replace(rec, sample_id=rec.sample_id + "::filled",
                        is_filled_variant=True)
                for rec in incomplete]
    for fid in curation.IMPUTE_FEATURES:
        try:
            variants = curation.impute_numeric_weighted(
                records + variants, fid, curation.GROUPING_KEYS)[len(records):]
        except NoDataError:
            continue
    variants = curation.impute_protocol_defaults(records + variants,
                                                 schema)[len(records):]
    return variants


def stage_curate(config: dict) -> list[str]:
    """Align (when a table is configured), zero fill each study, then the
    corpus, and add an imputed variant of each record missing a feature.
    curated.tsv holds the records validation passes; validation.json lists
    every issue."""
    paths = config["paths"]
    schema = default_schema()
    records = parse_sample_table(paths["corpus"], schema)
    catalog = load_protein_catalog(paths["catalog"])
    if paths["alignment_table"]:
        table = curation.load_alignment_table(paths["alignment_table"])
        records = curation.apply_alignment(records, table, schema)
    by_study: dict[str, list] = {}
    for rec in records:
        by_study.setdefault(rec.study_id, []).append(rec)
    curated = []
    for study_id in sorted(by_study):
        curated.extend(curation.local_fill(by_study[study_id]))
    curated = curation.global_fill(curated)
    curated = curated + make_filled_variants(curated, schema)
    report = validate_corpus(curated, catalog)
    flagged = {issue.sample_id for issue in report.issues}
    curated_path = _out(config, "curated.tsv")
    curated = [r for r in curated if r.sample_id not in flagged]
    # split and later stages parse curated.tsv: give them these records
    keep_parse(write_sample_table(curated, curated_path, schema), curated,
               schema)
    validation_path = _out(config, "validation.json")
    write_json_atomic(validation_path,
                      {"total": report.total, "valid": report.valid,
                       "issues": [[i.sample_id, i.code, i.message]
                                  for i in report.issues]},
                      indent=1)
    return [curated_path, validation_path]


def stage_split(config: dict) -> list[str]:
    schema = default_schema()
    records = parse_sample_table(_out(config, "curated.tsv"), schema)
    scfg = config["split"]
    assignment = splits.assign_splits(records, scfg["seed"], scfg["n_bins"])
    manifest_path = _out(config, "split_manifest.tsv")
    splits.write_split_manifest(assignment, manifest_path)
    train_records = splits.split_records(records, assignment, "train")
    affinity = [r.rpa for r in train_records
                if r.rpa is not None and r.rpa > curation.AFFINITY_THRESHOLD]
    lam = fit_boxcox(affinity, fitted_on="train").lam if affinity else None
    transform_path = _out(config, "boxcox.json")
    write_json_atomic(transform_path, {"lambda": lam, "fitted_on": "train"},
                      indent=1)
    return [manifest_path, transform_path]


def load_encoding(config: dict, text: EmbeddingProvider | None = None):
    """(schema, catalog, providers): what encoding records needs; `text` as
    for build_providers."""
    schema = default_schema()
    catalog = load_protein_catalog(config["paths"]["catalog"])
    return schema, catalog, build_providers(config, text)


SPLITS = ("train", "val", "test")


def load_transform(config: dict) -> BoxCoxTransform | None:
    """The Box-Cox transform split wrote to boxcox.json, or None when it
    fitted none; a missing file raises E_NO_DATA."""
    path = _out(config, "boxcox.json")
    try:
        with open(path, encoding="utf-8") as fh:
            boxcox = json.load(fh)
    except FileNotFoundError:
        raise NoDataError(f"{path} is missing: run split first") from None
    return None if boxcox["lambda"] is None else BoxCoxTransform(
        lam=boxcox["lambda"], fitted_on=boxcox["fitted_on"])


def load_views(config: dict, text: EmbeddingProvider | None = None):
    """load_encoding's (schema, catalog, providers), then the curated
    corpus's (task, split) -> TaskView map and the Box-Cox transform.  The
    regression views exist only when split fitted a transform."""
    schema, catalog, providers = load_encoding(config, text)
    records = parse_sample_table(_out(config, "curated.tsv"), schema)
    assignment = splits.read_split_manifest(_out(config, "split_manifest.tsv"))
    transform = load_transform(config)
    views = {}
    for split in SPLITS:
        members = splits.split_records(records, assignment, split)
        views[("classification", split)] = splits.classification_view(members)
        if transform is not None:
            views[("regression", split)] = splits.regression_view(members,
                                                                  transform)
    return schema, catalog, providers, views, transform


def _tasks(views: dict) -> list[str]:
    return list(dict.fromkeys(task for task, _ in views))


def _scorable(view) -> bool:
    """Whether eval scores a view: it needs a row, and a regression view two
    distinct targets (R^2 is undefined otherwise)."""
    needed = 2 if view.task == "regression" else 1
    return len(np.unique(view.labels)) >= needed


def stage_embed(config: dict, text: EmbeddingProvider | None) -> list[str]:
    """Pre-encode every unique sequence and prompt into the cache, BATCH
    inputs per call; the vectors returned are dropped, so memory does not
    grow with the number of inputs."""
    schema, catalog, providers = load_encoding(config, text)
    records = parse_sample_table(_out(config, "curated.tsv"), schema)
    sequences = sorted({protein_sequence(catalog, r.protein_accession)
                        for r in records})
    prompts = sorted(providers.prompt_codes(schema).prompts(records)[0])
    for provider, inputs in ((providers.protein, sequences),
                             (providers.text, prompts)):
        for start in range(0, len(inputs), BATCH):
            provider.embed(inputs[start:start + BATCH])
    stats_path = _out(config, "embed_stats.json")
    write_json_atomic(stats_path, {"unique_sequences": len(sequences),
                                   "unique_prompts": len(prompts)}, indent=1)
    return [stats_path]


def stage_train(config: dict, text: EmbeddingProvider | None) -> list[str]:
    """Train one model per task; regression is skipped, and the files an
    earlier train wrote for it are deleted, when its train or val view is
    empty.  The initial draw reads no task, so it is drawn once: the first
    task trains on a copy of it and the last on the draw itself."""
    schema, catalog, providers, views, _ = load_views(config, text)
    tasks = []
    for task in _tasks(views):
        if task == "regression" and not (len(views[(task, "train")])
                                         and len(views[(task, "val")])):
            # eval scores every checkpoint it finds: drop an earlier train's
            for name in (f"model_{task}.ckpt", f"model_{task}.ckpt.bin",
                         f"history_{task}.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(_out(config, name))
            continue
        tasks.append(task)
    outputs, initial = [], None
    for task in tasks:
        cfg = model.ModelConfig(**config["model"], task=task,
                                protein_dim=providers.protein.dim,
                                text_dim=providers.text.dim)
        train_data, val_data = (
            encode_view(view.records, view.labels, schema, catalog,
                        providers, cfg.modality)
            for view in (views[(task, "train")], views[(task, "val")]))
        if initial is None:
            initial = model.init_params(cfg)
        blocks = initial.blocks if task == tasks[-1] \
            else initial.copy().blocks
        params, history = model.train(train_data, val_data, cfg,
                                      model.ModelParams(cfg, blocks))
        ckpt = _out(config, f"model_{task}.ckpt")
        model.save_checkpoint(params, ckpt)
        del params  # not held while the next task trains
        hist_path = _out(config, f"history_{task}.json")
        write_json_atomic(hist_path, asdict(history), indent=1)
        outputs.extend([ckpt, ckpt + ".bin", hist_path])
    return outputs


def stage_eval(config: dict, text: EmbeddingProvider | None) -> list[str]:
    """Score every trained task on every view `_scorable` accepts.  Each
    split's records are encoded once, for all the tasks that score them."""
    schema, catalog, providers, views, transform = load_views(config, text)
    trained = {task: model.load_checkpoint(_out(config, f"model_{task}.ckpt"))
               for task in _tasks(views)
               if os.path.exists(_out(config, f"model_{task}.ckpt"))}
    results = {}
    rpa_bin_rows = None
    for split in SPLITS:
        scored = [(task, views[(task, split)]) for task in trained
                  if _scorable(views[(task, split)])]
        if not scored:
            continue
        members = {id(rec): rec for _, view in scored for rec in view.records}
        row = {key: i for i, key in enumerate(members)}
        modalities = {trained[task].config.modality for task, _ in scored}
        encoded = encode_view(
            list(members.values()), None, schema, catalog, providers,
            modalities.pop() if len(modalities) == 1 else model.MODALITY_FUSED)
        for task, view in scored:
            rows = [row[id(rec)] for rec in view.records]
            scores = model.forward(trained[task], *(
                None if m is None else m.take(rows) for m in encoded[:2]))
            if task == "classification":
                results[f"{task}/{split}"] = classification_metrics(
                    scores, view.labels)
                if split == "test":
                    rpa_bin_rows = rpa_bin_table(
                        scores, view.labels, [r.rpa for r in view.records])
            else:
                results[f"{task}/{split}"] = regression_metrics(
                    scores, view.labels, transform)
    metrics_path = _out(config, "metrics.json")
    write_json_atomic(metrics_path, results, indent=1, sort_keys=True)
    metric_rows = [(*key.split("/"), name, value)
                   for key, metrics in sorted(results.items())
                   for name, value in sorted(metrics.items())]
    outputs = [metrics_path,
               write_table(_out(config, "fig_metrics.csv"),
                           ("task", "split", "metric", "value"), metric_rows,
                           sep=",")]
    if rpa_bin_rows is not None:
        outputs.append(write_table(
            _out(config, "fig_rpa_bins.csv"), RPA_BIN_COLUMNS,
            [[row[c] for c in RPA_BIN_COLUMNS] for row in rpa_bin_rows],
            sep=","))
    return outputs


def stage_ablate(config: dict, text: EmbeddingProvider | None) -> list[str]:
    schema, catalog, providers, views, _ = load_views(config, text)
    params = model.load_checkpoint(_out(config, "model_classification.ckpt"))
    view = views[("classification", "test")]
    acfg = config["ablation"]
    features = acfg["features"] or list(schema.feature_ids)
    metric_full = evaluate_view(params, view, schema, catalog, providers)
    singles = {}
    for feature in features:
        singles[feature] = ablate_feature(params, view, feature, schema,
                                          catalog, providers, metric_full)
    interactions = []
    for f, g in acfg["pairs"]:
        interactions.append(ablate_pair(params, view, f, g, schema, catalog,
                                        providers, singles,
                                        acfg["epsilon"]))
    report = importance_report(list(singles.values()), interactions)
    json_path = _out(config, "importance.json")
    csv_path = _out(config, "fig_importance.csv")
    write_importance_report(report, json_path, csv_path)
    return [json_path, csv_path]


RPA_BIN_COLUMNS = ("rpa_low", "rpa_high", "count", "accuracy",
                   "mean_probability", "probability_std")


def rpa_bin_table(scores, labels, rpas, n_bins: int = 5) -> list[dict]:
    """Per-RPA-interval accuracy, mean predicted probability, and spread."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    rpas = np.asarray(rpas)
    edges = [0.0, curation.AFFINITY_THRESHOLD]
    positives = rpas[rpas > curation.AFFINITY_THRESHOLD]
    if positives.size:
        edges.extend(splits.quantile_bin_edges(positives, n_bins - 1))
        edges.append(float(positives.max()))
    rows = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (rpas > lo) & (rpas <= hi) if lo else (rpas >= lo) & (rpas <= hi)
        if not mask.any():
            continue
        predicted = (scores[mask] > 0.5).astype(int)
        rows.append({
            "rpa_low": lo,
            "rpa_high": hi,
            "count": int(mask.sum()),
            "accuracy": float(np.mean(predicted == labels[mask])),
            "mean_probability": float(np.mean(scores[mask])),
            "probability_std": float(np.std(scores[mask])),
        })
    return rows


# what each stage reads: a key of config["paths"], or a file in the out
# dir; a checkpoint is its JSON header and its .bin weights.  The embedding
# store is left out: it is a cache, appended to during the stage.
_VIEW_INPUTS = ["catalog", "curated.tsv", "split_manifest.tsv", "boxcox.json"]
_CLASSIFIER = ["model_classification.ckpt", "model_classification.ckpt.bin"]
_REGRESSOR = ["model_regression.ckpt", "model_regression.ckpt.bin"]

STAGES = {
    "curate": (stage_curate, ["corpus", "catalog", "alignment_table"]),
    "split": (stage_split, ["curated.tsv"]),
    "embed": (stage_embed, ["catalog", "curated.tsv"]),
    "train": (stage_train, _VIEW_INPUTS),
    "eval": (stage_eval, _VIEW_INPUTS + _CLASSIFIER + _REGRESSOR),
    "ablate": (stage_ablate, _VIEW_INPUTS + _CLASSIFIER),
}

RUN_ALL_ORDER = tuple(STAGES)
# the stages that encode records, each through its own `build_providers`
ENCODING_STAGES = ("embed", "train", "eval", "ablate")


def run_stage(name: str, config: dict, manifest: RunManifest,
              text: Callable[[], EmbeddingProvider | None] | None = None
              ) -> list[str]:
    """Run one stage and record it in `manifest`.  An encoding stage wraps
    `text()`, when `text` is given, as its inner text encoder (see
    build_providers); it is called inside the stage, so an encoder that
    cannot be built fails the stage.  The other stages do not call it."""
    fn, stage_inputs = STAGES[name]
    paths = config["paths"]
    os.makedirs(paths["out_dir"], exist_ok=True)
    inputs = [paths[key] if key in paths else _out(config, key)
              for key in stage_inputs]
    started = time.monotonic()
    try:
        if name in ENCODING_STAGES:
            outputs = fn(config, text() if text else None)
        else:
            outputs = fn(config)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc
    manifest.record_stage(name, [p for p in inputs if p], outputs,
                          time.monotonic() - started)
    return outputs


def run_end_to_end(config: dict) -> dict:
    """Chain every stage; any failure aborts naming the failing stage.

    The encoding stages share one inner text encoder, built by the first
    of them, so a synthetic text direction that embed drew is not drawn
    again by ablate.  Its direction table is bounded by the prompt
    vocabulary and is dropped when this call returns; each stage still
    opens its own store, and builds its own protein encoder, which after
    embed finds every sequence stored."""
    manifest = RunManifest(config, config["paths"]["out_dir"])
    text = functools.cache(functools.partial(text_encoder, config))
    artifacts = {}
    for name in RUN_ALL_ORDER:
        artifacts[name] = run_stage(name, config, manifest, text)
    return artifacts
