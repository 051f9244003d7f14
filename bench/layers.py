"""Per-layer instrumentation: which program functions the traced run wraps,
the per-layer metrics derived from their spans, and fwd/bwd microtimings of
the model's layers at a workload's batch shape.

README.md tables which end-to-end metric, on which workload, each metric
group should move.
"""

from __future__ import annotations

import os
import time

import numpy as np

from spans import Tracer

# program modules, in the order their self time is reported
MODULES = ("pipeline", "schema", "curation", "splits", "boxcox", "prompts",
           "providers", "cache", "remote", "encode", "model", "metrics",
           "importance")

MB = 1024.0 * 1024.0
REPEATS = 5   # microtimings report the best of this many calls


class LayerCounters:
    """Counts taken from call results where the work happens."""

    def __init__(self):
        self.parse_rows = 0
        self.view_rows = 0
        self.render_hashes: set[str] = set()
        self.gets = 0
        self.hits = 0
        self.index_bytes = 0
        self.digest_bytes = 0
        self.rows_added = 0
        self.fwd_itemsize = 0
        self.direction_mb = 0.0
        self.bundle = None

    def close_bundle(self) -> None:
        """Fold the live provider bundle's direction cache into the peak."""
        if self.bundle is None:
            return
        total = 0
        for provider in (self.bundle.protein, self.bundle.text):
            inner = getattr(provider, "inner", provider)
            cache = getattr(inner, "_directions", None) or {}
            total += sum(vec.nbytes for vec in cache.values())
        self.direction_mb = max(self.direction_mb, total / MB)
        self.bundle = None


def install(tracer: Tracer, nc: dict, counters: LayerCounters) -> None:
    """Wrap the public functions of every program module in `nc`."""
    mods = list(nc.values())
    pipeline, schema, curation = nc["pipeline"], nc["schema"], nc["curation"]
    splits, boxcox, prompts = nc["splits"], nc["boxcox"], nc["prompts"]
    providers, cache, remote = nc["providers"], nc["cache"], nc["remote"]
    encode, model, metrics = nc["encode"], nc["model"], nc["metrics"]
    importance = nc["importance"]
    c = counters

    def fn(module, attribute, name=None, on_result=None):
        tracer.patch_function(mods, module, attribute,
                              name or f"{module.__name__.split('.')[-1]}."
                                      f"{attribute}", on_result)

    def count_parse(result, args, kwargs):
        c.parse_rows += len(result)

    def count_view(result, args, kwargs):
        c.view_rows += len(args[0])

    def count_render(result, args, kwargs):
        c.render_hashes.add(result.canonical_hash)

    def count_get(result, args, kwargs):
        c.gets += 1
        c.hits += result is not None

    def count_put(result, args, kwargs):
        c.index_bytes += os.path.getsize(args[0].index_path)

    def count_digest(result, args, kwargs):
        c.digest_bytes += os.path.getsize(args[0])

    def count_added(result, args, kwargs):
        c.rows_added += len(result) - len(args[0])

    def count_variants(result, args, kwargs):
        c.rows_added += len(result)

    def count_itemsize(result, args, kwargs):
        c.fwd_itemsize = max(c.fwd_itemsize, result.data.dtype.itemsize)

    def track_bundle(result, args, kwargs):
        c.close_bundle()
        c.bundle = result

    fn(pipeline, "run_end_to_end")
    fn(pipeline, "run_stage", lambda name, *a, **k: f"stage.{name}")
    fn(pipeline, "digest_file", on_result=count_digest)
    fn(pipeline, "build_providers", on_result=track_bundle)
    fn(pipeline, "make_filled_variants", on_result=count_variants)
    tracer.patch_method(pipeline.RunManifest, "record_stage",
                        "pipeline.record_stage")
    fn(schema, "parse_sample_table", on_result=count_parse)
    for name in ("write_sample_table", "load_protein_catalog",
                 "validate_corpus"):
        fn(schema, name)
    fn(curation, "local_fill", on_result=count_added)
    fn(curation, "global_fill", on_result=count_added)
    fn(curation, "impute_numeric_weighted")
    fn(curation, "impute_protocol_defaults")
    for name in ("assign_splits", "write_split_manifest",
                 "read_split_manifest", "split_records",
                 "classification_view", "regression_view"):
        fn(splits, name)
    fn(boxcox, "fit_boxcox")
    fn(prompts, "render_prompt", on_result=count_render)
    fn(prompts, "canonical_hash")
    for cls in (providers._HashedProjectionProvider,
                providers.PrecomputedProvider, remote.RemoteProvider):
        tracer.patch_method(cls, "embed", "providers.embed")
    fn(providers, "embed_protein")
    fn(providers, "embed_text")
    fn(remote, "remote_embed", "remote.call")
    tracer.patch_method(cache.EmbeddingStore, "get", "cache.get", count_get)
    tracer.patch_method(cache.EmbeddingStore, "put", "cache.put", count_put)
    tracer.patch_method(cache.CachedProvider, "embed", "cache.cached_embed")
    fn(encode, "encode_view", on_result=count_view)
    fn(encode, "protein_matrix")
    fn(encode, "text_matrix")
    for name in ("train", "init_params", "compute_gradients", "forward",
                 "save_checkpoint", "load_checkpoint"):
        fn(model, name)
    fn(model, "forward_graph", on_result=count_itemsize)
    tracer.patch_method(model.AdamOptimizer, "step", "model.adam_step")
    for name in ("classification_metrics", "regression_metrics", "rank_auc"):
        fn(metrics, name)
    for name in ("evaluate_view", "ablate_feature", "ablate_pair",
                 "importance_report", "write_importance_report"):
        fn(importance, name)


def per_layer(summary: dict, c: LayerCounters) -> dict:
    """Named per-layer metrics as {name: (value, unit)}."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)

    fwd_in_grad = summary.get("model.compute_gradients", {}) \
        .get("children", {}).get("model.forward_graph", 0.0)
    renders = calls("prompts.render_prompt")
    out = {
        "model.grad_calls": (calls("model.compute_gradients"), "count"),
        "model.grad_s": (total("model.compute_gradients"), "s"),
        "model.backward_s": (total("model.compute_gradients") - fwd_in_grad,
                             "s"),
        "model.adam_calls": (calls("model.adam_step"), "count"),
        "model.adam_s": (total("model.adam_step"), "s"),
        "model.fwd_itemsize_bytes": (c.fwd_itemsize, "bytes"),
        "model.forward_calls": (calls("model.forward"), "count"),
        "model.forward_s": (total("model.forward"), "s"),
        "model.checkpoint_s": (total("model.save_checkpoint",
                                     "model.load_checkpoint"), "s"),
        "metrics.eval_s": (total("metrics.classification_metrics",
                                 "metrics.regression_metrics"), "s"),
        "prompts.render_calls": (renders, "count"),
        "prompts.render_s": (total("prompts.render_prompt"), "s"),
        "prompts.unique_per_render": (
            len(c.render_hashes) / renders if renders else 0.0, "ratio"),
        "encode.view_calls": (calls("encode.encode_view"), "count"),
        "encode.view_rows": (c.view_rows, "count"),
        "encode.view_s": (total("encode.encode_view"), "s"),
        "importance.evaluate_calls": (calls("importance.evaluate_view"),
                                      "count"),
        "importance.evaluate_s": (total("importance.evaluate_view"), "s"),
        "cache.get_calls": (calls("cache.get"), "count"),
        "cache.get_s": (total("cache.get"), "s"),
        "cache.hit_ratio": (c.hits / c.gets if c.gets else 0.0, "ratio"),
        "cache.put_calls": (calls("cache.put"), "count"),
        "cache.put_s": (total("cache.put"), "s"),
        "cache.index_bytes_written": (c.index_bytes, "bytes"),
        "providers.embed_calls": (calls("providers.embed"), "count"),
        "providers.embed_s": (total("providers.embed"), "s"),
        "providers.direction_cache_mb": (c.direction_mb, "MB"),
        "remote.calls": (calls("remote.call"), "count"),
        "remote.call_s": (total("remote.call"), "s"),
        "schema.parse_calls": (calls("schema.parse_sample_table"), "count"),
        "schema.parse_rows": (c.parse_rows, "count"),
        "schema.parse_s": (total("schema.parse_sample_table"), "s"),
        "schema.write_s": (total("schema.write_sample_table"), "s"),
        "pipeline.digest_s": (total("pipeline.digest_file"), "s"),
        "pipeline.digest_bytes": (c.digest_bytes, "bytes"),
        "curation.local_fill_s": (total("curation.local_fill"), "s"),
        "curation.global_fill_s": (total("curation.global_fill"), "s"),
        "curation.impute_s": (total("curation.impute_numeric_weighted",
                                    "curation.impute_protocol_defaults"),
                              "s"),
        "curation.rows_added": (c.rows_added, "count"),
        "splits.assign_s": (total("splits.assign_splits"), "s"),
        "boxcox.fit_s": (total("boxcox.fit_boxcox"), "s"),
    }
    for module in MODULES:
        out[f"self.{module}_s"] = (sum(
            entry["self_s"] for name, entry in summary.items()
            if name.split(".")[0] == module
            or (module == "pipeline" and name.startswith("stage."))), "s")
    return out


def _best_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def microtimings(nc: dict, model_config: dict) -> dict:
    """Best-of-REPEATS fwd and bwd time of the projection, cross-attention
    and MLP head layers, and of one Adam step, at the workload's batch shape.
    """
    model, autodiff = nc["model"], nc["autodiff"]
    Tensor = autodiff.Tensor
    cfg = model.ModelConfig(**{**model_config, "task": "classification"})
    params = model.init_params(cfg)
    dtype = cfg.np_dtype
    rng = np.random.default_rng(0)
    b, t, td = cfg.batch_size, cfg.tokens, cfg.token_dim

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype),
                      requires_grad=True)

    blocks = {name: Tensor(arr, requires_grad=True)
              for name, arr in params.blocks.items()}
    protein = rng.standard_normal((b, cfg.protein_dim)).astype(dtype)
    text = rng.standard_normal((b, cfg.text_dim)).astype(dtype)
    p_tok, x_tok, fused = leaf(b, t, td), leaf(b, t, td), \
        leaf(b, cfg.head_input_dim)

    def project():
        return [model.project(protein, blocks["proj_protein.W"],
                              blocks["proj_protein.b"], cfg),
                model.project(text, blocks["proj_text.W"],
                              blocks["proj_text.b"], cfg)]

    def attention():
        return [model.cross_attention(p_tok, x_tok, blocks, "attn_p2t", cfg),
                model.cross_attention(x_tok, p_tok, blocks, "attn_t2p", cfg)]

    def head():
        return [model._head(fused, blocks, cfg)]

    def backward_of(build):
        def run():
            outs = build()
            for tensor in (*blocks.values(), p_tok, x_tok, fused):
                tensor.grad = None
            start = time.perf_counter()
            for out in outs:
                out.backward(np.ones(out.shape, dtype=out.data.dtype))
            return time.perf_counter() - start
        return min(run() for _ in range(REPEATS)) * 1e3

    optimizer = model.AdamOptimizer(params, lr=cfg.learning_rate)
    grads = {name: rng.standard_normal(arr.shape).astype(arr.dtype)
             for name, arr in params.blocks.items()}
    return {
        "model.project_fwd_ms": (_best_ms(project), "ms"),
        "model.project_bwd_ms": (backward_of(project), "ms"),
        "model.attention_fwd_ms": (_best_ms(attention), "ms"),
        "model.attention_bwd_ms": (backward_of(attention), "ms"),
        "model.head_fwd_ms": (_best_ms(head), "ms"),
        "model.head_bwd_ms": (backward_of(head), "ms"),
        "model.adam_step_ms": (_best_ms(
            lambda: optimizer.step(params, grads)), "ms"),
    }
