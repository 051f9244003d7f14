"""The benchmark's `--trace 1` hooks still fit the program: `bench/layers.py`
wraps program functions and methods by name, so deleting or renaming one of
them must fail here rather than only in a traced benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from test_cli import make_workspace

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench(monkeypatch):
    """The benchmark's `layers` and `spans` modules, imported from bench/."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def program_modules(layers) -> dict:
    names = (*layers.MODULES, "autodiff")
    return {name: importlib.import_module(f"nanocorona.{name}")
            for name in names}


def test_install_traces_and_uninstall_restores(bench):
    layers, spans = bench
    nc = program_modules(layers)
    before = {name: dict(vars(mod)) for name, mod in nc.items()}
    store_get = nc["cache"].EmbeddingStore.__dict__["get"]
    tracer = spans.Tracer()
    try:
        layers.install(tracer, nc, layers.LayerCounters())
        assert nc["pipeline"].build_providers is not \
            before["pipeline"]["build_providers"]
        assert nc["cache"].EmbeddingStore.__dict__["get"] is not store_get
        nc["metrics"].rank_auc([0.2, 0.9], [0, 1])
        assert tracer.summary()["metrics.rank_auc"]["calls"] == 1
    finally:
        tracer.uninstall()
    for name, mod in nc.items():
        assert all(vars(mod)[key] is value
                   for key, value in before[name].items()), name
    assert nc["cache"].EmbeddingStore.__dict__["get"] is store_get


def test_microtimings_on_a_tiny_model(bench):
    layers, _ = bench
    timings = layers.microtimings(program_modules(layers), {
        "protein_dim": 12, "text_dim": 16, "d_shared": 8, "tokens": 2,
        "heads": 2, "mlp_hidden": [6, 4], "batch_size": 4})
    assert set(timings) == {
        f"model.{layer}_{pass_}_ms" for layer in ("project", "attention",
                                                  "head")
        for pass_ in ("fwd", "bwd")} | {"model.adam_step_ms"}
    assert all(unit == "ms" and value >= 0.0
               for value, unit in timings.values())


def test_traced_run_counts_parse_store_and_provider_work(bench, tmp_path,
                                                          schema):
    # the counts come from call results and attributes (the parsed list's
    # length, the store's index_path), which only a traced run exercises
    layers, spans = bench
    nc = program_modules(layers)
    _, config = make_workspace(tmp_path, schema)
    config["model"]["max_epochs"] = 1
    tracer = spans.Tracer()
    counters = layers.LayerCounters()
    layers.install(tracer, nc, counters)
    try:
        nc["pipeline"].run_end_to_end(config)
    finally:
        tracer.uninstall()
    counters.close_bundle()
    metrics = layers.per_layer(tracer.summary(), counters)
    for name in ("schema.parse_rows", "cache.get_calls", "cache.put_calls",
                 "providers.embed_calls"):
        assert metrics[name][0] > 0, name
