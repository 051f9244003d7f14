"""Acceptance suite: sixteen pass/fail checks covering gradients, attention,
the forward oracle, metrics, transforms, curation fills, splitting, training,
ablation, fine-tuning, persistence, the remote client, and the end-to-end
pipeline.  Each test is one criterion; `pytest -v` yields one line per
criterion."""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

import numpy as np
import pytest

from nanocorona import pipeline
from nanocorona.boxcox import BoxCoxTransform, boxcox_apply, boxcox_invert, \
    fit_boxcox, profile_loglik
from nanocorona.cache import EmbeddingStore
from nanocorona.curation import (
    QuantityObservation,
    binarize,
    build_reference_curve,
    estimate_rpa,
    global_fill,
    local_fill,
    top_n_scale,
)
from nanocorona.encode import ProviderBundle, encode_view
from nanocorona.errors import CorruptError, DimensionError
from nanocorona.importance import ablate_feature, ablate_pair, evaluate_view
from nanocorona.metrics import classification_metrics, rank_auc, \
    regression_metrics
from nanocorona.autodiff import Tensor
from nanocorona.model import (
    attention_probs,
    compute_gradients,
    compute_pos_weight,
    finetune,
    forward,
    init_params,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    train,
    weighted_bce,
)
from nanocorona.providers import SyntheticProteinProvider, SyntheticTextProvider
from nanocorona.remote import remote_embed
from nanocorona.schema import SampleRecord, UNKNOWN
from nanocorona.splits import (
    assign_splits,
    classification_view,
    regression_view,
    split_records,
)

from conftest import base_features, make_labeled_corpus, small_config, \
    tiny_config
from test_cli import make_workspace
from test_curation import _rec
from test_metrics import pairwise_auc
from test_model import _draw, _toy_data, reference_forward
from test_remote import _ScriptedHandler

SUITE_STARTED = time.monotonic()


@pytest.fixture(scope="module")
def providers():
    return ProviderBundle(SyntheticProteinProvider(0), SyntheticTextProvider(0))


def _task(schema, providers, label_rule, seed, task="classification",
          **cfg_overrides):
    """Train a fused model on a labeled corpus; return everything needed
    for evaluation and ablation."""
    records, catalog = make_labeled_corpus(schema, 500, seed=seed,
                                           label_rule=label_rule)
    assignment = assign_splits(records, seed=1)
    views = {}
    for split in ("train", "val", "test"):
        members = split_records(records, assignment, split)
        views[split] = (classification_view(members)
                        if task == "classification"
                        else regression_view(members,
                                             BoxCoxTransform(0.0, "fixture")))
    data = {s: encode_view(v.records, v.labels, schema, catalog, providers,
                           "fused")
            for s, v in views.items()}
    cfg = small_config(task=task, **cfg_overrides)
    params, history = train(data["train"], data["val"], cfg)
    return {"params": params, "views": views, "catalog": catalog,
            "data": data, "history": history, "records": records}


@pytest.fixture(scope="module")
def text_task(schema, providers):
    return _task(schema, providers, "text", seed=0)


@pytest.fixture(scope="module")
def additive_task(schema, providers):
    return _task(schema, providers, "additive", seed=5, task="regression",
                 learning_rate=3e-3, max_epochs=80, patience=20)


def test_01_gradient_correctness():
    """Analytic vs central finite-difference gradients, every block,
    64-bit, step 1e-4, rel err < 1e-4, < 60 s."""
    started = time.monotonic()
    cfg = tiny_config()
    params = init_params(cfg)
    rng = np.random.default_rng(0)
    protein, text = _draw(cfg, rng, batch=3)
    labels = rng.integers(0, 2, 3).astype(np.float64)
    w_pos = 1.5
    _, grads = compute_gradients(params, protein, text, labels, w_pos)
    step = 1e-4
    worst = 0.0
    for name, block in params.blocks.items():
        flat = block.reshape(-1)
        numeric = np.empty_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = weighted_bce(forward(params, protein, text), labels, w_pos)
            flat[j] = orig - step
            lo = weighted_bce(forward(params, protein, text), labels, w_pos)
            flat[j] = orig
            numeric[j] = (hi - lo) / (2 * step)
        analytic = grads[name].reshape(-1)
        denom = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-8)
        worst = max(worst, float(np.max(np.abs(numeric - analytic) / denom)))
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative error {worst:.2e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def test_02_attention_normalization():
    """Softmax rows sum to 1 +/- 1e-6 over 1000 random inputs; identical
    keys give uniform 1/T within 1e-9."""
    cfg = tiny_config()
    params = init_params(cfg)
    rng = np.random.default_rng(1)
    q = rng.standard_normal((1000, cfg.tokens, cfg.token_dim))
    k = rng.standard_normal((1000, cfg.tokens, cfg.token_dim))
    weights = attention_probs(Tensor(q), Tensor(k), params.blocks,
                              "attn_p2t", cfg).data
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-6
    one_key = rng.standard_normal((1, 1, cfg.token_dim))
    same = np.broadcast_to(one_key, (4, cfg.tokens, cfg.token_dim)).copy()
    uniform = attention_probs(Tensor(q[:4]), Tensor(same), params.blocks,
                              "attn_p2t", cfg).data
    assert np.max(np.abs(uniform - 1.0 / cfg.tokens)) < 1e-9


def test_03_forward_oracle():
    """Fusion forward matches a straight-line re-implementation within 1e-6
    on 5 random draws."""
    cfg = tiny_config()
    params = init_params(cfg)
    rng = np.random.default_rng(2)
    for _ in range(5):
        protein, text = _draw(cfg, rng)
        got = forward(params, protein, text)
        want = reference_forward(params, protein, text)
        assert np.max(np.abs(got - want)) < 1e-6


def test_04_auc_oracle():
    """Rank-based AUC equals O(n^2) pair counting (ties = 1/2) on 20
    random 200-sample batches."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        labels = rng.integers(0, 2, 200)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, 200), 2)  # rounded -> ties
        assert rank_auc(scores, labels) == \
            pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def test_05_loss_weighting():
    """compute_pos_weight = 2*n_neg/n_pos exactly; weighted BCE hand-check
    on a 4-sample batch within 1e-9."""
    assert compute_pos_weight(900, 100) == 18.0
    assert compute_pos_weight(3, 4) == 1.5
    p = np.array([0.9, 0.1, 0.7, 0.4])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    w = 2.5
    expected = -(w * np.log(0.9) + np.log(0.9) + w * np.log(0.7)
                 + np.log(0.6)) / 4.0
    assert abs(weighted_bce(p, y, w) - expected) < 1e-9


def test_06_boxcox():
    """Lambda recovery within +/-0.15 of 0 on 5000 log-normal samples vs a
    dense-grid oracle; roundtrip within 1e-9 relative; lambda->0 continuity
    within 1e-4."""
    rng = np.random.default_rng(4)
    y = np.exp(rng.normal(0.0, 1.0, 5000))
    fitted = fit_boxcox(y)
    assert abs(fitted.lam) < 0.15
    grid = np.arange(-2.0, 2.0001, 0.001)
    oracle = grid[np.argmax([profile_loglik(y, lam) for lam in grid])]
    assert abs(fitted.lam - oracle) < 0.01
    for lam in (-1.0, -0.2, 0.0, 0.5, 2.0):
        transform = BoxCoxTransform(lam)
        values = rng.uniform(1e-6, 100, 500)
        back = boxcox_invert(boxcox_apply(values, transform), transform)
        assert np.max(np.abs(back - values) / values) < 1e-9
    values = np.geomspace(1e-4, 50, 200)
    near_zero = boxcox_apply(values, BoxCoxTransform(1e-8))
    assert np.max(np.abs(near_zero - np.log(values))) < 1e-4


def test_07_rpa_estimation():
    """Every estimation method sums to 1 +/- 1e-9; mw_normalization hand
    case [10,10]/[50,100] -> [2/3, 1/3]."""
    rng = np.random.default_rng(5)
    for method, kind in (("normalization", "spectral_count"),
                         ("mw_normalization", "intensity"),
                         ("ibaq", "ibaq"), ("empai", "empai")):
        for _ in range(5):
            n = int(rng.integers(2, 40))
            obs = [QuantityObservation(f"P{i}", float(q), kind, 40.0 + i)
                   for i, q in enumerate(rng.uniform(0.1, 50, n))]
            rpa = estimate_rpa(obs, method)
            assert abs(sum(rpa.values()) - 1.0) < 1e-9
    hand = estimate_rpa(
        [QuantityObservation("A", 10.0, "intensity", 50.0),
         QuantityObservation("B", 10.0, "intensity", 100.0)],
        "mw_normalization")
    assert hand["A"] == pytest.approx(2 / 3, abs=1e-12)
    assert hand["B"] == pytest.approx(1 / 3, abs=1e-12)


def test_08_fill_correctness(schema):
    """local_fill count = #groups x |union|; global_fill count matches
    brute force; top-n scaled sums equal C(n) +/- 1e-9 with rank order
    preserved."""
    # local fill
    groups = {"A": ["p1", "p2", "p5"], "B": ["p2", "p3"],
              "C": ["p1", "p4", "p6"]}
    records = [_rec(schema, f"{g}-{a}", group=g, accession=a, rpa=0.1)
               for g, accs in groups.items() for a in accs]
    union = set(itertools.chain.from_iterable(groups.values()))
    assert len(local_fill(records)) == len(groups) * len(union)

    # global fill against brute-force enumeration
    layout = {}
    for s in range(4):
        for g in range(8 if s < 3 else 6):
            layout[(f"st{s}", f"g{g}")] = [f"base{s}_{g}"]
    for unit in [("st0", "g0"), ("st1", "g1"), ("st2", "g2"), ("st2", "g3")]:
        layout[unit].append("p1")
    corpus = [_rec(schema, f"{s}-{g}-{a}", study=s, group=g, accession=a,
                   rpa=0.05)
              for (s, g), accs in layout.items() for a in accs]
    out = global_fill(corpus)
    expected_added = 0
    for acc in {a for accs in layout.values() for a in accs}:
        units = [u for u, accs in layout.items() if acc in accs]
        if len(units) > 0.10 * len(layout) and len({u[0] for u in units}) >= 3:
            expected_added += len(layout) - len(units)
    assert len(out) - len(corpus) == expected_added

    # top-n scaling
    curve = build_reference_curve([[0.85] + [0.15 / 120] * 120])
    rpas = [0.4, 0.35, 0.15, 0.1]
    truncated = [_rec(schema, f"s{i}", accession=f"p{i}", rpa=r)
                 for i, r in enumerate(rpas)]
    result = top_n_scale(truncated, curve)
    assert result.scaled
    assert abs(sum(r.rpa for r in result.records) - curve(len(rpas))) < 1e-9
    scaled = [r.rpa for r in result.records]
    assert np.argsort(scaled).tolist() == np.argsort(rpas).tolist()


def test_09_split_integrity(schema):
    """10,000-origin fixture: 8:1:1 within +/-1%; 100% counterpart
    co-location; per-bin train fraction within +/-2% of 8/9 for bins with
    >= 100 members; deterministic per seed."""
    import dataclasses
    rng = np.random.default_rng(6)
    records = []
    for i in range(10_000):
        rpa = float(rng.uniform(1e-4, 1e-1)) if rng.uniform() < 0.7 \
            else float(rng.uniform(0, 5e-6))
        rec = SampleRecord(
            sample_id=f"s{i:06d}", study_id=f"st{i % 9}", group_id="g0",
            origin_id=f"o{i:06d}", features=base_features(schema, rng),
            protein_accession=f"P{i % 50:05d}", rpa=rpa)
        records.append(rec)
        if i % 3 == 0:
            records.append(dataclasses.replace(
                rec, sample_id=rec.sample_id + "::filled",
                is_filled_variant=True))
    assignment = assign_splits(records, seed=11)

    counts = {"train": 0, "val": 0, "test": 0}
    for split in assignment.assignment.values():
        counts[split] += 1
    total = sum(counts.values())
    assert total == 10_000
    assert abs(counts["train"] / total - 0.8) <= 0.01
    assert abs(counts["val"] / total - 0.1) <= 0.01
    assert abs(counts["test"] / total - 0.1) <= 0.01

    by_origin = {}
    for rec in records:
        by_origin.setdefault(rec.origin_id, set()).add(
            assignment.split_of(rec.origin_id))
    assert all(len(splits_seen) == 1 for splits_seen in by_origin.values())

    per_bin = {}
    for origin, split in assignment.assignment.items():
        if split != "test":
            per_bin.setdefault(assignment.bins[origin], []).append(split)
    for b, members in per_bin.items():
        if len(members) >= 100:
            frac = members.count("train") / len(members)
            assert abs(frac - 8 / 9) <= 0.02, f"bin {b}"

    again = assign_splits(records, seed=11)
    assert again.assignment == assignment.assignment


def test_10_trainability(schema, providers, text_task):
    """64-sample overfit reaches train F1 >= 0.95 and train R^2 >= 0.9
    within 200 epochs; the separable 500-sample task reaches val AUC >= 0.9;
    < 5 minutes."""
    started = time.monotonic()
    cfg = tiny_config(max_epochs=200, patience=200, batch_size=16,
                      learning_rate=3e-3)
    data = _toy_data(cfg, 64, seed=0)
    params, _ = train(data, data, cfg)
    scores = forward(params, data[0], data[1])
    assert classification_metrics(scores, data[2])["f1"] >= 0.95

    reg_cfg = tiny_config(task="regression", max_epochs=200, patience=200,
                          batch_size=16, learning_rate=3e-3)
    reg_data = _toy_data(reg_cfg, 64, seed=0, task="regression")
    reg_params, _ = train(reg_data, reg_data, reg_cfg)
    preds = forward(reg_params, reg_data[0], reg_data[1])
    assert regression_metrics(preds, reg_data[2])["r2"] >= 0.9

    val = text_task["data"]["val"]
    val_scores = forward(text_task["params"], val[0], val[1])
    assert rank_auc(val_scores, val[2]) >= 0.9
    assert time.monotonic() - started < 300.0


def test_11_ablation_mechanics(schema, providers, text_task, additive_task):
    """Causal masking delta > 0.2; null masking |delta| < 0.03;
    already-Unknown masking delta = 0 exactly; pair ablation symmetric;
    additive pair |interaction| < epsilon."""
    import dataclasses
    view = text_task["views"]["test"]
    catalog = text_task["catalog"]
    params = text_task["params"]
    causal = ablate_feature(params, view, "core", schema, catalog, providers)
    assert causal.delta > 0.2
    null = ablate_feature(params, view, "crystallinity", schema, catalog,
                          providers)
    assert abs(null.delta) < 0.03
    blanked = dataclasses.replace(view, records=[
        rec.with_feature("flow_speed", UNKNOWN) for rec in view.records])
    unknown = ablate_feature(params, blanked, "flow_speed", schema, catalog,
                             providers)
    assert unknown.delta == 0.0

    full = evaluate_view(params, view, schema, catalog, providers)
    singles = {f: ablate_feature(params, view, f, schema, catalog, providers,
                                 metric_full=full)
               for f in ("core", "shape")}
    ab = ablate_pair(params, view, "core", "shape", schema, catalog,
                     providers, singles)
    ba = ablate_pair(params, view, "shape", "core", schema, catalog,
                     providers, singles)
    assert ab.pair == ba.pair and ab.interaction == ba.interaction

    a_view = additive_task["views"]["test"]
    a_full = evaluate_view(additive_task["params"], a_view, schema,
                           additive_task["catalog"], providers)
    a_singles = {f: ablate_feature(additive_task["params"], a_view, f, schema,
                                   additive_task["catalog"], providers,
                                   metric_full=a_full)
                 for f in ("core", "dispersing_medium")}
    epsilon = 0.05
    pair = ablate_pair(additive_task["params"], a_view, "core",
                       "dispersing_medium", schema, additive_task["catalog"],
                       providers, a_singles, epsilon=epsilon)
    assert abs(pair.interaction) < epsilon


def test_12_modality_fixture(schema, providers):
    """Fused val AUC on the XOR task exceeds both single-modality AUCs by
    >= 0.1."""
    records, catalog = make_labeled_corpus(schema, 500, seed=3,
                                           label_rule="xor")
    assignment = assign_splits(records, seed=1)
    views = {s: classification_view(split_records(records, assignment, s))
             for s in ("train", "val")}
    aucs = {}
    for modality in ("fused", "protein_only", "text_only"):
        data = {s: encode_view(v.records, v.labels, schema, catalog,
                               providers, modality)
                for s, v in views.items()}
        params, _ = train(data["train"], data["val"],
                          small_config(modality=modality))
        scores = forward(params, data["val"][0], data["val"][1])
        aucs[modality] = rank_auc(scores, data["val"][2])
    assert aucs["fused"] - aucs["protein_only"] >= 0.1
    assert aucs["fused"] - aucs["text_only"] >= 0.1


def test_13_finetune_freeze():
    """Projection and fusion blocks byte-identical through fine-tuning;
    internal 70:15:15 split within rounding."""
    cfg = tiny_config(max_epochs=5, patience=10)
    base = init_params(cfg)
    before = {k: v.copy() for k, v in base.blocks.items()}
    data = _toy_data(cfg, 100, seed=8)
    tuned, _, (idx_train, idx_val, idx_test) = finetune(base, data, cfg)
    for name in tuned.blocks:
        if name.startswith(("proj_", "attn_")):
            assert tuned.blocks[name].tobytes() == before[name].tobytes()
    assert (len(idx_train), len(idx_val), len(idx_test)) == (70, 15, 15)


def test_14_persistence(tmp_path):
    """Checkpoint and cache roundtrips bit-identical; corrupted payloads
    raise the declared errors."""
    params = init_params(tiny_config(dtype="float32"))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params, ckpt)
    loaded = load_checkpoint(ckpt)
    for name in params.blocks:
        assert loaded.blocks[name].tobytes() == params.blocks[name].tobytes()
    (tmp_path / "model.ckpt.bin").write_bytes(
        (tmp_path / "model.ckpt.bin").read_bytes()[:-8])
    with pytest.raises(CorruptError):
        load_checkpoint(ckpt)

    store = EmbeddingStore(tmp_path / "emb.bin")
    key = "ab" * 32
    vec = np.arange(64, dtype=np.float32)
    store.put(key, "prov", vec)
    provider_id, back = EmbeddingStore(tmp_path / "emb.bin").get(key)
    assert provider_id == "prov"
    assert back.tobytes() == vec.tobytes()
    from nanocorona.errors import CacheError
    (tmp_path / "emb.bin").write_bytes(
        (tmp_path / "emb.bin").read_bytes()[:-16])
    with pytest.raises(CacheError):
        store.get(key)


def test_15_remote_client():
    """Mock server call logs verify: success path, dim-mismatch rejection,
    and 2x503-then-200 recovery with three retries."""
    from http.server import HTTPServer

    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        server.script = [(200, {"dim": 8, "vector": list(range(8))})]
        vec = remote_embed(endpoint, "protein", "ACDE", 8)
        assert np.array_equal(vec, np.arange(8, dtype=np.float32))
        assert len(server.requests) == 1

        server.script = [(200, {"dim": 5, "vector": [0.0] * 5})]
        with pytest.raises(DimensionError):
            remote_embed(endpoint, "protein", "ACDE", 8)
        assert len(server.requests) == 2

        server.script = [(503, {}), (503, {}),
                         (200, {"dim": 8, "vector": [1.0] * 8})]
        vec = remote_embed(endpoint, "protein", "ACDE", 8, retries=3,
                           backoff=0.01)
        assert np.array_equal(vec, np.ones(8, dtype=np.float32))
        assert len(server.requests) == 5
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_16_end_to_end(tmp_path, schema):
    """run-all on the 500-sample fixture completes; a rerun produces
    identical artifact digests; the whole suite stays under 10 minutes."""
    _, config = make_workspace(tmp_path, schema, n=500, out_name="out1")
    pipeline.run_end_to_end(config)
    config2 = json.loads(json.dumps(config))
    config2["paths"]["out_dir"] = str(tmp_path / "out2")
    pipeline.run_end_to_end(config2)
    for name in ("curated.tsv", "split_manifest.tsv", "boxcox.json",
                 "model_classification.ckpt.bin",
                 "model_regression.ckpt.bin", "metrics.json",
                 "importance.json", "fig_importance.csv"):
        d1 = pipeline.digest_file(
            os.path.join(config["paths"]["out_dir"], name))
        d2 = pipeline.digest_file(
            os.path.join(config2["paths"]["out_dir"], name))
        assert d1 == d2, name
    assert time.monotonic() - SUITE_STARTED < 600.0
