"""Model tests: forward pass against a straight-line re-implementation,
attention normalization, full finite-difference gradient checks, losses,
initialization, training behaviour, fine-tuning, and checkpoint I/O."""

from __future__ import annotations

import json
import math
import re
import time
import weakref

import numpy as np
import pytest

from nanocorona import model
from nanocorona.autodiff import Tensor
from nanocorona.errors import (
    CorruptError,
    DimensionError,
    EmptyInputError,
    NonFiniteError,
    NoPositivesError,
    VersionError,
)
from nanocorona.model import (
    AdamOptimizer,
    ModelConfig,
    UniqueRows,
    _as_tensors,
    _val_metric,
    attention_probs,
    compute_gradients,
    compute_pos_weight,
    finetune,
    forward,
    forward_graph,
    init_params,
    load_checkpoint,
    mse_loss,
    parameter_count,
    save_checkpoint,
    train,
    weighted_bce,
)

from conftest import tiny_config


# ---------------------------------------------------------------------------
# straight-line reference forward pass (independent of the package internals:
# plain loops and numpy primitives only)
# ---------------------------------------------------------------------------


def _ref_softmax_rows(scores):
    out = np.empty_like(scores)
    for i in range(scores.shape[0]):
        row = scores[i] - scores[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def _ref_attention(queries, keys_values, blocks, prefix, cfg):
    B, T, td = queries.shape
    H = cfg.heads
    hd = td // H
    out = np.empty_like(queries)
    for s in range(B):
        q_all = queries[s] @ blocks[f"{prefix}.Wq"]
        k_all = keys_values[s] @ blocks[f"{prefix}.Wk"]
        v_all = keys_values[s] @ blocks[f"{prefix}.Wv"]
        merged = np.empty((T, td))
        for h in range(H):
            sl = slice(h * hd, (h + 1) * hd)
            q, k, v = q_all[:, sl], k_all[:, sl], v_all[:, sl]
            weights = _ref_softmax_rows(q @ k.T / np.sqrt(hd))
            merged[:, sl] = weights @ v
        attended = merged @ blocks[f"{prefix}.Wo"] + queries[s]
        for t in range(T):
            row = attended[t]
            mu = row.mean()
            var = ((row - mu) ** 2).mean()
            out[s, t] = ((row - mu) / np.sqrt(var + 1e-5)
                         * blocks[f"{prefix}.ln_gain"]
                         + blocks[f"{prefix}.ln_bias"])
    return out


def reference_forward(params, protein, text):
    cfg = params.config
    blocks = params.blocks
    B = (protein if protein is not None else text).shape[0]
    T, td = cfg.tokens, cfg.d_shared // cfg.tokens

    def tokens(emb, prefix):
        flat = emb @ blocks[f"{prefix}.W"] + blocks[f"{prefix}.b"]
        return flat.reshape(B, T, td)

    if cfg.modality == "fused":
        p_tok = tokens(protein, "proj_protein")
        x_tok = tokens(text, "proj_text")
        a = _ref_attention(p_tok, x_tok, blocks, "attn_p2t", cfg)
        b = _ref_attention(x_tok, p_tok, blocks, "attn_t2p", cfg)
        fused = np.concatenate(
            [a.reshape(B, cfg.d_shared), b.reshape(B, cfg.d_shared)], axis=1)
    else:
        emb, prefix = ((protein, "proj_protein")
                       if cfg.modality == "protein_only"
                       else (text, "proj_text"))
        tok = tokens(emb, prefix)
        fused = _ref_attention(tok, tok, blocks, "attn_self",
                               cfg).reshape(B, cfg.d_shared)

    h = fused
    for i in range(len(cfg.mlp_hidden) + 1):
        h = h @ blocks[f"head.W{i}"] + blocks[f"head.b{i}"]
        if i < len(cfg.mlp_hidden):
            h = np.maximum(h, 0.0)
    h = h.reshape(B)
    if cfg.task == "classification":
        h = 1.0 / (1.0 + np.exp(-h))
    return h


def _draw(cfg, rng, batch=4):
    protein = rng.standard_normal((batch, cfg.protein_dim)) \
        if cfg.modality in ("fused", "protein_only") else None
    text = rng.standard_normal((batch, cfg.text_dim)) \
        if cfg.modality in ("fused", "text_only") else None
    return protein, text


class TestForward:
    @pytest.mark.parametrize("modality",
                             ["fused", "protein_only", "text_only"])
    def test_matches_reference_on_five_draws(self, modality):
        cfg = tiny_config(modality=modality)
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            protein, text = _draw(cfg, rng)
            got = forward(params, protein, text)
            want = reference_forward(params, protein, text)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_regression_task_reference(self):
        cfg = tiny_config(task="regression")
        params = init_params(cfg)
        protein, text = _draw(cfg, np.random.default_rng(1))
        got = forward(params, protein, text)
        assert np.max(np.abs(got - reference_forward(params, protein, text))) \
            < 1e-6

    def test_classification_outputs_are_probabilities(self):
        cfg = tiny_config()
        params = init_params(cfg)
        protein, text = _draw(cfg, np.random.default_rng(2), batch=16)
        out = forward(params, protein, text)
        assert out.shape == (16,)
        assert np.all((out > 0) & (out < 1))

    def test_wrong_embedding_dim_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        bad = np.zeros((2, cfg.protein_dim + 1))
        text = np.zeros((2, cfg.text_dim))
        with pytest.raises(DimensionError):
            forward(params, bad, text)

    def test_missing_modality_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        with pytest.raises(DimensionError):
            forward(params, None, np.zeros((2, cfg.text_dim)))

    def test_nan_embeddings_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        protein, text = _draw(cfg, np.random.default_rng(3))
        protein[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            forward(params, protein, text)


def _unique_view(cfg, rng, n, distinct_protein, distinct_text):
    """(protein, text) UniqueRows of n rows over the given distinct counts,
    float32 as providers give them, each distinct row used at least once;
    None for a modality the model does not read."""
    def rows(dim, distinct):
        index = np.concatenate([np.arange(distinct),
                                rng.integers(0, distinct, n - distinct)])
        return UniqueRows(rng.standard_normal((distinct, dim))
                          .astype(np.float32), rng.permutation(index))
    return (rows(cfg.protein_dim, distinct_protein)
            if cfg.modality in ("fused", "protein_only") else None,
            rows(cfg.text_dim, distinct_text)
            if cfg.modality in ("fused", "text_only") else None)


class TestUniqueRowsForward:
    """forward on distinct rows plus an index equals forward on the dense
    matrix bit for bit, at the tiny test widths and at the benchmark's
    64-wide model over provider widths, where the BLAS computes one row,
    a few rows and many rows in three different ways."""

    # (rows, distinct proteins, distinct prompts): a one-row view, views
    # where every row shares one prompt, and repeated indices throughout
    SHAPES = ((1, 1, 1), (91, 58, 1), (91, 5, 1), (91, 3, 2), (91, 58, 19),
              (7, 7, 3), (40, 2, 40), (2, 1, 1))

    @pytest.mark.parametrize("widths", [(12, 16, 8, 2, 2),
                                        (2560, 4096, 64, 8, 8)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("modality",
                             ["fused", "protein_only", "text_only"])
    def test_matches_row_major_forward(self, modality, dtype, widths):
        protein_dim, text_dim, d_shared, tokens, heads = widths
        cfg = ModelConfig(protein_dim=protein_dim, text_dim=text_dim,
                          d_shared=d_shared, tokens=tokens, heads=heads,
                          mlp_hidden=(6, 4), modality=modality, dtype=dtype)
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        for shape in self.SHAPES:
            protein, text = _unique_view(cfg, rng, *shape)
            got = forward(params, protein, text)
            want = forward(params, *(None if x is None else x[:]
                                     for x in (protein, text)))
            assert got.dtype == want.dtype == cfg.np_dtype
            assert got.tobytes() == want.tobytes(), shape

    def test_non_finite_distinct_row_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        protein, text = _unique_view(cfg, np.random.default_rng(1), 6, 3, 2)
        text.unique[1, 0] = np.inf
        with pytest.raises(NonFiniteError) as info:
            forward(params, protein, text)
        assert info.value.code == "E_NONFINITE"

    def test_wrong_distinct_row_dim_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        protein, text = _unique_view(cfg, np.random.default_rng(2), 6, 3, 2)
        wide = UniqueRows(np.zeros((3, cfg.protein_dim + 1), np.float32),
                          protein.index)
        with pytest.raises(DimensionError) as info:
            forward(params, wide, text)
        assert info.value.code == "E_DIM"


class TestAttentionWeights:
    def test_rows_sum_to_one(self):
        cfg = tiny_config()
        params = init_params(cfg)
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, cfg.tokens, cfg.token_dim))
        k = rng.standard_normal((3, cfg.tokens, cfg.token_dim))
        weights = attention_probs(Tensor(q), Tensor(k), params.blocks,
                                  "attn_p2t", cfg).data
        assert weights.shape == (3, cfg.heads, cfg.tokens, cfg.tokens)
        assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-6
        assert np.all(weights >= 0)

    def test_identical_keys_give_uniform_weights(self):
        cfg = tiny_config()
        params = init_params(cfg)
        rng = np.random.default_rng(5)
        q = rng.standard_normal((2, cfg.tokens, cfg.token_dim))
        one_key = rng.standard_normal((1, 1, cfg.token_dim))
        k = np.broadcast_to(one_key, (2, cfg.tokens, cfg.token_dim)).copy()
        weights = attention_probs(Tensor(q), Tensor(k), params.blocks,
                                  "attn_p2t", cfg).data
        assert np.max(np.abs(weights - 1.0 / cfg.tokens)) < 1e-9


class TestGradients:
    @pytest.mark.parametrize("task,modality", [
        ("classification", "fused"),
        ("regression", "fused"),
        ("classification", "protein_only"),
        ("classification", "text_only"),
    ])
    def test_every_block_matches_finite_differences(self, task, modality):
        cfg = tiny_config(task=task, modality=modality)
        params = init_params(cfg)
        rng = np.random.default_rng(6)
        protein, text = _draw(cfg, rng, batch=3)
        labels = rng.integers(0, 2, 3).astype(np.float64) \
            if task == "classification" else rng.standard_normal(3)
        w_pos = 1.7 if task == "classification" else 1.0
        started = time.monotonic()
        _, grads = compute_gradients(params, protein, text, labels, w_pos)

        def loss_at():
            out = forward(params, protein, text)
            if task == "classification":
                return weighted_bce(out, labels, w_pos)
            return mse_loss(out, labels)

        step = 1e-4
        for name, block in params.blocks.items():
            flat = block.reshape(-1)
            numeric = np.empty_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                hi = loss_at()
                flat[j] = orig - step
                lo = loss_at()
                flat[j] = orig
                numeric[j] = (hi - lo) / (2 * step)
            analytic = grads[name].reshape(-1)
            denom = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-8)
            rel = np.abs(numeric - analytic) / denom
            assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"
        assert time.monotonic() - started < 60.0

    def test_matmul_skips_gradient_of_constant_operand(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((5, 3)))
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = x @ w
        g = rng.standard_normal((5, 4))
        assert out._backward(g)[0] is None
        out.backward(g)
        assert x.grad is None
        np.testing.assert_allclose(w.grad, x.data.T @ g, rtol=1e-12)


class TestStackByMatrixProduct:
    """(b, t, k) @ (k, n) runs as one GEMM over the b * t folded rows."""

    SHAPES = [(32, 8, 128, 128), (32, 8, 8, 8), (3, 8, 4, 4), (2, 3, 5, 7)]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("b,t,k,n", SHAPES)
    def test_forward_bit_equal_to_matmul(self, b, t, k, n, dtype):
        rng = np.random.default_rng(b * t + k)
        x = rng.standard_normal((b, t, k)).astype(dtype)
        w = rng.standard_normal((k, n)).astype(dtype)
        out = Tensor(x, requires_grad=True) @ Tensor(w, requires_grad=True)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == np.matmul(x, w).tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("b,t,k,n", SHAPES)
    def test_gradients_bit_equal_to_one_gemm(self, b, t, k, n, dtype):
        rng = np.random.default_rng(b * t + n)
        x = Tensor(rng.standard_normal((b, t, k)).astype(dtype),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((k, n)).astype(dtype),
                   requires_grad=True)
        g = rng.standard_normal((b, t, n)).astype(dtype)
        (x @ w).backward(g)
        g2d = g.reshape(-1, n)
        assert w.grad.tobytes() == \
            (x.data.reshape(-1, k).T @ g2d).tobytes()
        assert x.grad.shape == x.shape
        assert x.grad.tobytes() == (g2d @ w.data.T).tobytes()

    @pytest.mark.parametrize("grad_of", ["left", "right", "both"])
    def test_matches_finite_differences(self, grad_of):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4, 5)),
                   requires_grad=grad_of in ("left", "both"))
        w = Tensor(rng.standard_normal((5, 6)),
                   requires_grad=grad_of in ("right", "both"))
        weights = rng.standard_normal((3, 4, 6))
        ((x @ w) * Tensor(weights)).sum().backward()
        checked = [t for t in (x, w) if t.requires_grad]
        assert [t for t in (x, w) if t.grad is not None] == checked
        step = 1e-6
        for tensor in checked:
            flat = tensor.data.reshape(-1)
            numeric = np.empty_like(flat)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                hi = np.sum(np.matmul(x.data, w.data) * weights)
                flat[j] = orig - step
                lo = np.sum(np.matmul(x.data, w.data) * weights)
                flat[j] = orig
                numeric[j] = (hi - lo) / (2 * step)
            np.testing.assert_allclose(tensor.grad.reshape(-1), numeric,
                                       rtol=1e-6, atol=1e-8)


def _graph_nodes(root):
    """Every tensor reachable from root through _parents."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


class TestDtype:
    """No intermediate or gradient leaves the config dtype, whatever the
    dtype of the input embeddings."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_graph_and_gradients_keep_config_dtype(self, dtype, task):
        cfg = tiny_config(task=task, dtype=dtype)
        params = init_params(cfg)
        rng = np.random.default_rng(9)
        protein, text = _draw(cfg, rng)  # float64 draws
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        blocks = _as_tensors(params, trainable=True)
        out = forward_graph(params, protein, text, blocks)
        loss = weighted_bce(out, labels, 1.7) if task == "classification" \
            else mse_loss(out, labels)
        loss.backward()
        nodes = _graph_nodes(loss)
        assert len(nodes) > 50
        for node in nodes:
            assert node.data.dtype == np.dtype(dtype), node.shape
            if node.grad is not None:
                assert node.grad.dtype == np.dtype(dtype), node.shape
        _, grads = compute_gradients(params, protein, text, labels, 1.7)
        for name, g in grads.items():
            assert g.dtype == np.dtype(dtype), name


class TestLosses:
    def test_pos_weight_exact(self):
        assert compute_pos_weight(900, 100) == 18.0
        assert compute_pos_weight(7, 2) == 7.0
        assert compute_pos_weight(0, 5) == 0.0

    def test_pos_weight_requires_positives(self):
        with pytest.raises(NoPositivesError):
            compute_pos_weight(10, 0)

    def test_weighted_bce_hand_check(self):
        p = np.array([0.9, 0.2, 0.5])
        y = np.array([1.0, 0.0, 1.0])
        w = 3.0
        expected = -np.mean([w * np.log(0.9), np.log(0.8),
                             w * np.log(0.5)])
        assert abs(weighted_bce(p, y, w) - expected) < 1e-9

    def test_weighted_bce_clamps_extremes(self):
        loss = weighted_bce(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0)
        assert np.isfinite(loss)

    def test_mse_hand_check(self):
        pred = np.array([1.0, 2.0, 4.0])
        target = np.array([1.0, 0.0, 1.0])
        assert mse_loss(pred, target) == pytest.approx(13.0 / 3.0, abs=1e-12)


class TestInit:
    def test_parameter_count_matches_closed_form(self):
        cfg = tiny_config()
        td = cfg.d_shared // cfg.tokens
        expected = (cfg.protein_dim * cfg.d_shared + cfg.d_shared
                    + cfg.text_dim * cfg.d_shared + cfg.d_shared
                    + 2 * (4 * td * td + 2 * td))
        widths = [2 * cfg.d_shared, *cfg.mlp_hidden, 1]
        for fan_in, fan_out in zip(widths, widths[1:]):
            expected += fan_in * fan_out + fan_out
        assert parameter_count(cfg) == expected
        assert sum(a.size for a in init_params(cfg).blocks.values()) == \
            expected

    def test_deterministic_per_seed(self):
        a = init_params(tiny_config(seed=3))
        b = init_params(tiny_config(seed=3))
        c = init_params(tiny_config(seed=4))
        assert all(np.array_equal(a.blocks[k], b.blocks[k]) for k in a.blocks)
        assert any(not np.array_equal(a.blocks[k], c.blocks[k])
                   for k in a.blocks)

    def test_bias_zero_gain_one_weight_scale(self):
        cfg = ModelConfig(protein_dim=512, text_dim=512, d_shared=256,
                          tokens=8, heads=4, seed=0)
        params = init_params(cfg)
        for name, block in params.blocks.items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "ln_gain":
                assert np.all(block == 1.0)
            elif leaf == "ln_bias" or leaf.startswith("b"):
                assert not block.any()
        w = params.blocks["proj_protein.W"]
        assert abs(w.mean()) < 0.01
        assert w.std() == pytest.approx(np.sqrt(2.0 / 512), rel=0.05)


def _toy_data(cfg, n, seed, task="classification"):
    """Embeddings with a linearly decodable signal in both modalities."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, n).astype(np.float64)
    protein = rng.standard_normal((n, cfg.protein_dim))
    text = rng.standard_normal((n, cfg.text_dim))
    protein[:, 0] += 3.0 * (2 * z - 1)
    text[:, 0] += 3.0 * (2 * z - 1)
    labels = z if task == "classification" \
        else 2 * z - 1 + 0.05 * rng.standard_normal(n)
    return protein, text, labels


class TestTrain:
    def test_overfits_small_classification_set(self):
        cfg = tiny_config(max_epochs=200, patience=200, batch_size=16,
                          learning_rate=3e-3)
        data = _toy_data(cfg, 64, seed=0)
        params, history = train(data, data, cfg)
        assert max(history.val_metric) >= 0.95

    def test_overfits_small_regression_set(self):
        cfg = tiny_config(task="regression", max_epochs=200, patience=200,
                          batch_size=16, learning_rate=3e-3)
        data = _toy_data(cfg, 64, seed=0, task="regression")
        params, history = train(data, data, cfg)
        assert max(history.val_metric) >= 0.9

    def test_deterministic_per_seed(self):
        cfg = tiny_config(max_epochs=5, patience=10)
        data = _toy_data(cfg, 40, seed=1)
        val = _toy_data(cfg, 16, seed=2)
        a, _ = train(data, val, cfg)
        b, _ = train(data, val, cfg)
        for name in a.blocks:
            assert np.array_equal(a.blocks[name], b.blocks[name]), name

    def test_best_val_params_returned(self):
        cfg = tiny_config(max_epochs=30, patience=5)
        data = _toy_data(cfg, 40, seed=3)
        val = _toy_data(cfg, 16, seed=4)
        params, history = train(data, val, cfg)
        scores = forward(params, val[0], val[1])
        from nanocorona.metrics import classification_metrics
        assert classification_metrics(scores, val[2])["f1"] == \
            pytest.approx(max(history.val_metric))

    @pytest.mark.parametrize("val_labels", [[0.7], [0.5, 0.5, 0.5]],
                             ids=["one_row", "constant"])
    def test_degenerate_regression_val_uses_negative_mse(self, val_labels):
        cfg = tiny_config(task="regression", max_epochs=3, patience=5)
        protein, text, labels = _toy_data(cfg, 40, seed=11, task="regression")
        k = len(val_labels)
        val = (protein[:k], text[:k], np.array(val_labels))
        params, history = train((protein[k:], text[k:], labels[k:]), val,
                                cfg)
        assert len(history.val_metric) == 3
        assert all(m <= 0 for m in history.val_metric)
        mse = np.mean((forward(params, protein[:k], text[:k])
                       - np.array(val_labels)) ** 2)
        assert _val_metric(params, val) == pytest.approx(-mse, rel=1e-12)
        assert max(history.val_metric) == pytest.approx(-mse, rel=1e-12)

    def test_one_epoch_copies_the_params_once(self, monkeypatch):
        # the params are copied only when the val metric improves, and the
        # first epoch always improves on -inf
        copies = []
        copy = model.ModelParams.copy
        monkeypatch.setattr(model.ModelParams, "copy",
                            lambda self: copies.append(1) or copy(self))
        cfg = tiny_config(max_epochs=1)
        data = _toy_data(cfg, 20, seed=6)
        train(data, data, cfg)
        assert len(copies) == 1

    def test_starts_from_the_callers_params_and_trains_them_in_place(self):
        cfg = tiny_config(max_epochs=3, patience=5)
        data = _toy_data(cfg, 40, seed=12)
        val = _toy_data(cfg, 16, seed=13)
        fresh, fresh_history = train(data, val, cfg)
        given = init_params(cfg)
        drawn = {name: block.copy() for name, block in given.blocks.items()}
        params, history = train(data, val, cfg, given)
        assert history == fresh_history
        for name in fresh.blocks:
            assert params.blocks[name].tobytes() == \
                fresh.blocks[name].tobytes(), name
        assert not all(np.array_equal(given.blocks[name], drawn[name])
                       for name in drawn)

    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_empty_view_is_an_empty_input_error(self, empty):
        cfg = tiny_config(task="regression")
        data = _toy_data(cfg, 10, seed=14, task="regression")
        none = tuple(x[:0] for x in data)
        views = (none, data) if empty == "train" else (data, none)
        with pytest.raises(EmptyInputError,
                           match=f"regression {empty} view has no rows"):
            train(*views, cfg)

    def test_nan_input_raises(self):
        cfg = tiny_config(max_epochs=3)
        data = _toy_data(cfg, 20, seed=5)
        data[0][0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            train(data, data, cfg)


class TestFitHoldsNoGradient:
    """_fit drops each batch's gradients once Adam has applied them."""

    @pytest.mark.parametrize("how", ["train", "finetune"])
    def test_gradients_are_dead_when_validation_runs(self, monkeypatch, how):
        last, dead = [], []
        backprop, score = model._backprop, model.score

        def recording(*args):
            loss, grads = backprop(*args)
            last[:] = [weakref.ref(g) for g in grads.values()]
            return loss, grads

        def checking(*args):
            dead.append(all(ref() is None for ref in last))
            return score(*args)

        monkeypatch.setattr(model, "_backprop", recording)
        monkeypatch.setattr(model, "score", checking)
        cfg = tiny_config(max_epochs=2, patience=5)
        data = _toy_data(cfg, 40, seed=15)
        if how == "train":
            train(data, data, cfg)
        else:
            finetune(init_params(cfg), data, cfg)
        assert last and dead == [True, True]


class TestTrainBatching:
    """train's mini-batches, read from the rows it hands compute_gradients."""

    @staticmethod
    def _batches(monkeypatch, seed, n=101, epochs=2):
        cfg = tiny_config(seed=seed, batch_size=32, max_epochs=epochs,
                          patience=epochs + 1)
        row_ids = np.arange(n, dtype=np.float64)[:, None]
        labels = (np.arange(n) % 2).astype(np.float64)
        seen = [[]]  # one list of batches per epoch

        def record(params, protein, text, batch_labels, w_pos=1.0):
            seen[-1].append(protein[:, 0].astype(int).tolist())
            return 0.0, {name: np.zeros_like(arr)
                         for name, arr in params.blocks.items()}

        def end_epoch(params, data):
            seen.append([])
            return 0.0

        monkeypatch.setattr("nanocorona.model.compute_gradients", record)
        monkeypatch.setattr("nanocorona.model._val_metric", end_epoch)
        data = (row_ids, row_ids, labels)
        train(data, data, cfg)
        return seen[:-1]

    def test_partition_and_determinism(self, monkeypatch):
        epochs = self._batches(monkeypatch, seed=4)
        assert len(epochs) == 2
        for batches in epochs:
            assert [len(b) for b in batches] == [32, 32, 32, 5]
            assert sorted(sum(batches, [])) == list(range(101))
        assert self._batches(monkeypatch, seed=4) == epochs
        assert epochs[1] != epochs[0]
        assert self._batches(monkeypatch, seed=5)[0] != epochs[0]

    def test_bad_batch_size(self):
        for batch_size in (0, -1):
            with pytest.raises(ValueError, match="batch_size"):
                tiny_config(batch_size=batch_size)


class TestFinetune:
    def test_frozen_blocks_bit_identical_and_head_moves(self):
        cfg = tiny_config(max_epochs=5, patience=10)
        base = init_params(cfg)
        before = {k: v.copy() for k, v in base.blocks.items()}
        data = _toy_data(cfg, 60, seed=6)
        tuned, history, _ = finetune(base, data, cfg)
        for name in tuned.blocks:
            if name.startswith(("proj_", "attn_")):
                assert tuned.blocks[name].tobytes() == \
                    before[name].tobytes(), name
        assert any(not np.array_equal(tuned.blocks[k], before[k])
                   for k in tuned.blocks if k.startswith("head."))
        # base parameters are untouched
        for name in base.blocks:
            assert np.array_equal(base.blocks[name], before[name])

    def test_internal_split_is_70_15_15(self):
        cfg = tiny_config(max_epochs=2)
        base = init_params(cfg)
        data = _toy_data(cfg, 100, seed=7)
        _, _, (idx_train, idx_val, idx_test) = finetune(base, data, cfg)
        assert (len(idx_train), len(idx_val), len(idx_test)) == (70, 15, 15)
        combined = sorted(np.concatenate([idx_train, idx_val, idx_test]))
        assert combined == list(range(100))

    def test_features_are_computed_once(self, monkeypatch):
        calls = []
        fuse = model._fuse

        def counted(params, protein, text, blocks):
            calls.append(len(protein))
            return fuse(params, protein, text, blocks)

        monkeypatch.setattr(model, "_fuse", counted)
        cfg = tiny_config(max_epochs=3, patience=10, batch_size=8)
        finetune(init_params(cfg), _toy_data(cfg, 40, seed=9), cfg)
        assert calls == [40]

    def test_optimizer_holds_moments_for_head_blocks_only(self, monkeypatch):
        built = []

        class Recorded(AdamOptimizer):
            def __init__(self, params, lr):
                super().__init__(params, lr)
                built.append((self, params))

        monkeypatch.setattr(model, "AdamOptimizer", Recorded)
        cfg = tiny_config(max_epochs=2)
        base = init_params(cfg)
        finetune(base, _toy_data(cfg, 40, seed=9), cfg)
        (opt, params), = built
        head = {name for name in base.blocks if name.startswith("head.")}
        assert head and set(params.blocks) == head
        assert set(opt.m) == set(opt.v) == set(opt._rows) == head
        slab = max(min(len(params.blocks[k]), opt._rows[k])
                   * (params.blocks[k].size // len(params.blocks[k]))
                   for k in head)
        assert opt._scratch.shape == (slab,)

    def test_matches_training_the_whole_model_with_a_frozen_backbone(self):
        # the same head steps as a reference that runs the full forward per
        # batch and applies Adam to the head blocks' gradients alone
        cfg = tiny_config(max_epochs=4, patience=10, batch_size=8)
        base = init_params(cfg)
        data = _toy_data(cfg, 50, seed=11)
        tuned, history, (idx_train, _, _) = finetune(base, data, cfg)
        protein, text, labels = (x[idx_train] for x in data)
        params = base.copy()
        head = model.ModelParams(cfg, {k: v for k, v in params.blocks.items()
                                       if k.startswith("head.")})
        opt = AdamOptimizer(head, lr=cfg.learning_rate)
        w_pos = compute_pos_weight(int(np.sum(labels == 0)),
                                   int(np.sum(labels == 1)))
        for epoch in range(history.best_epoch + 1):
            order = np.random.default_rng([cfg.seed, epoch]).permutation(
                len(labels))
            for start in range(0, len(labels), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                _, grads = compute_gradients(params, protein[idx], text[idx],
                                             labels[idx], w_pos)
                opt.step(head, grads)
        for name in tuned.blocks:
            np.testing.assert_allclose(tuned.blocks[name],
                                       params.blocks[name], rtol=0,
                                       atol=1e-12, err_msg=name)

    def test_too_few_rows_is_an_empty_input_error(self):
        cfg = tiny_config()
        with pytest.raises(EmptyInputError,
                           match="2 rows give 1 train, 0 val"):
            finetune(init_params(cfg), _toy_data(cfg, 2, seed=0), cfg)


class TestCheckpoint:
    def _params(self):
        return init_params(tiny_config(dtype="float32"))

    def test_roundtrip_bit_identical(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert set(loaded.blocks) == set(params.blocks)
        for name in params.blocks:
            assert loaded.blocks[name].tobytes() == \
                params.blocks[name].tobytes(), name

    def test_save_is_deterministic(self, tmp_path):
        params = self._params()
        save_checkpoint(params, tmp_path / "a.ckpt")
        save_checkpoint(params, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.ckpt.bin").read_bytes() == \
            (tmp_path / "b.ckpt.bin").read_bytes()

    def test_header_with_the_older_freeze_flags_loads(self, tmp_path):
        # headers written before fine-tuning became structural also held
        # the freeze flags; they load, the flags ignored
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        header = json.loads(path.read_text())
        header["freeze_flags"] = {"projection": True, "fusion": True,
                                  "head": False}
        path.write_text(json.dumps(header, indent=1, sort_keys=True))
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert set(loaded.blocks) == set(params.blocks)
        for name in params.blocks:
            assert loaded.blocks[name].tobytes() == \
                params.blocks[name].tobytes(), name

    def test_float32_blocks_are_writable_views_of_one_read(self, tmp_path):
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path).blocks
        payload = loaded["head.b0"].base
        assert payload is not None
        assert all(block.base is payload for block in loaded.values())
        assert all(block.flags.writeable and block.dtype == np.float32
                   for block in loaded.values())

    def test_float64_config_loads_float64_blocks(self, tmp_path):
        params = init_params(tiny_config(dtype="float64"))
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path).blocks
        for name, block in params.blocks.items():
            assert loaded[name].dtype == np.float64, name
            assert loaded[name].flags.owndata and \
                loaded[name].flags.writeable, name
            assert np.array_equal(loaded[name],
                                  block.astype(np.float32)), name

    def test_missing_payload_is_corrupt(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._params(), path)
        (tmp_path / "m.ckpt.bin").unlink()
        with pytest.raises(CorruptError, match=re.escape(f"{path}.bin")):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        import json
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        manifest = json.loads(path.read_text())
        manifest["schema_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_payload_is_the_sorted_blocks_as_f4(self, tmp_path):
        params = init_params(tiny_config())  # float64 blocks
        save_checkpoint(params, tmp_path / "m.ckpt")
        assert (tmp_path / "m.ckpt.bin").read_bytes() == b"".join(
            params.blocks[name].astype("<f4").tobytes()
            for name in sorted(params.blocks))
        header = json.loads((tmp_path / "m.ckpt").read_text())
        assert sorted(header) == ["config", "schema_version"]

    def test_v1_header_is_a_version_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._params(), path)
        header = json.loads(path.read_text())
        path.write_text(json.dumps({**header, "schema_version": 1}))
        with pytest.raises(VersionError, match="unsupported schema version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["torn", "array", "config"])
    def test_unreadable_header_names_the_path(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._params(), path)
        text = path.read_text()
        if edit == "torn":
            text = text[:len(text) // 2]
        elif edit == "array":
            text = "[]"
        else:
            manifest = json.loads(text)
            del manifest[edit]
            text = json.dumps(manifest)
        path.write_text(text)
        with pytest.raises(CorruptError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("config.mlp_hidden", 6),
        ("config.tokens", 0),
        ("config.heads", 0),
        ("config.d_shared", "wide"),
        ("config", [1, 2]),
        ("config.batch_size", None),
        ("config.dtype", "float16"),
        ("config.modality", "both"),
        ("config.task", "ranking"),
    ])
    def test_bad_header_value_is_corrupt(self, tmp_path, key, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._params(), path)
        header = json.loads(path.read_text())
        section, _, field = key.rpartition(".")
        (header[section] if section else header)[field] = value
        path.write_text(json.dumps(header))
        with pytest.raises(CorruptError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("seed", "x"), ("learning_rate", "x"),
        ("patience", True), ("mlp_hidden", ["a", 1]),
        # the right type, out of range
        ("learning_rate", -1.0), ("learning_rate", math.nan), ("patience", 0),
        ("mlp_hidden", [0]), ("d_shared", 0)])
    def test_header_value_of_another_type_is_corrupt(self, tmp_path, field,
                                                     value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._params(), path)
        header = json.loads(path.read_text())
        header["config"][field] = value
        path.write_text(json.dumps(header))
        with pytest.raises(CorruptError, match=f"config: {field}"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        bin_path = tmp_path / "m.ckpt.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-10])
        with pytest.raises(CorruptError):
            load_checkpoint(path)

    def test_padded_payload(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._params(), path)
        bin_path = tmp_path / "m.ckpt.bin"
        bin_path.write_bytes(bin_path.read_bytes() + bytes(4))
        with pytest.raises(CorruptError, match="bytes, not the"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,match", [
        ("unknown", "dropout"), ("missing", "seed"), ("invalid", "heads")])
    def test_bad_config(self, tmp_path, edit, match):
        import json
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        manifest = json.loads(path.read_text())
        if edit == "unknown":
            manifest["config"]["dropout"] = 0.1
        elif edit == "missing":
            del manifest["config"]["seed"]
        else:
            manifest["config"]["heads"] = 3
        path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptError, match=match):
            load_checkpoint(path)


def _textbook_adam(theta, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba 2014, Algorithm 1, one straight-line loop."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g ** 2
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestAdam:
    @pytest.mark.parametrize("slab", [None, 5])  # None: the default slab
    def test_matches_textbook_adam(self, monkeypatch, slab):
        if slab is not None:
            monkeypatch.setattr(AdamOptimizer, "SLAB", slab)
        cfg = tiny_config()
        params = init_params(cfg)
        start = params.copy()
        rng = np.random.default_rng(10)
        history = [{k: rng.standard_normal(v.shape) * 10.0 ** rng.integers(
                        -6, 2) for k, v in params.blocks.items()}
                   for _ in range(50)]
        opt = AdamOptimizer(params, lr=0.01)
        for grads in history:
            opt.step(params, grads)
        for name, block in params.blocks.items():
            expected = _textbook_adam(start.blocks[name],
                                      [g[name] for g in history], lr=0.01)
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_descends_on_quadratic(self):
        cfg = tiny_config()
        params = init_params(cfg)
        # minimize ||W||^2 over one block using the optimizer directly
        opt = AdamOptimizer(params, lr=0.05)
        name = "head.W0"
        start = float(np.sum(params.blocks[name] ** 2))
        for _ in range(200):
            grads = {k: (2 * params.blocks[k] if k == name
                         else np.zeros_like(params.blocks[k]))
                     for k in params.blocks}
            opt.step(params, grads)
        assert float(np.sum(params.blocks[name] ** 2)) < 0.01 * start
