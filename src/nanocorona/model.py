"""Multimodal fusion model: projections into a shared latent space,
bidirectional multi-head cross-attention, and an MLP head, trained with
adaptive-moment gradient descent.

Single-modality variants replace cross-attention with self-attention over
the one projected stream and halve the head input width.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import Tensor, concat, layer_norm
from .errors import (
    CorruptError,
    DimensionError,
    EmptyInputError,
    NonFiniteError,
    NoPositivesError,
    VersionError,
)
from .metrics import classification_metrics, regression_metrics
from .schema import write_atomic, write_json_atomic

CHECKPOINT_SCHEMA_VERSION = 2

MODALITY_FUSED = "fused"
MODALITY_PROTEIN_ONLY = "protein_only"
MODALITY_TEXT_ONLY = "text_only"


def fits_default(value, default) -> bool:
    """Whether a config may hold `value` where its default is `default`: a
    value of the default's type and not a bool, where a float default also
    takes an int, a null one a string, and a tuple one a list or tuple of
    values that fit its first item."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(
            fits_default(v, default[0]) for v in value)
    kind = {float: (int, float), type(None): (str, type(None))}.get(
        type(default), type(default))
    return not isinstance(value, bool) and isinstance(value, kind)


@dataclass
class ModelConfig:
    task: str = "classification"  # "classification" | "regression"
    modality: str = MODALITY_FUSED
    protein_dim: int = 2560
    text_dim: int = 4096
    d_shared: int = 1024
    tokens: int = 8
    heads: int = 8
    mlp_hidden: tuple = (512, 128)
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not fits_default(value, f.default):
                raise ValueError(f"{f.name}: {value!r} does not have the "
                                 f"type of its default {f.default!r}")
        self.mlp_hidden = tuple(self.mlp_hidden)
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.modality not in (MODALITY_FUSED, MODALITY_PROTEIN_ONLY,
                                 MODALITY_TEXT_ONLY):
            raise ValueError(f"unknown modality {self.modality!r}")
        for name in ("d_shared", "tokens", "heads", "batch_size",
                     "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: {getattr(self, name)!r} is "
                                 f"below 1")
        if any(width < 1 for width in self.mlp_hidden):
            raise ValueError(f"mlp_hidden: {list(self.mlp_hidden)} holds a "
                             f"width below 1")
        if not 0 < self.learning_rate < math.inf:  # nan compares false
            raise ValueError(f"learning_rate: {self.learning_rate!r} is not "
                             f"a finite number above 0")
        if self.d_shared % self.tokens:
            raise ValueError("tokens must divide d_shared")
        if self.token_dim % self.heads:
            raise ValueError("heads must divide token_dim")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")

    @property
    def token_dim(self) -> int:
        return self.d_shared // self.tokens

    @property
    def head_dim(self) -> int:
        return self.token_dim // self.heads

    @property
    def head_input_dim(self) -> int:
        # each attended stream flattens back to d_shared; the fused model
        # concatenates its two directed streams
        return 2 * self.d_shared if self.modality == MODALITY_FUSED \
            else self.d_shared

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


def _block_specs(config: ModelConfig) -> list[tuple[str, tuple]]:
    """Ordered (name, shape) table for every parameter block."""
    td = config.token_dim
    specs: list[tuple[str, tuple]] = []
    if config.modality in (MODALITY_FUSED, MODALITY_PROTEIN_ONLY):
        specs.append(("proj_protein.W", (config.protein_dim, config.d_shared)))
        specs.append(("proj_protein.b", (config.d_shared,)))
    if config.modality in (MODALITY_FUSED, MODALITY_TEXT_ONLY):
        specs.append(("proj_text.W", (config.text_dim, config.d_shared)))
        specs.append(("proj_text.b", (config.d_shared,)))
    directions = (["p2t", "t2p"] if config.modality == MODALITY_FUSED
                  else ["self"])
    for d in directions:
        for w in ("Wq", "Wk", "Wv", "Wo"):
            specs.append((f"attn_{d}.{w}", (td, td)))
        specs.append((f"attn_{d}.ln_gain", (td,)))
        specs.append((f"attn_{d}.ln_bias", (td,)))
    widths = [config.head_input_dim, *config.mlp_hidden, 1]
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        specs.append((f"head.W{i}", (fan_in, fan_out)))
        specs.append((f"head.b{i}", (fan_out,)))
    return specs


@dataclass
class ModelParams:
    config: ModelConfig
    blocks: dict  # name -> np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=copy.deepcopy(self.config),
            blocks={k: v.copy() for k, v in self.blocks.items()})


def init_params(config: ModelConfig) -> ModelParams:
    """Fan-in-scaled zero-mean weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(config.seed)
    dtype = config.np_dtype
    blocks = {}
    for name, shape in _block_specs(config):
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "ln_gain":
            blocks[name] = np.ones(shape, dtype=dtype)
        elif leaf == "ln_bias" or leaf.startswith("b"):
            blocks[name] = np.zeros(shape, dtype=dtype)
        else:
            draw = rng.standard_normal(shape)
            draw *= np.sqrt(2.0 / shape[0])  # fan-in
            blocks[name] = draw.astype(dtype, copy=False)
    return ModelParams(config=config, blocks=blocks)


def parameter_count(config: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in _block_specs(config))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")


def project(embedding: np.ndarray | Tensor, weight: Tensor,
            bias: Tensor, config: ModelConfig) -> Tensor:
    """Affine map to d_shared, reshaped row-major into tokens.

    A raw embedding array is cast to the weight's dtype first.
    """
    x = embedding if isinstance(embedding, Tensor) \
        else Tensor(np.asarray(embedding, dtype=weight.data.dtype))
    if x.shape[-1] != weight.shape[0]:
        raise DimensionError(
            f"embedding dim {x.shape[-1]} != projection input "
            f"{weight.shape[0]}")
    projected = x @ weight + bias
    batch = projected.shape[0]
    return projected.reshape(batch, config.tokens, config.token_dim)


@dataclass(frozen=True)
class UniqueRows:
    """A matrix held as its distinct rows: row i is unique[index[i]].
    Indexing it gives dense rows, as indexing the matrix would."""
    unique: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows) -> np.ndarray:
        return self.unique[self.index[rows]]

    def take(self, rows) -> "UniqueRows":
        return UniqueRows(self.unique, self.index[rows])


# OpenBLAS computes a row of x @ w one of three ways: by gemv for a one-row
# x, by small-matrix kernels while rows * K * N <= SMALL_GEMM, and by
# blocked gemm above that; rows computed one way are bit-identical, whatever
# the other rows are.
SMALL_GEMM = 10 ** 6


def _route(rows: int, width: int) -> int:
    """The way (0 gemv, 1 small kernels, 2 blocked gemm) that computes x @ w
    for an x of `rows` rows and a w of K * N = `width` entries."""
    return 0 if rows == 1 else 1 if rows * width <= SMALL_GEMM else 2


def _least_rows(route: int, width: int) -> int:
    """The fewest rows of an x that `_route` sends the given way."""
    return (1, 2, max(2, SMALL_GEMM // width + 1))[route]


def _split_heads(x: Tensor, config: ModelConfig) -> Tensor:
    b, t, _ = x.shape
    h, hd = config.heads, config.head_dim
    return x.reshape(b, t, h, hd).transpose((0, 2, 1, 3))


def attention_probs(queries: Tensor, keys: Tensor, blocks: dict,
                    prefix: str, config: ModelConfig) -> Tensor:
    """Per-head attention distributions, shape (batch, heads, T, T)."""
    q = _split_heads(queries @ blocks[f"{prefix}.Wq"], config)
    k = _split_heads(keys @ blocks[f"{prefix}.Wk"], config)
    scale = 1.0 / math.sqrt(config.head_dim)  # a Python float keeps dtype
    scores = (q @ k.transpose((0, 1, 3, 2))) * scale
    return scores.softmax()


def cross_attention(queries: Tensor, keys_values: Tensor, blocks: dict,
                    prefix: str, config: ModelConfig) -> Tensor:
    """Multi-head scaled dot-product attention of queries over keys/values.

    Output projection, residual to the queries, and layer norm follow the
    head concatenation.  Setting keys_values = queries gives self-attention.
    """
    b, t, td = queries.shape
    probs = attention_probs(queries, keys_values, blocks, prefix, config)
    v = _split_heads(keys_values @ blocks[f"{prefix}.Wv"], config)
    attended = probs @ v
    merged = attended.transpose((0, 2, 1, 3)).reshape(b, t, td)
    out = merged @ blocks[f"{prefix}.Wo"] + queries
    return layer_norm(out, blocks[f"{prefix}.ln_gain"],
                      blocks[f"{prefix}.ln_bias"])


def _head(fused: Tensor, blocks: dict, config: ModelConfig) -> Tensor:
    h = fused
    n_layers = len(config.mlp_hidden) + 1
    for i in range(n_layers):
        h = h @ blocks[f"head.W{i}"] + blocks[f"head.b{i}"]
        if i < n_layers - 1:
            h = h.relu()
    return h.reshape(h.shape[0])


def _as_tensors(params: ModelParams, trainable: bool) -> dict:
    return {name: Tensor(arr, requires_grad=trainable)
            for name, arr in params.blocks.items()}


def _tokens(embedding: np.ndarray | UniqueRows | None, blocks: dict,
            modality: str, config: ModelConfig) -> Tensor:
    """One modality's embeddings, checked and projected into tokens.  A
    UniqueRows whose projection needs no gradient is checked and projected
    on its distinct rows, then gathered: bit-identical to the dense path,
    as the distinct rows take the BLAS route its dense rows take.  Too few
    of them for that route are padded with zero rows up to its least row
    count; only too many (as after a `take`) project the dense rows."""
    if embedding is None:
        raise DimensionError(f"{modality} embeddings required")
    weight, bias = blocks[f"proj_{modality}.W"], blocks[f"proj_{modality}.b"]
    if isinstance(embedding, UniqueRows):
        unique = embedding.unique
        width = unique.shape[1] * weight.shape[1]
        route = _route(len(embedding), width)
        have = _route(len(unique), width)
        if weight.requires_grad or have > route:
            embedding = embedding[:]
        elif have < route:
            unique = np.concatenate([unique, np.zeros(
                (_least_rows(route, width) - len(unique), unique.shape[1]),
                unique.dtype)])
    if not isinstance(embedding, UniqueRows):
        _check_finite(embedding, f"{modality} embeddings")
        return project(embedding, weight, bias, config)
    _check_finite(unique, f"{modality} embeddings")
    return Tensor(project(unique, weight, bias, config).data[embedding.index])


def _fuse(params: ModelParams, protein: np.ndarray | UniqueRows | None,
          text: np.ndarray | UniqueRows | None, blocks: dict) -> Tensor:
    """The head's input: each modality projected, then attended."""
    config = params.config
    if config.modality in (MODALITY_FUSED, MODALITY_PROTEIN_ONLY):
        p_tok = _tokens(protein, blocks, "protein", config)
    if config.modality in (MODALITY_FUSED, MODALITY_TEXT_ONLY):
        x_tok = _tokens(text, blocks, "text", config)

    b = len(protein if protein is not None else text)
    if config.modality == MODALITY_FUSED:
        p_attends_x = cross_attention(p_tok, x_tok, blocks, "attn_p2t", config)
        x_attends_p = cross_attention(x_tok, p_tok, blocks, "attn_t2p", config)
        return concat([p_attends_x.reshape(b, config.d_shared),
                       x_attends_p.reshape(b, config.d_shared)], axis=-1)
    tok = p_tok if config.modality == MODALITY_PROTEIN_ONLY else x_tok
    attended = cross_attention(tok, tok, blocks, "attn_self", config)
    return attended.reshape(b, config.d_shared)


def _predict(fused: Tensor, blocks: dict, config: ModelConfig) -> Tensor:
    out = _head(fused, blocks, config)
    return out.sigmoid() if config.task == "classification" else out


def forward_graph(params: ModelParams,
                  protein: np.ndarray | UniqueRows | None,
                  text: np.ndarray | UniqueRows | None,
                  blocks: dict) -> Tensor:
    """Build the forward graph on pre-lifted parameter tensors."""
    return _predict(_fuse(params, protein, text, blocks), blocks,
                    params.config)


def forward(params: ModelParams, protein: np.ndarray | UniqueRows | None,
            text: np.ndarray | UniqueRows | None) -> np.ndarray:
    """Evaluate the model; classification yields probabilities in (0, 1).
    A UniqueRows input is projected once per distinct row."""
    blocks = _as_tensors(params, trainable=False)
    out = forward_graph(params, protein, text, blocks)
    _check_finite(out.data, "model output")
    return out.data.copy()


# ---------------------------------------------------------------------------
# losses and gradients
# ---------------------------------------------------------------------------


def compute_pos_weight(n_neg: int, n_pos: int) -> float:
    """Positive-class loss weight: twice the negative/positive ratio."""
    if n_pos < 1:
        raise NoPositivesError("no positive instances")
    return 2.0 * n_neg / n_pos


PROB_EPS = 1e-7


def weighted_bce(probabilities: Tensor | np.ndarray, labels: np.ndarray,
                 w_pos: float):
    """Mean of -(w_pos*y*ln p + (1-y)*ln(1-p)) with probability clamping."""
    is_tensor = isinstance(probabilities, Tensor)
    p = probabilities if is_tensor else Tensor(np.asarray(probabilities))
    y = np.asarray(labels, dtype=p.data.dtype)
    p = p.clip(PROB_EPS, 1.0 - PROB_EPS)
    loss = -(w_pos * Tensor(y) * p.log()
             + Tensor(1.0 - y) * (1.0 - p).log()).mean()
    return loss if is_tensor else float(loss.data)


def mse_loss(predictions: Tensor | np.ndarray, targets: np.ndarray):
    is_tensor = isinstance(predictions, Tensor)
    pred = predictions if is_tensor else Tensor(np.asarray(predictions))
    t = np.asarray(targets, dtype=pred.data.dtype)
    diff = pred - Tensor(t)
    loss = (diff * diff).mean()
    return loss if is_tensor else float(loss.data)


def _backprop(params: ModelParams, blocks: dict, out: Tensor,
              labels: np.ndarray, w_pos: float):
    """Loss of `out`, computed from `blocks`, and each block's gradient."""
    if params.config.task == "classification":
        loss = weighted_bce(out, labels, w_pos)
    else:
        loss = mse_loss(out, labels)
    if not np.isfinite(loss.data):
        raise NonFiniteError("non-finite loss")
    loss.backward()
    return float(loss.data), {
        name: tensor.grad.astype(params.blocks[name].dtype, copy=False)
        for name, tensor in blocks.items()}


def compute_gradients(params: ModelParams, protein: np.ndarray | None,
                      text: np.ndarray | None, labels: np.ndarray,
                      w_pos: float = 1.0):
    """Loss value and per-block gradients."""
    blocks = _as_tensors(params, trainable=True)
    out = forward_graph(params, protein, text, blocks)
    return _backprop(params, blocks, out, labels, w_pos)


class AdamOptimizer:
    """Adaptive moment estimation with bias correction (Kingma & Ba 2014).

    Updates the moments and the parameter arrays in place, a cache-sized
    slab of rows at a time.  Both bias corrections are folded into the step
    size and epsilon (their section 2), which is algebraically the same
    update as their Algorithm 1.  Moments, slab rows and scratch exist only
    for the blocks of the params the optimizer is built with.
    """

    SLAB = 1 << 16  # elements per slab, so an update's operands stay cached

    def __init__(self, params: ModelParams, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.blocks.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.blocks.items()}
        # a slab is whole leading-axis rows; every block has the config's
        # dtype, so one scratch array holds the largest slab
        self._rows = {name: max(1, self.SLAB // (arr.size // len(arr)))
                      for name, arr in params.blocks.items()}
        self._scratch = np.empty(
            max(min(len(arr), self._rows[name]) * (arr.size // len(arr))
                for name, arr in params.blocks.items()),
            dtype=params.config.np_dtype)

    def step(self, params: ModelParams, grads: dict) -> None:
        self.t += 1
        root_bc2 = math.sqrt(1.0 - self.beta2 ** self.t)
        # lr * m_hat / (sqrt(v_hat) + eps)
        #   == step_size * m / (sqrt(v) + eps_hat)
        step_size = self.lr * root_bc2 / (1.0 - self.beta1 ** self.t)
        eps_hat = self.eps * root_bc2
        for name, rows in self._rows.items():
            theta = params.blocks[name]
            for lo in range(0, len(theta), rows):
                part = slice(lo, lo + rows)
                self._update(theta[part], grads[name][part],
                             self.m[name][part], self.v[name][part],
                             step_size, eps_hat)

    def _update(self, theta, g, m, v, step_size, eps_hat) -> None:
        b1, b2 = self.beta1, self.beta2
        tmp = self._scratch[:theta.size].reshape(theta.shape)
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += eps_hat
        np.divide(m, tmp, out=tmp)
        tmp *= step_size
        theta -= tmp


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_metric: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def _val_metric(params: ModelParams, data) -> float:
    protein, text, labels = data
    return score(forward(params, protein, text), labels, params.config.task)


def metric_kind(labels: np.ndarray, task: str) -> str:
    """Name of the metric `score` computes on these labels: "F1", or "R2"
    for regression, or where R^2 is undefined (a one-row view, or constant
    targets) "-MSE", the negative mean squared error."""
    if task == "classification":
        return "F1"
    targets = np.asarray(labels, dtype=np.float64)
    if len(targets) < 2 or np.all(targets == targets[0]):
        return "-MSE"
    return "R2"


def score(scores: np.ndarray, labels: np.ndarray, task: str) -> float:
    """Validation score that early stopping maximises, the metric
    `metric_kind` names."""
    kind = metric_kind(labels, task)
    if kind == "F1":
        return classification_metrics(scores, labels)["f1"]
    if kind == "R2":
        return regression_metrics(scores, labels)["r2"]
    return -float(np.mean((scores - np.asarray(labels, dtype=np.float64))
                          ** 2))


def _fit(params: ModelParams, labels: np.ndarray, batch_grads, val_metric,
         config: ModelConfig) -> tuple:
    """Mini-batch Adam on the rows of `labels`, keeping the params of the
    best `val_metric(params)`; `batch_grads(params, idx, labels[idx], w_pos)`
    gives the loss and every block's gradient on the rows `idx`."""
    n = len(labels)
    n_pos = int(np.sum(labels == 1))
    w_pos = compute_pos_weight(int(np.sum(labels == 0)), n_pos) \
        if config.task == "classification" and n_pos else 1.0
    optimizer = AdamOptimizer(params, lr=config.learning_rate)
    history = TrainHistory()
    best, best_params = -np.inf, None  # the first epoch improves on -inf
    since_best = 0
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, grads = batch_grads(params, idx, labels[idx], w_pos)
            optimizer.step(params, grads)
            # freed now, not held through the next batch's backward pass or
            # the last one's validation and best-params copy
            del grads
            epoch_loss += loss
            n_batches += 1
        history.train_loss.append(epoch_loss / n_batches)
        metric = val_metric(params)
        history.val_metric.append(metric)
        if metric > best:
            best = metric
            best_params = params.copy()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                history.stopped_early = True
                break
    return best_params, history


def train(data_train, data_val, config: ModelConfig,
          params: ModelParams | None = None) -> tuple:
    """Mini-batch Adam training with best-val early stopping.

    data_* are (protein, text, labels) with None for an absent modality;
    each batch is gathered from a UniqueRows input's distinct rows.  Training
    starts from `params`, whose config is `config` and whose blocks it
    updates in place, or else from `init_params(config)`.  Fully
    deterministic for a fixed (config, data, params) triple.
    """
    protein, text, labels = data_train
    for view, data in (("train", data_train), ("val", data_val)):
        if len(data[2]) == 0:
            raise EmptyInputError(f"the {config.task} {view} view has no "
                                  f"rows")

    def batch_grads(params, idx, batch_labels, w_pos):
        batch = [x[idx] if x is not None else None for x in (protein, text)]
        return compute_gradients(params, *batch, batch_labels, w_pos)

    params = init_params(config) if params is None else params
    return _fit(params, labels, batch_grads,
                lambda params: _val_metric(params, data_val), config)


def finetune(base: ModelParams, data, config: ModelConfig) -> tuple:
    """Train only the prediction head, on a 70:15:15 internal split of the
    base model's fused features, which are computed once for every row."""
    protein, text, labels = data
    n = len(labels)
    order = np.random.default_rng(config.seed).permutation(n)
    n_train = int(round(n * 0.70))
    n_val = int(round(n * 0.15))
    idx_train = order[:n_train]
    idx_val = order[n_train:n_train + n_val]
    idx_test = order[n_train + n_val:]
    if n_train == 0 or n_val == 0:
        raise EmptyInputError(f"finetune needs train and val rows: {n} "
                              f"rows give {n_train} train, {n_val} val")

    features = _fuse(base, protein, text,
                     _as_tensors(base, trainable=False)).data
    head = ModelParams(config=base.config, blocks={
        k: v.copy() for k, v in base.blocks.items() if k.startswith("head.")})

    def batch_grads(params, idx, batch_labels, w_pos):
        blocks = _as_tensors(params, trainable=True)
        out = _predict(Tensor(features[idx_train[idx]]), blocks,
                       params.config)
        return _backprop(params, blocks, out, batch_labels, w_pos)

    def val_metric(params):
        scores = _predict(Tensor(features[idx_val]),
                          _as_tensors(params, trainable=False),
                          params.config).data
        _check_finite(scores, "model output")
        return score(scores, labels[idx_val], params.config.task)

    best, history = _fit(head, labels[idx_train], batch_grads, val_metric,
                         config)
    tuned = base.copy()
    tuned.blocks.update(best.blocks)
    return tuned, history, (idx_train, idx_val, idx_test)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(params: ModelParams, path) -> None:
    """JSON header at `path` (schema version and config); at `path`.bin the
    blocks of `_block_specs` in name order, float32 LE and back to back.
    Each file is written atomically, the payload first."""
    path = str(path)
    payload = np.concatenate(
        [params.blocks[name].ravel()
         for name, _ in sorted(_block_specs(params.config))], dtype="<f4")
    write_atomic(path + ".bin", payload)
    write_json_atomic(path, {"schema_version": CHECKPOINT_SCHEMA_VERSION,
                             "config": asdict(params.config)},
                      indent=1, sort_keys=True)


def load_checkpoint(path) -> ModelParams:
    """The model `save_checkpoint` wrote at `path`; other header fields are
    ignored.  An invalid header, or a payload missing or of another size
    than its blocks, raises E_CORRUPT; another schema version E_VERSION."""
    path = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            header = json.load(fh)
    except ValueError as exc:
        raise CorruptError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise CorruptError(f"{path}: header is not a JSON object")
    if header.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise VersionError(
            f"unsupported schema version {header.get('schema_version')}")
    stored = header.get("config")
    if not isinstance(stored, dict):
        raise CorruptError(f"{path}: config is not a JSON object")
    known = {f.name for f in fields(ModelConfig)}
    unknown, missing = sorted(set(stored) - known), sorted(known - set(stored))
    if unknown or missing:
        raise CorruptError(f"{path}: config has unknown keys {unknown}, "
                           f"missing keys {missing}")
    try:
        config = ModelConfig(**stored)
    except (TypeError, ValueError) as exc:
        raise CorruptError(f"{path}: config: {exc}") from None
    try:
        # one writable buffer; float32 blocks are views into it
        payload = np.fromfile(path + ".bin", np.uint8)
    except FileNotFoundError:
        raise CorruptError(f"{path}.bin: payload file is missing") from None
    size = 4 * parameter_count(config)
    if len(payload) != size:
        raise CorruptError(f"{path}.bin: {len(payload)} bytes, not the "
                           f"{size} its config's blocks take")
    blocks, offset = {}, 0
    for name, shape in sorted(_block_specs(config)):
        count = math.prod(shape)
        blocks[name] = np.frombuffer(payload, "<f4", count, offset) \
            .reshape(shape).astype(config.np_dtype, copy=False)
        offset += 4 * count
    return ModelParams(config=config, blocks=blocks)
