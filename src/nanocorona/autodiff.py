"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the fusion model needs are implemented.  Tensors wrap
ndarrays; backward() accumulates gradients into every tensor built with
requires_grad=True.  An op none of whose inputs needs a gradient records no
graph.  Reduction order is fixed, so results are deterministic:
a product of a stack by one matrix, (..., k) @ (k, n), folds the stack into
rows in C order and runs as one 2-D GEMM each way, so its weight gradient is
one sum over all those rows; any other broadcast gradient is summed over its
broadcast axes, the leading axis first.

Python scalars take the dtype of the tensor they meet, so a float32 graph
stays float32.  An op's backward may return None for a parent that needs no
gradient; gradient arrays may be shared between nodes and are never
modified in place.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(),
                 backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or any(
            p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    # -- graph construction helpers ------------------------------------

    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        # NEP 50: a Python scalar is weak, so it adopts this tensor's dtype
        dtype = np.result_type(self.data, other)
        return Tensor(np.asarray(other, dtype=dtype))

    def __add__(self, other):
        other = self._lift(other)

        def backward(g):
            return (_unbroadcast(g, self.shape),
                    _unbroadcast(g, other.shape))
        return _op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return _op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)

        def backward(g):
            return (_unbroadcast(g * other.data, self.shape),
                    _unbroadcast(g * self.data, other.shape))
        return _op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._lift(other)
        if other.data.ndim == 2:
            return self._matmul_folded(other)

        def backward(g):
            da = db = None
            if self.requires_grad:
                da = _unbroadcast(
                    np.matmul(g, np.swapaxes(other.data, -1, -2)), self.shape)
            if other.requires_grad:
                db = _unbroadcast(
                    np.matmul(np.swapaxes(self.data, -1, -2), g), other.shape)
            return da, db
        return _op(np.matmul(self.data, other.data), (self, other), backward)

    def _matmul_folded(self, other):
        """A stack of matrices times one matrix, (..., k) @ (k, n), as one
        GEMM over the stack's folded rows; the weight gradient is one
        K = rows product, not a per-matrix product summed over the stack."""
        x = self.data.reshape(-1, self.shape[-1])

        def backward(g):
            g = g.reshape(-1, other.shape[-1])
            dx = (g @ other.data.T).reshape(self.shape) \
                if self.requires_grad else None
            dw = x.T @ g if other.requires_grad else None
            return dx, dw
        return _op((x @ other.data).reshape(*self.shape[:-1], other.shape[-1]),
                   (self, other), backward)

    def pow(self, p: float):
        return _op(np.power(self.data, p), (self,),
                   lambda g: (g * p * np.power(self.data, p - 1),))

    def reshape(self, *shape):
        return _op(self.data.reshape(*shape), (self,),
                   lambda g: (g.reshape(self.shape),))

    def transpose(self, axes):
        return _op(self.data.transpose(axes), (self,),
                   lambda g: (g.transpose(np.argsort(axes)),))

    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)
        return _op(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                   backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def relu(self):
        mask = self.data > 0
        return _op(np.where(mask, self.data, 0.0), (self,),
                   lambda g: (g * mask,))

    def log(self):
        return _op(np.log(self.data), (self,), lambda g: (g / self.data,))

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        return _op(y, (self,), lambda g: (g * y * (1.0 - y),))

    def clip(self, lo: float, hi: float):
        return _op(np.clip(self.data, lo, hi), (self,), lambda g: (
            g * ((self.data > lo) & (self.data < hi)),))

    def softmax(self):
        """Softmax over the last axis."""
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            return (y * (g - dot),)
        return _op(y, (self,), backward)

    # -- backprop ------------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.asarray(grad)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents,
                                     node._backward(node.grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad
                else:
                    parent.grad = parent.grad + pgrad


def _op(data, parents: tuple, backward) -> Tensor:
    """An op's output.  It keeps its parents and `backward` only when one
    of them needs a gradient, so a forward with none builds no graph and
    frees each intermediate once the next op has read it."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, parents=parents, backward_fn=backward)
    return Tensor(data)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors)))
    return _op(np.concatenate([t.data for t in tensors], axis=axis),
               tuple(tensors), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = (var + eps).pow(-0.5)
    return centered * inv_std * gain + bias
