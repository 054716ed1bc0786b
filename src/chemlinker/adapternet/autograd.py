"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray. Every operation builds its output with one
constructor, `_node(data, *(parent, gradient function))`, which holds the
tape's rule: the output records only the parents that need a gradient, with
their gradient functions, and records nothing when none does, so a
computation on tensors that train nothing leaves no graph. `backward()` runs
a reverse topological sweep; each node passes to each recorded parent that
parent's gradient function of its own gradient, summed over the axes that
broadcasting expanded. A tensor made by an operation drops its gradient once
it has passed it on to its parents, so after the sweep only leaves hold
`.grad`, and a graph never holds the gradients of all its tensors at once.
No gradient array is written in place, so a tensor keeps the array its child
passed on without a copy. Only the operations needed by the adapter stack
are provided.

The gradient of `a @ b` with respect to `a` is `g @ bᵀ`, and it multiplies
by a contiguous copy of `bᵀ`: numpy multiplies a stacked or broadcast `g`
by a strided transposed view up to twice as slowly, and `b` is most often
a weight, small to copy. The gradient with respect to `b`, `aᵀ @ g`, keeps
the transposed view of `a`: BLAS takes a transposed left operand at full
speed, and a copy of the activation `a` would cost more than it saves.

`layer_norm`, `tanh` and `softmax` take Tensors or plain arrays and return
the kind they are given, with the same arithmetic, so a model written with
them runs with a tape or without one and gives the same values bit for bit.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "parents", "_grad_fns", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.parents = self._grad_fns = ()
        self.requires_grad = requires_grad

    # --- graph mechanics -------------------------------------------------

    def backward(self) -> None:
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.parents and node.grad is not None:
                for p, grad_fn in zip(node.parents, node._grad_fns):
                    p._accum(_unbroadcast(grad_fn(node.grad), p.data.shape))
                node.grad = None   # passed on; only leaves keep a gradient

    def _accum(self, grad) -> None:
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=self.data.dtype)
        else:
            self.grad = self.grad + grad

    # --- operations -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __add__(self, other):
        other = _wrap(other, self)
        return _node(self.data + other.data, (self, _same), (other, _same))

    def __sub__(self, other):
        other = _wrap(other, self)
        return _node(self.data - other.data, (self, _same),
                     (other, np.negative))

    def __mul__(self, other):
        other = _wrap(other, self)
        return _node(self.data * other.data,
                     (self, lambda g: g * other.data),
                     (other, lambda g: g * self.data))

    __radd__ = __add__
    __rmul__ = __mul__

    def __matmul__(self, other):
        return _node(self.data @ other.data,
                     (self, lambda g: g @ np.ascontiguousarray(
                         np.swapaxes(other.data, -1, -2))),
                     (other, lambda g: np.swapaxes(self.data, -1, -2) @ g))

    def swapaxes(self, a: int, b: int):
        return _node(self.data.swapaxes(a, b),
                     (self, lambda g: g.swapaxes(a, b)))

    def reshape(self, shape: tuple):
        return _node(self.data.reshape(shape),
                     (self, lambda g: g.reshape(self.data.shape)))

    def tanh(self):
        y = np.tanh(self.data)
        return _node(y, (self, lambda g: g * (1.0 - y * y)))

    def sum(self, axis=None, keepdims=False):
        def grad(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)
        return _node(self.data.sum(axis=axis, keepdims=keepdims),
                     (self, grad))

    def __getitem__(self, index):
        """Gather along the first axis (embedding lookup)."""
        def grad(g):
            acc = np.zeros_like(self.data)
            np.add.at(acc, index, g)
            return acc
        return _node(self.data[index], (self, grad))

    def rsqrt(self):
        y = _rsqrt(self.data)
        return _node(y, (self, lambda g: g * (-0.5) * y / self.data))

    def softmax(self, scale, mask=None):
        """Softmax over the last axis of `self * scale + mask`."""
        y = softmax(self.data, scale, mask)

        def grad(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            return y * (g - dot) * scale
        return _node(y, (self, grad))

    def log_softmax(self, axis=-1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

        def grad(g):
            return g - np.exp(y) * g.sum(axis=axis, keepdims=True)
        return _node(y, (self, grad))


def _node(data, *edges) -> Tensor:
    """The output of an operation on `data`, with one (parent, gradient
    function of the output's gradient) edge per operand. Only the parents
    that need a gradient are recorded; with none, the output is a plain
    Tensor with no parents and no gradient functions."""
    out = Tensor(data)
    edges = [edge for edge in edges if edge[0].requires_grad]
    if edges:
        out.requires_grad = True
        out.parents, out._grad_fns = zip(*edges)
    return out


def _same(g):
    return g


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(grad, shape):
    """Sum gradient over axes that numpy broadcasting expanded."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Last-axis layer normalization; a mean is a sum times 1/width."""
    scale = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * scale
    var = (centered * centered).sum(axis=-1, keepdims=True) * scale
    return centered * _rsqrt(var + eps) * gain + bias


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def softmax(x, scale, mask=None):
    """Softmax over the last axis of `x * scale + mask`, in one operation, so
    a tape keeps only its output."""
    if isinstance(x, Tensor):
        return x.softmax(scale, mask)
    x = x * scale
    if mask is not None:
        x = x + mask
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _rsqrt(x):
    return x.rsqrt() if isinstance(x, Tensor) else 1.0 / np.sqrt(x)
