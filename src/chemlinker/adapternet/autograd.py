"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and records its parents plus a backward closure on
a global tape implied by the graph structure. `backward()` runs a reverse
topological sweep accumulating gradients into `.grad` of the tensors that
require them; matmul and multiply skip the gradient of an operand that does
not. A tensor made by an operation drops its gradient once it has passed it
on to its parents, so after the sweep only leaves hold `.grad`, and a graph
never holds the gradients of all its tensors at once. No gradient array is
written in place, so a tensor keeps the array its child passed on without a
copy. Only the operations needed by the adapter stack are provided.

`layer_norm`, `tanh` and `softmax` take Tensors or plain arrays and return
the kind they are given, with the same arithmetic, so a model written with
them runs with a tape or without one and gives the same values bit for bit.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.parents = parents
        self._backward = backward
        self.requires_grad = requires_grad or any(
            p.requires_grad for p in parents)

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
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node.parents:
                node.grad = None   # passed on; only leaves keep a gradient

    def _accum(self, grad) -> None:
        if not self.requires_grad:
            return
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
        out = Tensor(self.data + other.data, (self, other))

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))
        out._backward = backward
        return out

    def __sub__(self, other):
        other = _wrap(other, self)
        out = Tensor(self.data - other.data, (self, other))

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(-g, other.data.shape))
        out._backward = backward
        return out

    def __mul__(self, other):
        other = _wrap(other, self)
        out = Tensor(self.data * other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))
        out._backward = backward
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __matmul__(self, other):
        out = Tensor(self.data @ other.data, (self, other))

        def backward(g):
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accum(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accum(_unbroadcast(gb, other.data.shape))
        out._backward = backward
        return out

    def swapaxes(self, a: int, b: int):
        out = Tensor(self.data.swapaxes(a, b), (self,))

        def backward(g):
            self._accum(g.swapaxes(a, b))
        out._backward = backward
        return out

    def reshape(self, shape: tuple):
        out = Tensor(self.data.reshape(shape), (self,))

        def backward(g):
            self._accum(g.reshape(self.data.shape))
        out._backward = backward
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, (self,))

        def backward(g):
            self._accum(g * (1.0 - y * y))
        out._backward = backward
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))
        out._backward = backward
        return out

    def __getitem__(self, index):
        """Gather along the first axis (embedding lookup)."""
        out = Tensor(self.data[index], (self,))

        def backward(g):
            acc = np.zeros_like(self.data)
            np.add.at(acc, index, g)
            self._accum(acc)
        out._backward = backward
        return out

    def rsqrt(self):
        y = 1.0 / np.sqrt(self.data)
        out = Tensor(y, (self,))

        def backward(g):
            self._accum(g * (-0.5) * y / self.data)
        out._backward = backward
        return out

    def softmax(self, scale, mask=None):
        """Softmax over the last axis of `self * scale + mask`."""
        x = self.data * scale
        if mask is not None:
            x = x + mask
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)
        out = Tensor(y, (self,))

        def backward(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            self._accum(y * (g - dot) * scale)
        out._backward = backward
        return out

    def log_softmax(self, axis=-1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        y = shifted - lse
        out = Tensor(y, (self,))

        def backward(g):
            soft = np.exp(y)
            self._accum(g - soft * g.sum(axis=axis, keepdims=True))
        out._backward = backward
        return out


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(grad, shape):
    """Sum gradient over axes that numpy broadcasting expanded."""
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
