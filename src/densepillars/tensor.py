"""Minimal reverse-mode tensor engine.

Implements exactly the operations the detection pipeline needs: conv2d,
transposed conv, batch norm, relu, 2x2 average pooling, channel concat,
affine maps, masked max reduction, plus a handful of glue ops (add, scale,
reshape, transpose). Data lives in numpy arrays; float32 is the working
precision, float64 is used by the finite-difference checker.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Invalid shapes, parameters, or architecture configuration."""


class InvariantViolation(RuntimeError):
    """An internal invariant (finiteness, uniqueness, ...) was broken."""


# Debug switch: when True, every op asserts its output is finite.
CHECK_FINITE = False


def _checked(arr):
    if CHECK_FINITE and not np.all(np.isfinite(arr)):
        raise InvariantViolation("non-finite values produced by tensor op")
    return arr


class Tensor:
    """Dense n-d array with optional gradient accumulation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor through its graph."""
        if grad is None:
            if self.data.size != 1:
                raise ConfigurationError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=self.dtype))

        order = []
        seen = set()

        def visit(t):
            if id(t) in seen:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            order.append(t)

        visit(self)
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


# Whether ops record the graph; per thread and per asyncio task.
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the graph: results have no parents or
    backward closure, so nothing that only backward reads stays alive."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _make(out_data, parents, backward):
    """Wrap an op result, wiring the graph only when a parent needs grads."""
    out = Tensor(_checked(out_data))
    if not _grad_enabled.get():
        return out
    live = [p for p in parents if p.requires_grad or p._parents]
    if live:
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = tuple(live)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class Conv2dParams:
    """weight [C_out, C_in, kH, kW], optional bias [C_out]."""

    weight: Tensor
    bias: Tensor | None = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        kh, kw = self.weight.shape[2], self.weight.shape[3]
        if kh != kw:
            raise ConfigurationError("only square kernels are supported")
        if self.stride not in (1, 2):
            raise ConfigurationError("conv stride must be 1 or 2")
        if self.padding < 0:
            raise ConfigurationError("padding must be non-negative")


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1
    mode: str = "train"

    @staticmethod
    def create(channels, dtype=np.float32, eps=1e-5, momentum=0.1):
        return BatchNormParams(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            eps=eps,
            momentum=momentum,
        )


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ConfigurationError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        a._accumulate(g)
        b._accumulate(g)

    return _make(a.data + b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        a._accumulate(g * s)

    return _make(a.data * s, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape

    def backward(g):
        a._accumulate(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def backward(g):
        a._accumulate(np.transpose(g, inv))

    return _make(np.transpose(a.data, axes), (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g * (a.data > 0))  # subgradient at 0 is 0

    return _make(np.maximum(a.data, 0), (a,), backward)


def channel_concat(inputs) -> Tensor:
    inputs = list(inputs)
    base = inputs[0].shape
    for t in inputs[1:]:
        if t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ConfigurationError("channel_concat: batch/spatial mismatch")
    splits = np.cumsum([t.shape[1] for t in inputs])[:-1]

    def backward(g):
        for t, piece in zip(inputs, np.split(g, splits, axis=1)):
            t._accumulate(piece)

    return _make(np.concatenate([t.data for t in inputs], axis=1), inputs, backward)


def linear_map(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    if x.shape[-1] != weight.shape[0]:
        raise ConfigurationError(
            f"linear_map: inner dims {x.shape[-1]} vs {weight.shape[0]}"
        )
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ weight.data
    if bias is not None:
        out = out + bias.data

    def backward(g):
        g2 = g.reshape(-1, weight.shape[1])
        x._accumulate((g2 @ weight.data.T).reshape(x.shape))
        weight._accumulate(x2.T @ g2)
        if bias is not None:
            bias._accumulate(g2.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out.reshape(*lead, weight.shape[1]), parents, backward)


# ---------------------------------------------------------------------------
# convolution family


def _im2col(x, k, s, pad, h_out, w_out):
    """[N, C, H, W] -> contiguous [N, C*k*k, H_out*W_out], rows in weight order."""
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, c, k, k, h_out, w_out), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + s * h_out : s, j : j + s * w_out : s]
    return cols.reshape(n, c * k * k, h_out * w_out)


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """One GEMM per call over an im2col buffer; a 1x1 stride-1 conv is a
    plain matmul. Backward rebuilds the buffer rather than holding it."""
    n, c_in, h, w = x.shape
    c_out, c_in_w, k, _ = p.weight.shape
    if c_in != c_in_w:
        raise ConfigurationError(f"conv2d: input channels {c_in} != weight {c_in_w}")
    s, pad = p.stride, p.padding
    h_out = (h + 2 * pad - k) // s + 1
    w_out = (w + 2 * pad - k) // s + 1
    if h_out < 1 or w_out < 1:
        raise ConfigurationError("conv2d: non-positive output size")
    pointwise = k == 1 and s == 1 and pad == 0

    def cols_of(data):
        if pointwise:
            return data.reshape(n, c_in, h * w)
        return _im2col(data, k, s, pad, h_out, w_out)

    out = p.weight.data.reshape(c_out, -1) @ cols_of(x.data)
    if p.bias is not None:
        out += p.bias.data[None, :, None]
    out = out.reshape(n, c_out, h_out, w_out)

    def backward(g):
        g2 = g.reshape(n, c_out, h_out * w_out)
        dw = np.tensordot(g2, cols_of(x.data), axes=([0, 2], [0, 2]))
        p.weight._accumulate(dw.reshape(p.weight.shape))
        if p.bias is not None:
            p.bias._accumulate(g2.sum(axis=(0, 2)))
        dcols = p.weight.data.reshape(c_out, -1).T @ g2
        if pointwise:
            x._accumulate(dcols.reshape(x.shape))
            return
        dcols = dcols.reshape(n, c_in, k, k, h_out, w_out)
        dxp = np.zeros((n, c_in, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + s * h_out : s, j : j + s * w_out : s] += dcols[:, :, i, j]
        x._accumulate(dxp[:, :, pad : pad + h, pad : pad + w])

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return _make(out, parents, backward)


def conv_transpose2d(x: Tensor, weight: Tensor, stride: int) -> Tensor:
    """Adjoint of a stride-s conv; kernel size must equal the stride."""
    n, c_in, h, w = x.shape
    c_in_w, c_out, k, kw = weight.shape
    if k != kw or k != stride:
        raise ConfigurationError("conv_transpose2d requires kernel == stride")
    if stride not in (1, 2, 4):
        raise ConfigurationError("conv_transpose2d stride must be 1, 2 or 4")
    if c_in != c_in_w:
        raise ConfigurationError("conv_transpose2d: channel mismatch")

    out = np.einsum("nchw,coij->nohiwj", x.data, weight.data, optimize=True)
    out = np.ascontiguousarray(out.reshape(n, c_out, h * stride, w * stride))

    def backward(g):
        gr = g.reshape(n, c_out, h, stride, w, stride)
        x._accumulate(np.einsum("nohiwj,coij->nchw", gr, weight.data, optimize=True))
        weight._accumulate(np.einsum("nohiwj,nchw->coij", gr, x.data, optimize=True))

    return _make(out, (x, weight), backward)


def avg_pool2x2(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ConfigurationError("avg_pool2x2 requires even spatial dims")
    out = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def backward(g):
        x._accumulate(np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25)

    return _make(out, (x,), backward)


def batch_norm(x: Tensor, p: BatchNormParams) -> Tensor:
    n, c, h, w = x.shape
    if c != p.gamma.shape[0]:
        raise ConfigurationError("batch_norm: channel mismatch")
    axes = (0, 2, 3)
    if p.mode == "train":
        count = n * h * w
        if count < 2:
            raise ConfigurationError("batch_norm: degenerate batch in train mode")
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        p.running_mean += p.momentum * (mean.astype(p.running_mean.dtype) - p.running_mean)
        p.running_var += p.momentum * (var.astype(p.running_var.dtype) - p.running_var)
    elif p.mode == "eval":
        mean = p.running_mean.astype(x.dtype)
        var = p.running_var.astype(x.dtype)
    else:
        raise ConfigurationError(f"batch_norm: unknown mode {p.mode!r}")

    inv_std = 1.0 / np.sqrt(var + np.asarray(p.eps, dtype=x.dtype))
    a = p.gamma.data * inv_std
    out = x.data * a[None, :, None, None]
    out += (p.beta.data - mean * a)[None, :, None, None]

    def x_hat():
        return (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]

    if p.mode == "eval":

        def backward(g):
            x._accumulate(g * a[None, :, None, None])
            p.gamma._accumulate((g * x_hat()).sum(axis=axes))
            p.beta._accumulate(g.sum(axis=axes))

    else:

        def backward(g):
            xh = x_hat()
            p.gamma._accumulate((g * xh).sum(axis=axes))
            p.beta._accumulate(g.sum(axis=axes))
            gy = g * p.gamma.data[None, :, None, None]
            mean_gy = gy.mean(axis=axes)[None, :, None, None]
            mean_gy_xhat = (gy * xh).mean(axis=axes)[None, :, None, None]
            dx = (gy - mean_gy - xh * mean_gy_xhat) * inv_std[None, :, None, None]
            x._accumulate(dx)

    return _make(out, (x, p.gamma, p.beta), backward)


def max_over_axis(x: Tensor, axis: int, mask=None) -> Tensor:
    """Max reduction; masked-out slots are excluded, empty groups yield 0."""
    axis = axis % x.data.ndim

    def masked():
        if mask is None:
            return x.data
        return np.where(np.broadcast_to(np.asarray(mask, dtype=bool), x.shape), x.data, -np.inf)

    out = masked().max(axis=axis)
    empty = ~np.isfinite(out)
    out = np.where(empty, 0.0, out).astype(x.dtype)

    def backward(g):
        arg = masked().argmax(axis=axis)  # ties resolve to lowest index
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, np.expand_dims(arg, axis),
                          np.expand_dims(np.where(empty, 0.0, g), axis), axis)
        x._accumulate(dx)

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(fn, inputs, h=1e-6):
    """Max relative error between reverse-mode and central-difference grads.

    `fn` maps a list of float64 Tensors to a scalar Tensor. Inputs are
    upcast to float64; the analytic path runs through the same ops the
    pipeline uses.
    """
    ts = [Tensor(np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64),
                 requires_grad=True) for t in inputs]
    out = fn(ts)
    if out.data.size != 1:
        raise ConfigurationError("grad_check target must be scalar")
    for t in ts:
        t.zero_grad()
    out.backward()

    worst = 0.0
    for t in ts:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(ts).data.item()
            flat[i] = orig - h
            fm = fn(ts).data.item()
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2 * h)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst
