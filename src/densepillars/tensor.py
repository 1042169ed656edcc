"""Minimal reverse-mode tensor engine.

Implements exactly the operations the detection pipeline needs: conv2d,
the conv of a pillar image computed from its pillars (sparse_conv2d),
transposed conv, batch norm with an optional fused relu, 2x2 average
pooling, channel concat, linear maps, the max over each group of
consecutive rows (the PFN's per-pillar max), plus a handful of glue ops
(add, scale, reshape, transpose, channel_slice). Data lives in numpy arrays; float32 is
the working precision, float64 is used by the finite-difference checker.

Each op is a vector-Jacobian product: `make(out, parents, backward)` records
it, and `backward(g)` returns one gradient per parent (None for a parent
that gets none) without touching any tensor's `.grad`. `Tensor.backward` is
the one place gradients are summed, and only for tensors with
`requires_grad`. Only leaves (tensors no op made) keep `.grad`: an
intermediate gradient lives only inside the sweep. An op's backward must
not write into the gradient it receives, since that array may be shared.
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

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor through its graph. Gradients
        are summed out of place in a map local to the sweep, so an array an
        op hands to two parents (add) is never written; only leaves keep one."""
        if grad is None:
            if self.data.size != 1:
                raise ConfigurationError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        grads = {id(self): np.broadcast_to(np.asarray(grad, dtype=self.dtype), self.shape)}

        order = []
        _visit(self, set(), order)
        for t in reversed(order):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t._backward is not None:
                for p, gp in zip(t._parents, t._backward(g), strict=True):
                    if gp is not None and p.requires_grad:
                        gp = gp.astype(p.dtype, copy=False)
                        prev = grads.get(id(p))
                        grads[id(p)] = gp if prev is None else prev + gp
            elif t.grad is None:
                t.grad = np.array(g)  # a leaf's own copy: g may be shared
            else:
                t.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _visit(t, seen, order):
    """Append t's graph to `order`, parents first. Not a closure in
    `backward`: a closure that calls itself is a reference cycle, which would
    keep the whole graph, activations and gradients, alive until the cycle
    collector runs instead of freeing it when the caller drops the output."""
    if id(t) in seen:
        return
    seen.add(id(t))
    for p in t._parents:
        _visit(p, seen, order)
    order.append(t)


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


def make(out_data, parents, backward):
    """Wrap an op result in a Tensor. `backward(g)` receives the output's
    gradient and returns one gradient per parent, or None for a parent that
    gets none; the graph is wired only when recording is on and a parent
    requires grad."""
    out = Tensor(out_data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
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
        return g, g

    return make(a.data + b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return (g * s,)

    return make(a.data * s, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape

    def backward(g):
        return (g.reshape(orig),)

    return make(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inv),)

    return make(np.transpose(a.data, axes), (a,), backward)


def channel_concat(inputs) -> Tensor:
    inputs = list(inputs)
    base = inputs[0].shape
    for t in inputs[1:]:
        if t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ConfigurationError("channel_concat: batch/spatial mismatch")
    splits = np.cumsum([t.shape[1] for t in inputs])[:-1]

    def backward(g):
        return np.split(g, splits, axis=1)

    return make(np.concatenate([t.data for t in inputs], axis=1), inputs, backward)


def channel_slice(a: Tensor, lo: int, hi: int) -> Tensor:
    """a[:, lo:hi], for example the input channels lo..hi of a conv weight;
    backward zero-pads the gradient back to a's shape."""

    def backward(g):
        da = np.zeros(a.shape, dtype=g.dtype)
        da[:, lo:hi] = g
        return (da,)

    return make(a.data[:, lo:hi], (a,), backward)


def linear_map(x: Tensor, weight: Tensor) -> Tensor:
    if x.shape[-1] != weight.shape[0]:
        raise ConfigurationError(
            f"linear_map: inner dims {x.shape[-1]} vs {weight.shape[0]}"
        )
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])

    def backward(g):
        g2 = g.reshape(-1, weight.shape[1])
        # no input gradient for a constant input (the PFN features)
        dx = (g2 @ weight.data.T).reshape(x.shape) if x.requires_grad else None
        return dx, x2.T @ g2

    return make((x2 @ weight.data).reshape(*lead, weight.shape[1]), (x, weight), backward)


# ---------------------------------------------------------------------------
# convolution family


# Bytes of im2col scratch per GEMM. A conv fills and multiplies its columns
# in tiles of output rows of about this size, so the scratch stays near cache
# size instead of growing with the image (a whole-image buffer for a 64->32
# 3x3 conv on the 496x432 KITTI grid is 494 MB).
_TILE_BYTES = 2 << 20


def _im2col(xp, k, s, r0, r1, w_out):
    """Padded [N, C, Hp, Wp] -> contiguous [N, C*k*k, (r1-r0)*W_out]: the
    columns of output rows [r0, r1), rows in weight order."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, k, k, r1 - r0, w_out), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i + s * r0 : i + s * r1 : s, j : j + s * w_out : s]
    return cols.reshape(n, c * k * k, (r1 - r0) * w_out)


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """A 1x1 stride-1 conv is one plain matmul. Any other conv runs one GEMM
    per tile of output rows over that tile's im2col columns, writing into
    its slice of the output; backward rebuilds each tile rather than
    holding the columns."""
    n, c_in, h, w = x.shape
    c_out, c_in_w, k, _ = p.weight.shape
    if c_in != c_in_w:
        raise ConfigurationError(f"conv2d: input channels {c_in} != weight {c_in_w}")
    s, pad = p.stride, p.padding
    h_out = (h + 2 * pad - k) // s + 1
    w_out = (w + 2 * pad - k) // s + 1
    if h_out < 1 or w_out < 1:
        raise ConfigurationError("conv2d: non-positive output size")
    w2 = p.weight.data.reshape(c_out, -1)

    def padded():
        return np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data

    pointwise = k == 1 and s == 1 and pad == 0
    step = max(1, _TILE_BYTES // (n * w2.shape[1] * w_out * x.data.itemsize))
    tiles = [(r0, min(r0 + step, h_out)) for r0 in range(0, h_out, step)]
    if pointwise:
        out = w2 @ x.data.reshape(n, c_in, h * w)
    else:
        xp = padded()
        out = np.empty((n, c_out, h_out * w_out), dtype=np.result_type(w2, x.data))
        for r0, r1 in tiles:
            out[:, :, r0 * w_out : r1 * w_out] = w2 @ _im2col(xp, k, s, r0, r1, w_out)
    if p.bias is not None:
        out += p.bias.data[None, :, None]
    out = out.reshape(n, c_out, h_out, w_out)

    def backward(g):
        g2 = g.reshape(n, c_out, h_out * w_out)
        w2 = p.weight.data.reshape(c_out, -1)
        db = () if p.bias is None else (g2.sum(axis=(0, 2)),)
        if pointwise:
            dw = np.tensordot(g2, x.data.reshape(n, c_in, h * w), axes=([0, 2], [0, 2]))
            return ((w2.T @ g2).reshape(x.shape), dw.reshape(p.weight.shape), *db)
        xp = padded()
        dw = np.zeros(w2.shape, dtype=np.result_type(w2, g2))
        dxp = np.zeros(xp.shape, dtype=dw.dtype)
        for r0, r1 in tiles:
            g_t = g2[:, :, r0 * w_out : r1 * w_out]
            dw += np.tensordot(g_t, _im2col(xp, k, s, r0, r1, w_out), axes=([0, 2], [0, 2]))
            dcols = (w2.T @ g_t).reshape(n, c_in, k, k, r1 - r0, w_out)
            for i in range(k):
                for j in range(k):
                    dxp[:, :, i + s * r0 : i + s * r1 : s, j : j + s * w_out : s] += (
                        dcols[:, :, i, j]
                    )
        return (dxp[:, :, pad : pad + h, pad : pad + w], dw.reshape(p.weight.shape), *db)

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return make(out, parents, backward)


def _offset_cells(coords, size, k, s, pad):
    """Per kernel offset (i, j): the pillars whose cell it maps onto an
    output cell, and those output cells as flat indices. A pillar at (r, c)
    feeds output (r + pad - i) / s, (c + pad - j) / s when both divide."""
    rows, cols = coords[:, 0], coords[:, 1]
    h_out = (size[0] + 2 * pad - k) // s + 1
    w_out = (size[1] + 2 * pad - k) // s + 1
    col_parts = []
    for j in range(k):
        co, rem = np.divmod(cols + pad - j, s)
        col_parts.append((co, (rem == 0) & (co >= 0) & (co < w_out)))
    offsets = []
    for i in range(k):
        ro, rem = np.divmod(rows + pad - i, s)
        row_ok = (rem == 0) & (ro >= 0) & (ro < h_out)
        for j, (co, col_ok) in enumerate(col_parts):
            sel = np.flatnonzero(row_ok & col_ok)
            offsets.append((i, j, sel, ro[sel] * w_out + co[sel]))
    return h_out, w_out, offsets


def sparse_conv2d(features: Tensor, coords, size, p: Conv2dParams,
                  onto: Tensor | None = None) -> Tensor:
    """conv2d of the [1, C_in, H, W] image that holds row i of `features`
    [P, C_in] at cell coords[i] = (row, col) of a grid of `size` = (H, W)
    and zeros elsewhere, computed from the P pillars without building it.

    Each kernel offset is one GEMM over the pillars that land on an output
    cell. One offset's cells are distinct, since pillar cells are, so a
    1x1 conv adds its products with a plain fancy-index add; with several
    offsets, one `np.bincount` per output channel sums them all (a fancy
    add per offset and channel took three times as long on a KITTI frame).
    Backward is the matching gather; it never builds the image's gradient.

    With `onto` [1, C_out, H_out, W_out], the conv is added into onto's
    array in place and onto gets the output's gradient: pass an op output
    that nothing else reads."""
    n_p, c_in = features.shape
    c_out, c_in_w, k, _ = p.weight.shape
    if c_in != c_in_w:
        raise ConfigurationError(f"sparse_conv2d: input channels {c_in} != weight {c_in_w}")
    if p.bias is not None:
        raise ConfigurationError("sparse_conv2d takes no bias")
    coords = np.asarray(coords, dtype=np.intp).reshape(n_p, 2)
    if n_p and (coords.min() < 0 or np.any(coords.max(axis=0) >= size)):
        raise ConfigurationError("sparse_conv2d: pillar coordinates outside the grid")
    if np.unique(coords[:, 0] * size[1] + coords[:, 1]).shape[0] != n_p:
        raise InvariantViolation("duplicate pillar coordinates in sparse_conv2d")
    h_out, w_out, offsets = _offset_cells(coords, size, k, p.stride, p.padding)
    if h_out < 1 or w_out < 1:
        raise ConfigurationError("sparse_conv2d: non-positive output size")
    shape = (1, c_out, h_out, w_out)
    if onto is not None and onto.shape != shape:
        raise ConfigurationError(f"sparse_conv2d: onto {onto.shape} != output {shape}")

    f, wt = features.data, p.weight.data
    bounds = np.cumsum([0] + [len(sel) for _, _, sel, _ in offsets])
    spans = list(zip(bounds[:-1], bounds[1:]))  # each offset's columns of y
    cells = np.concatenate([t for _, _, _, t in offsets])
    y = np.empty((c_out, bounds[-1]), dtype=np.result_type(wt, f))
    for (i, j, sel, _), (a, b) in zip(offsets, spans):
        np.matmul(wt[:, :, i, j], f[sel].T, out=y[:, a:b])
    hw = h_out * w_out
    out = np.zeros((c_out, hw), dtype=y.dtype) if onto is None else onto.data.reshape(c_out, hw)
    for o in range(c_out):
        if len(offsets) == 1:
            out[o][cells] += y[o]
        else:
            out[o] += np.bincount(cells, y[o], minlength=hw)

    def backward(g):
        g2 = g.reshape(c_out, hw)
        gy = np.take(g2, cells, axis=1)
        dw = np.zeros(wt.shape, dtype=np.result_type(wt, g2))
        df = np.zeros(f.shape, dtype=dw.dtype) if features.requires_grad else None
        for (i, j, sel, _), (a, b) in zip(offsets, spans):
            dw[:, :, i, j] = gy[:, a:b] @ f[sel]
            if df is not None:
                df[sel] += gy[:, a:b].T @ wt[:, :, i, j]
        return (df, dw) if onto is None else (df, dw, g)

    parents = (features, p.weight) if onto is None else (features, p.weight, onto)
    return make(out.reshape(shape), parents, backward)


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
        return (np.einsum("nohiwj,coij->nchw", gr, weight.data, optimize=True),
                np.einsum("nohiwj,nchw->coij", gr, x.data, optimize=True))

    return make(out, (x, weight), backward)


def avg_pool2x2(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ConfigurationError("avg_pool2x2 requires even spatial dims")
    r = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    rows = r[:, :, :, 0] + r[:, :, :, 1]  # [N, C, H/2, W/2, 2]
    out = (rows[..., 0] + rows[..., 1]) * 0.25

    def backward(g):
        return (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25,)

    return make(out, (x,), backward)


def _train_stats(x, count, padded):
    """Per-channel train-mode mean and variance of x [N, C, H, W], bit for
    bit those of numpy's `mean` and `var` (sum, divide, centre, square,
    sum, divide), with the mean computed once.

    With `padded` = (total, at), the statistics are those of a batch of
    `total` rows whose rows `at` are x's and whose other rows are exact
    zeros. A zero row adds nothing to the sum but mean² to the squared
    deviations, so a scratch [total, C] buffer replays those in row order."""
    div = np.intp(count)
    if padded is None:
        mean = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
        np.true_divide(mean, div, out=mean, casting="unsafe")
        sq = np.subtract(x, mean)
        np.square(sq, out=sq)
        axes = (0, 2, 3)
    else:
        rows = x.reshape(x.shape[:2])
        mean = np.add.reduce(rows, axis=0)
        np.true_divide(mean, div, out=mean, casting="unsafe")
        sq = np.empty((count, rows.shape[1]), dtype=x.dtype)
        sq[:] = np.square(mean)
        dev = np.subtract(rows, mean)
        sq[padded[1]] = np.square(dev, out=dev)
        axes = 0
    var = np.add.reduce(sq, axis=axes)
    np.true_divide(var, div, out=var, casting="unsafe")
    return mean.reshape(-1), var


def batch_norm(x: Tensor, p: BatchNormParams, relu: bool = False, padded=None) -> Tensor:
    """Per-channel batch norm of [N, C, H, W]; with `relu` the output is
    clamped at 0 in place, so BN+ReLU is one op and one output buffer.

    `padded` = (total, at) normalises x [N, C, 1, 1] as rows `at` of a
    batch of `total` rows whose other rows are zero (the PFN's point rows
    among its P·S slots): train mode uses that batch's count and
    statistics. The zero rows have no output here, so they get no gradient.

    Backward never rebuilds x_hat: with Σg and Σg·x per channel,
    Σg·x_hat = (Σg·x - mean·Σg)·inv_std, and dx is g·a - x·k2 + k3 with
    per-channel constants (k2 = k3 = 0 in eval mode)."""
    n, c, h, w = x.shape
    if c != p.gamma.shape[0]:
        raise ConfigurationError("batch_norm: channel mismatch")
    if padded is not None and ((h, w) != (1, 1) or len(padded[1]) != n):
        raise ConfigurationError("batch_norm: padded rows must be [N, C, 1, 1], one index each")
    count = n * h * w if padded is None else padded[0]
    train = p.mode == "train"
    if train:
        if count < 2:
            raise ConfigurationError("batch_norm: degenerate batch in train mode")
        mean, var = _train_stats(x.data, count, padded)
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
    if relu:
        np.maximum(out, 0, out=out)

    def backward(g):
        if relu:
            g = g * (out > 0)  # subgradient at 0 is 0; a new buffer dx may reuse
        sum_g = np.einsum("nchw->c", g)
        sum_g_xhat = (np.einsum("nchw,nchw->c", g, x.data) - mean * sum_g) * inv_std
        dx = np.multiply(g, a[None, :, None, None], out=g if relu else None)
        if train:
            # dx = a·(g - Σg/count - x_hat·Σg·x_hat/count), x_hat expanded
            k2 = a * inv_std * sum_g_xhat / count
            k3 = mean * k2 - a * sum_g / count
            dx -= x.data * k2[None, :, None, None]
            dx += k3[None, :, None, None]
        return dx, sum_g_xhat, sum_g

    return make(out, (x, p.gamma, p.beta), backward)


def segment_max(x: Tensor, starts) -> Tensor:
    """Max over consecutive row groups: group i is rows starts[i] up to the
    next start (or the end), and every group must hold a row.

    Most groups are one or two rows (a pillar of a KITTI frame holds 1.1
    points on average), so the max takes one vectorised step per rank k,
    folding in the k-th row of every group longer than k.
    `np.maximum.reduceat` pays per group and channel instead: 27 ms against
    2 ms on a KITTI frame's [16700, 64] PFN rows. Backward sends each
    gradient to the group's first row equal to the max."""
    n = x.shape[0]
    starts = np.asarray(starts, dtype=np.intp)
    sizes = np.diff(starts, append=n)
    if starts.shape[0] == 0 or starts[0] != 0 or np.any(sizes < 1):
        raise ConfigurationError("segment_max: groups must split the rows, none empty")
    longer = [np.flatnonzero(sizes > k) for k in range(sizes.max())]  # [0] is every group
    out = x.data[starts]
    for k in range(1, len(longer)):
        grp = longer[k]
        out[grp] = np.maximum(out[grp], x.data[starts[grp] + k])

    def backward(g):
        first = np.empty(out.shape, dtype=np.intp)  # the row of each max
        for k in reversed(range(len(longer))):  # the lowest row equal to the max wins
            grp = longer[k]
            rows = starts[grp] + k
            hit = x.data[rows] == out[grp]
            first[grp] = np.where(hit, rows.reshape(-1, *(1,) * (out.ndim - 1)), first[grp])
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, first, g, axis=0)
        return (dx,)

    return make(out, (x,), backward)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(fn, inputs, h=1e-6):
    """Max relative error between reverse-mode and central-difference grads
    of the sum of `fn`'s outputs.

    `fn` maps a list of float64 Tensors to a Tensor of any shape. Inputs are
    upcast to float64; the analytic path runs through the same ops the
    pipeline uses.
    """
    ts = [Tensor(np.asarray(t.data if isinstance(t, Tensor) else t, dtype=np.float64),
                 requires_grad=True) for t in inputs]
    out = fn(ts)
    for t in ts:
        t.zero_grad()
    out.backward(1.0)  # broadcast to every output entry: the gradient of the sum

    worst = 0.0
    for t in ts:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn(ts).data.sum())
            flat[i] = orig - h
            fm = float(fn(ts).data.sum())
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2 * h)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst
