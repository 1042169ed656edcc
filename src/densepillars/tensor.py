"""Minimal reverse-mode tensor engine.

Implements exactly the operations the detection pipeline needs: conv2d,
the conv of a pillar image computed from its pillars (sparse_conv2d, over
a frame's PillarPlan),
transposed conv, batch norm with an optional fused relu, 2x2 average
pooling, channel concat, linear maps, the max over each group of
consecutive rows (the PFN's per-pillar max), plus a handful of glue ops
(add, scale, reshape, transpose, channel_slice, gather). Data lives in
numpy arrays; float32 is the working precision, float64 is used by the
finite-difference checker.

Each op is a vector-Jacobian product: `make(out, parents, backward)` records
it, and `backward(g)` returns one gradient per parent (None for a parent
that gets none) without touching any tensor's `.grad`. `Tensor.backward` is
the one place gradients are summed, and only for tensors with
`requires_grad`. Only leaves (tensors no op made) keep `.grad`: an
intermediate gradient lives only inside the sweep. An op's backward must
not write into the gradient it receives, since that array may be shared.

A sweep consumes its graph: as it passes an op's output it drops the
output's parents and backward closure, so each activation and gradient is
freed once the sweep is done with it, even while the caller holds the
loss, and a later sweep that reaches a passed output raises
InvariantViolation. `recompute(fn, *inputs)` records fn as one op that
holds only its inputs and output: its forward runs fn without a graph and
its backward reruns fn with one. In the rerun a train-mode batch norm
normalises with the batch's statistics again but leaves its running
statistics as the forward left them.

With a graph, dense blocks and the neck write their parts into one shared
buffer (`batch_norm(out=)`, `channel_concat(out=)`). The batch-norm fold
and streaming are inference-only: the conv ops' bias+ReLU epilogue,
`out=` and `rows=`, and `avg_pool2x2(out=)`, raise when the op would
record a graph. `out=` may be a channel slice or a window of rows of a
larger map, and `rows=` computes only some output rows, from a window of
the input or from a `PillarPlan`'s slice of the pillars: inference runs
each dense block, its transition and pool per band of rows, and the neck
and head per tile of rows, sized by `row_tiles`, so it builds no
full-resolution map it reads only once.
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
        """Reverse-mode sweep from this tensor through its graph, which it
        consumes. Gradients are summed out of place in a map local to the
        sweep, so an array an op hands to two parents (add) is never
        written; only leaves keep one. As the sweep passes an op's output,
        it drops the output's parents and backward closure: every op that
        reads the output has been passed already, so what only backward
        read (activations, their gradients) is freed during the sweep, not
        at its end, even while the caller holds the output. A later sweep
        that reaches a passed output raises InvariantViolation."""
        if grad is None:
            if self.data.size != 1:
                raise ConfigurationError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        grads = {id(self): np.broadcast_to(np.asarray(grad, dtype=self.dtype), self.shape)}

        order = []
        _visit(self, set(), order)
        while order:  # reverse topological order; popping lets each node go
            t = order.pop()
            g = grads.pop(id(t), None)
            parents, backward = t._parents, t._backward
            if backward is not None:
                t._parents, t._backward = (), _swept
            if g is None:
                continue
            if backward is not None:
                for p, gp in zip(parents, backward(g), strict=True):
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


def _swept(g):
    """The backward of an op output that a sweep has passed."""
    raise InvariantViolation("backward through a graph that an earlier backward consumed")


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


def recording(*tensors) -> bool:
    """Whether an op on these tensors would record the graph: recording is
    on and one of them (None counts as absent) requires grad."""
    return _grad_enabled.get() and any(t is not None and t.requires_grad for t in tensors)


def make(out_data, parents, backward):
    """Wrap an op result in a Tensor. `backward(g)` receives the output's
    gradient and returns one gradient per parent, or None for a parent that
    gets none; the graph is wired only when `recording(*parents)`."""
    out = Tensor(out_data)
    if recording(*parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# Whether ops run inside `recompute`'s backward: batch norm then normalises
# with the batch's statistics but leaves its running ones as they are.
_replaying = contextvars.ContextVar("replaying", default=False)


def recompute(fn, *inputs) -> Tensor:
    """fn(*inputs) as one op whose output is all it holds besides its
    inputs: the forward runs fn without a graph, so what fn makes on the
    way is freed at once, and backward reruns fn with a graph on the
    inputs' arrays and sweeps that graph with the output's gradient. fn
    must compute the same output from the same inputs both times. The
    parameters fn reads (a batch norm's γ and β) are leaves of the rerun's
    graph, whose sweep sums their gradients. The op is recorded, as any
    op, when an input requires grad.

    A train-mode batch norm in the rerun normalises with the batch's
    statistics again, which equal the forward's, but does not update the
    running statistics a second time, so fn's batch norms need not be
    named here."""
    with no_grad():
        out = fn(*inputs)

    def backward(g):
        leaves = [Tensor(t.data, requires_grad=t.requires_grad) for t in inputs]
        tokens = _grad_enabled.set(True), _replaying.set(True)
        try:
            rerun = fn(*leaves)
        finally:
            _replaying.reset(tokens[1])
            _grad_enabled.reset(tokens[0])
        rerun.backward(g)
        return tuple(t.grad for t in leaves)

    return make(out.data, inputs, backward)


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


BN_EPS = 1e-5  # added to the variance before its square root
BN_MOMENTUM = 0.1  # weight of a train-mode batch's statistics in the running ones


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    mode: str = "train"

    @staticmethod
    def create(channels, dtype=np.float32):
        return BatchNormParams(
            gamma=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros(channels, dtype=dtype), requires_grad=True),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )

    def fold(self):
        """Eval-mode batch norm as the per-channel map x·a + b, from the
        current running statistics: a = γ/√(σ²+ε) and b = β − μ·a. A conv
        followed by it equals the conv with weight·a and bias b. Both are in
        γ's dtype, whatever the statistics' (a checkpoint may hold float64
        ones), as `batch_norm` casts them to its input's."""
        a = self.gamma.data / np.sqrt(self.running_var + BN_EPS)
        b = self.beta.data - self.running_mean * a
        return a.astype(self.gamma.dtype, copy=False), b.astype(self.gamma.dtype, copy=False)

    def folds(self, *tensors):
        """Whether batch norm folds into the op before it, whose inputs are
        `tensors`: in eval mode, when no graph is recorded (`no_grad`)."""
        return self.mode == "eval" and not recording(self.gamma, self.beta, *tensors)


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


def channel_concat(inputs, out=None) -> Tensor:
    """The inputs stacked along channels, into `out` when given: a part that
    already is its channel slice of `out` (same data pointer and strides,
    written there through an op's `out=`) is not copied again."""
    inputs = list(inputs)
    base = inputs[0].shape
    for t in inputs[1:]:
        if t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ConfigurationError("channel_concat: batch/spatial mismatch")
    bounds = np.cumsum([0] + [t.shape[1] for t in inputs])
    if out is None:
        out = np.concatenate([t.data for t in inputs], axis=1)
    else:
        out, _ = _out_rows(out, (base[0], bounds[-1], *base[2:]),
                           np.result_type(*(t.data for t in inputs)), "channel_concat")
        for t, lo, hi in zip(inputs, bounds[:-1], bounds[1:]):
            dst = out[:, lo:hi]
            if t.data.ctypes.data != dst.ctypes.data or t.data.strides != dst.strides:
                dst[...] = t.data

    def backward(g):
        return np.split(g, bounds[1:-1], axis=1)

    return make(out, inputs, backward)


def channel_slice(a: Tensor, lo: int, hi: int) -> Tensor:
    """a[:, lo:hi], for example the input channels lo..hi of a conv weight;
    backward zero-pads the gradient back to a's shape."""

    def backward(g):
        da = np.zeros(a.shape, dtype=g.dtype)
        da[:, lo:hi] = g
        return (da,)

    return make(a.data[:, lo:hi], (a,), backward)


def gather(x: Tensor, index) -> Tensor:
    """x[index] for an advanced index: a tuple of integer arrays (or ints)
    that broadcast to the output's shape, such as a few anchors' rows read
    straight from a head map. Backward adds the gradient into a zeroed array
    of x's shape at the same entries, so an entry gathered twice gets both."""
    index = tuple(np.asarray(i, dtype=np.intp) for i in index)

    def backward(g):
        dx = np.zeros(x.shape, dtype=g.dtype)
        np.add.at(dx, index, g)
        return (dx,)

    return make(x.data[index], (x,), backward)


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


def row_tiles(rows, row_bytes, multiple=1):
    """Tiles [r0, r1) of `rows` output rows, `row_bytes` bytes of a GEMM's
    input each, that hold about `_TILE_BYTES` of it: at least `multiple`
    rows and a multiple of it, except a last tile that ends at `rows`."""
    step = max(multiple, _TILE_BYTES // row_bytes // multiple * multiple)
    return [(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _span(off, s, lo, hi, n_in):
    """The output indices r of [lo, hi) whose input index off + s·r lies in
    [0, n_in), as a range [a, b) with a <= b."""
    a = max(lo, -(off // s))
    return a, max(a, min(hi, (n_in - 1 - off) // s + 1))


def _taps(shape, k, s, pad, r0, r1, w_out):
    """Per kernel tap (i, j) of a conv's output rows [r0, r1): the tile rows
    [a, b) and output columns [ca, cb) that read inside the unpadded input
    of `shape`, and the input (rows, cols) slices they read, or None when
    none do. The other positions read the zero padding."""
    h, w = shape[2:]
    col_spans = [_span(j - pad, s, 0, w_out, w) for j in range(k)]
    for i in range(k):
        ra, rb = _span(i - pad, s, r0, r1, h)
        for j, (ca, cb) in enumerate(col_spans):
            src = None
            if rb > ra and cb > ca:
                src = (slice(i - pad + s * ra, i - pad + s * (rb - 1) + 1, s),
                       slice(j - pad + s * ca, j - pad + s * (cb - 1) + 1, s))
            yield i, j, (ra - r0, rb - r0), (ca, cb), src


def _im2col(x, k, s, pad, r0, r1, w_out):
    """[N, C, H, W] -> [N, C*k*k, (r1-r0)*W_out]: the columns of output rows
    [r0, r1) of a k x k conv with stride s and zero padding `pad`, rows in
    weight order. It reads x unpadded and zero-fills the taps that fall on
    the padding, so no padded copy of x is made. The columns of a 1x1
    stride-1 conv without padding are a view of x."""
    n, c, h, w = x.shape
    if k == 1 and s == 1 and pad == 0:
        return x.reshape(n, c, h * w)[:, :, r0 * w : r1 * w]
    cols = np.empty((n, c, k, k, r1 - r0, w_out), dtype=x.dtype)
    for i, j, (a, b), (ca, cb), src in _taps(x.shape, k, s, pad, r0, r1, w_out):
        dst = cols[:, :, i, j]
        if a > 0:
            dst[:, :, :a] = 0
        if b < r1 - r0:
            dst[:, :, b:] = 0
        if ca > 0:
            dst[:, :, a:b, :ca] = 0
        if cb < w_out:
            dst[:, :, a:b, cb:] = 0
        if src is not None:
            dst[:, :, a:b, ca:cb] = x[:, :, src[0], src[1]]
    return cols.reshape(n, c * k * k, (r1 - r0) * w_out)


def _epilogue_check(op, fused, *tensors):
    """A conv's bias the op cannot differentiate, `relu`, `out` and `rows`
    serve the batch-norm fold and the banded and tiled inference path,
    which are inference-only: with any of them set (`fused`), recording a
    graph is an error. With a graph, a layer writes its shared buffer
    through `batch_norm(out=)` instead."""
    if fused and recording(*tensors):
        raise ConfigurationError(f"{op}: bias, relu, out= and rows= run only without a graph")


def _out_rows(out, shape, dtype, op):
    """The op's output: `out` when given, which must have the output's
    shape and dtype (a channel slice of a preallocated buffer, say), else a
    new array; returned with its [N, C, H*W] view."""
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != dtype:
        raise ConfigurationError(f"{op}: out is {out.shape} {out.dtype}, expected {shape} {dtype}")
    rows = out.reshape(*shape[:2], -1)
    if not np.may_share_memory(rows, out):
        raise ConfigurationError(f"{op}: out must have a [N, C, H*W] view")
    return out, rows


def _bias_relu(seg, bias, relu):
    """The epilogue on a slice [N, C, L] of an output, in place."""
    if bias is not None:
        seg += bias[:, None]
    if relu:
        np.maximum(seg, 0, out=seg)


def _row_range(rows, h_out, op):
    """[r0, r1) of an op's `rows=`, which must lie in [0, h_out) and hold a
    row; all of them without `rows`."""
    if rows is None:
        return 0, h_out
    r0, r1 = rows
    if not 0 <= r0 < r1 <= h_out:
        raise ConfigurationError(f"{op}: rows {tuple(rows)} not inside [0, {h_out})")
    return r0, r1


def conv2d(x: Tensor, p: Conv2dParams, relu: bool = False, out=None, rows=None) -> Tensor:
    """One GEMM per tile of output rows over that tile's im2col columns (a
    view of x for a 1x1 stride-1 conv), written into the tile's slice of the
    output. The bias is added to the slice, and with `relu` it is clamped
    at 0, while the slice is still in cache. Backward rebuilds each tile
    rather than holding the columns.

    `relu`, `out` (an array of the output's shape and dtype that receives
    it) and `rows` = (r0, r1) (only output rows r0..r1 are computed, so x
    may be a window of a taller map: its rows past x's are zero padding
    only where x ends at the map's own edge) serve the eval-mode fused path
    and raise when the op would record a graph."""
    n, c_in, h, w = x.shape
    c_out, c_in_w, k, _ = p.weight.shape
    if c_in != c_in_w:
        raise ConfigurationError(f"conv2d: input channels {c_in} != weight {c_in_w}")
    _epilogue_check("conv2d", relu or out is not None or rows is not None, x, p.weight, p.bias)
    s, pad = p.stride, p.padding
    h_out = (h + 2 * pad - k) // s + 1
    w_out = (w + 2 * pad - k) // s + 1
    if h_out < 1 or w_out < 1:
        raise ConfigurationError("conv2d: non-positive output size")
    r0, r1 = _row_range(rows, h_out, "conv2d")
    w2 = p.weight.data.reshape(c_out, -1)

    pointwise = k == 1 and s == 1 and pad == 0
    tiles = [(a + r0, b + r0)
             for a, b in row_tiles(r1 - r0, n * w2.shape[1] * w_out * x.data.itemsize)]
    out, flat = _out_rows(out, (n, c_out, r1 - r0, w_out), np.result_type(w2, x.data), "conv2d")
    bias = None if p.bias is None else p.bias.data
    for a, b in tiles:
        seg = flat[:, :, (a - r0) * w_out : (b - r0) * w_out]
        np.matmul(w2, _im2col(x.data, k, s, pad, a, b, w_out), out=seg)
        _bias_relu(seg, bias, relu)

    def backward(g):
        g2 = g.reshape(n, c_out, h_out * w_out)
        w2 = p.weight.data.reshape(c_out, -1)
        db = () if p.bias is None else (g2.sum(axis=(0, 2)),)
        if pointwise:
            dw = np.tensordot(g2, x.data.reshape(n, c_in, h * w), axes=([0, 2], [0, 2]))
            return ((w2.T @ g2).reshape(x.shape), dw.reshape(p.weight.shape), *db)
        dw = np.zeros(w2.shape, dtype=np.result_type(w2, g2))
        dx = np.zeros(x.shape, dtype=dw.dtype)
        for r0, r1 in tiles:
            g_t = g2[:, :, r0 * w_out : r1 * w_out]
            dw += np.tensordot(g_t, _im2col(x.data, k, s, pad, r0, r1, w_out),
                               axes=([0, 2], [0, 2]))
            dcols = (w2.T @ g_t).reshape(n, c_in, k, k, r1 - r0, w_out)
            # col2im over the same clipped ranges: the padding gets no gradient
            for i, j, (a, b), (ca, cb), src in _taps(x.shape, k, s, pad, r0, r1, w_out):
                if src is not None:
                    dx[:, :, src[0], src[1]] += dcols[:, :, i, j, a:b, ca:cb]
        return (dx, dw.reshape(p.weight.shape), *db)

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return make(out, parents, backward)


class PillarPlan:
    """The pillars of one frame, for every `sparse_conv2d` over them: their
    cells `coords` [P, 2] = (row, col) in a grid of `size` = (H, W), checked
    once (inside the grid, no cell twice), and per conv geometry each kernel
    offset's pillars and output cells, built on its first use. Within an
    offset the pillars are in row-major cell order (`pillarize` already
    emits them so), so the ones that feed a band of output rows are one
    slice of it, found by one `np.searchsorted`. A plan serves one frame's
    forward; nothing outlives it."""

    def __init__(self, coords, size):
        coords = np.asarray(coords, dtype=np.intp).reshape(-1, 2)
        self.size = tuple(int(v) for v in size)
        if len(coords) and (coords.min() < 0 or np.any(coords.max(axis=0) >= self.size)):
            raise ConfigurationError("pillar coordinates outside the grid")
        flat = coords[:, 0] * self.size[1] + coords[:, 1]
        self.order = np.argsort(flat, kind="stable")
        if np.any(flat[self.order[1:]] == flat[self.order[:-1]]):
            raise InvariantViolation("duplicate pillar coordinates")
        self._coords = coords[self.order]
        self._geometries = {}

    def __len__(self):
        return self.order.shape[0]

    def offsets(self, k, s, pad):
        """(h_out, w_out, taps, pillars, keys) of a k x k conv with stride s
        and zero padding pad. Offset o, taps[o] = (i, j), owns a run of
        `pillars` (pillar indices) and `keys` (o·H_out·W_out plus the flat
        output cell the pillar feeds); keys increase. A pillar at (r, c)
        feeds output (r + pad - i) / s, (c + pad - j) / s when both divide."""
        if (k, s, pad) not in self._geometries:
            rows, cols = self._coords[:, 0], self._coords[:, 1]
            h_out = (self.size[0] + 2 * pad - k) // s + 1
            w_out = (self.size[1] + 2 * pad - k) // s + 1
            col_parts = []
            for j in range(k):
                co, rem = np.divmod(cols + pad - j, s)
                col_parts.append((co, (rem == 0) & (co >= 0) & (co < w_out)))
            taps, pillars, keys = [], [], []
            for i in range(k):
                ro, rem = np.divmod(rows + pad - i, s)
                row_ok = (rem == 0) & (ro >= 0) & (ro < h_out)
                for j, (co, col_ok) in enumerate(col_parts):
                    sel = np.flatnonzero(row_ok & col_ok)
                    keys.append((len(taps) * h_out + ro[sel]) * w_out + co[sel])
                    pillars.append(self.order[sel])
                    taps.append((i, j))
            self._geometries[k, s, pad] = (h_out, w_out, taps, np.concatenate(pillars),
                                           np.concatenate(keys))
        return self._geometries[k, s, pad]


def sparse_conv2d(features: Tensor, plan: PillarPlan, p: Conv2dParams,
                  onto: Tensor | None = None, relu: bool = False, out=None,
                  rows=None) -> Tensor:
    """conv2d of the [1, C_in, H, W] image that holds row i of `features`
    [P, C_in] at the cell of pillar i of `plan`, in its grid of `plan.size`
    = (H, W), and zeros elsewhere, computed from the P pillars without
    building it.

    Each kernel offset is one GEMM over the pillars that land on an output
    cell. One offset's cells are distinct, since pillar cells are, so a
    1x1 conv adds its products with a plain fancy-index add; with several
    offsets, one `np.bincount` over the keys o·H_out·W_out + cell of a tile
    of output channels o sums them all (a fancy add per offset and channel
    took three times as long on a KITTI frame, and a bincount per channel
    paid per call). A tile's float64 sums hold about a GEMM tile, so a band
    of rows takes one call.
    Backward is the matching gather; it never builds the image's gradient.

    With `onto` [1, C_out, H_out, W_out], the conv is added into onto's
    array in place and onto gets the output's gradient: pass an op output
    that nothing else reads. A bias (added after the sum), `relu`, `out`
    and `rows` = (r0, r1) work as in conv2d: only when no graph is
    recorded. With `rows`, the output (and `onto`) is output rows r0..r1,
    computed from the plan's slice of each offset that feeds them, so a
    band costs its own pillars only. The bias and the clamp run once on the
    summed [C_out, rows·W_out] block."""
    n_p, c_in = features.shape
    c_out, c_in_w, k, _ = p.weight.shape
    if c_in != c_in_w:
        raise ConfigurationError(f"sparse_conv2d: input channels {c_in} != weight {c_in_w}")
    if n_p != len(plan):
        raise ConfigurationError(f"sparse_conv2d: {n_p} feature rows for {len(plan)} pillars")
    _epilogue_check("sparse_conv2d",
                    p.bias is not None or relu or out is not None or rows is not None,
                    features, p.weight, onto)
    if onto is not None and out is not None:
        raise ConfigurationError("sparse_conv2d: give onto or out, not both")
    h_out, w_out, taps, pillars, keys = plan.offsets(k, p.stride, p.padding)
    if h_out < 1 or w_out < 1:
        raise ConfigurationError("sparse_conv2d: non-positive output size")
    r0, r1 = _row_range(rows, h_out, "sparse_conv2d")
    shape = (1, c_out, r1 - r0, w_out)
    if onto is not None and onto.shape != shape:
        raise ConfigurationError(f"sparse_conv2d: onto {onto.shape} != output {shape}")

    # per offset o, the run of its keys (o·H_out·W_out + cell) whose cells lie in rows r0..r1
    first = np.arange(len(taps)) * (h_out * w_out) + r0 * w_out
    runs = np.searchsorted(keys, np.stack([first, first + (r1 - r0) * w_out], axis=1))
    cells = np.concatenate([keys[a:b] - f for f, (a, b) in zip(first, runs)])
    f, wt = features.data, p.weight.data
    bounds = np.cumsum([0] + [b - a for a, b in runs])  # each offset's columns of y
    parts = [(i, j, pillars[a:b], lo, hi)
             for (i, j), (a, b), lo, hi in zip(taps, runs, bounds[:-1], bounds[1:])]
    y = np.empty((c_out, bounds[-1]), dtype=np.result_type(wt, f))
    for i, j, sel, lo, hi in parts:
        np.matmul(wt[:, :, i, j], f[sel].T, out=y[:, lo:hi])
    hw = (r1 - r0) * w_out
    if onto is None:
        out, acc = _out_rows(out, shape, y.dtype, "sparse_conv2d")
        if len(taps) == 1:
            acc[...] = 0
    else:  # onto may be a view, such as a band of rows of a larger map
        out, acc = _out_rows(onto.data, shape, onto.dtype, "sparse_conv2d")
    block = acc[0]  # [C_out, rows·W_out]
    if len(taps) == 1:
        block[:, cells] += y
    else:
        # per tile of channels whose float64 sums hold about a GEMM tile, one
        # bincount over channel-major keys o·hw + cell: each channel's
        # products are summed in the order of its own row of y
        for o0, o1 in row_tiles(c_out, hw * 8):
            bins = (np.arange(o1 - o0)[:, None] * hw + cells).reshape(-1)
            summed = np.bincount(bins, y[o0:o1].reshape(-1), minlength=(o1 - o0) * hw)
            if onto is None:
                block[o0:o1] = summed.reshape(o1 - o0, hw)
            else:
                block[o0:o1] += summed.reshape(o1 - o0, hw)
    _bias_relu(acc, None if p.bias is None else p.bias.data, relu)

    def backward(g):
        gy = np.take(g.reshape(c_out, hw), cells, axis=1)
        dw = np.zeros(wt.shape, dtype=np.result_type(wt, g))
        df = np.zeros(f.shape, dtype=dw.dtype) if features.requires_grad else None
        for i, j, sel, lo, hi in parts:
            dw[:, :, i, j] = gy[:, lo:hi] @ f[sel]
            if df is not None:
                df[sel] += gy[:, lo:hi].T @ wt[:, :, i, j]
        return (df, dw) if onto is None else (df, dw, g)

    parents = (features, p.weight) if onto is None else (features, p.weight, onto)
    return make(out, parents, backward)


def conv_transpose2d(x: Tensor, weight: Tensor, stride: int, bias=None, relu: bool = False,
                     out=None) -> Tensor:
    """Adjoint of a stride-s conv; kernel size must equal the stride, so
    each input pixel feeds its own s x s block of outputs. Forward is one
    GEMM [C_out·s·s, C_in] @ [C_in, pixels] per tile of input rows,
    interleaved into the tile's output rows. `bias` (an array [C_out]),
    `relu` and `out` work as in conv2d: only when no graph is recorded.
    Backward runs two GEMMs in the same layout: wt.T @ g for dx, and x
    against g over the batch and the pixels for dW."""
    n, c_in, h, w = x.shape
    c_in_w, c_out, k, kw = weight.shape
    if k != kw or k != stride:
        raise ConfigurationError("conv_transpose2d requires kernel == stride")
    if stride not in (1, 2, 4):
        raise ConfigurationError("conv_transpose2d stride must be 1, 2 or 4")
    if c_in != c_in_w:
        raise ConfigurationError("conv_transpose2d: channel mismatch")
    _epilogue_check("conv_transpose2d", bias is not None or relu or out is not None, x, weight)

    s = stride
    out, rows = _out_rows(out, (n, c_out, h * s, w * s), np.result_type(x.data, weight.data),
                          "conv_transpose2d")
    blocks = out.reshape(n, c_out, h, s, w, s)
    wt = weight.data.transpose(1, 2, 3, 0).reshape(c_out * s * s, c_in)
    x3 = x.data.reshape(n, c_in, h * w)
    for r0, r1 in row_tiles(h, n * c_in * w * x.data.itemsize):
        y = (wt @ x3[:, :, r0 * w : r1 * w]).reshape(n, c_out, s, s, r1 - r0, w)
        blocks[:, :, r0:r1] = y.transpose(0, 1, 4, 2, 5, 3)
        _bias_relu(rows[:, :, r0 * s * s * w : r1 * s * s * w], bias, relu)

    def backward(g):
        # g in the forward's GEMM layout [N, C_out·s·s, pixels], one copy
        gc = g.reshape(n, c_out, h, s, w, s).transpose(0, 1, 3, 5, 2, 4).reshape(n, -1, h * w)
        return ((wt.T @ gc).reshape(x.shape),
                np.tensordot(x3, gc, axes=([0, 2], [0, 2])).reshape(weight.shape))

    return make(out, (x, weight), backward)


def avg_pool2x2(x: Tensor, out=None) -> Tensor:
    """The mean of each 2x2 window, summed row pair first, then column pair.
    `out` (rows of a larger map, say) receives it, only when no graph is
    recorded: a band of a transition's output is pooled into its rows of
    the tap."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ConfigurationError("avg_pool2x2 requires even spatial dims")
    _epilogue_check("avg_pool2x2", out is not None, x)
    r = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    rows = r[:, :, :, 0] + r[:, :, :, 1]  # [N, C, H/2, W/2, 2]
    out, _ = _out_rows(out, (n, c, h // 2, w // 2), x.dtype, "avg_pool2x2")
    np.add(rows[..., 0], rows[..., 1], out=out)
    out *= 0.25

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
    deviations, which `_padded_row_sum` adds in row order."""
    div = np.intp(count)
    if padded is None:
        mean = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
        np.true_divide(mean, div, out=mean, casting="unsafe")
        sq = np.subtract(x, mean)
        np.square(sq, out=sq)
        var = np.add.reduce(sq, axis=(0, 2, 3))
    else:
        rows = x.reshape(x.shape[:2])
        mean = np.add.reduce(rows, axis=0)
        np.true_divide(mean, div, out=mean, casting="unsafe")
        dev = np.subtract(rows, mean)
        var = _padded_row_sum(np.square(dev, out=dev), np.square(mean), count, padded[1])
    np.true_divide(var, div, out=var, casting="unsafe")
    return mean.reshape(-1), var


def _padded_row_sum(rows, fill, total, at):
    """`np.add.reduce(table, axis=0)` of the [total, C] table whose rows
    `at` are `rows` [N, C] and whose other rows are `fill` [C], bit for bit,
    without the whole table. numpy sums the rows of a C-contiguous table of
    two or more columns one after the other, so the replay fills one tile
    of rows at a time (`row_tiles`) and adds the running sum into the
    tile's first row before summing it. The PFN's [P·S, 64] float32 table
    would be 14.8 MB for a desk scene (1,805 pillars) and 123 MB for the
    14,968 pillars of a KITTI frame."""
    order = np.argsort(at)
    at = np.asarray(at)[order]
    # one column is summed pairwise, not row after row: it is summed whole
    tiles = row_tiles(total, rows.shape[1] * rows.itemsize) if rows.shape[1] > 1 else [(0, total)]
    buf = np.empty((tiles[0][1], rows.shape[1]), dtype=rows.dtype)
    out = None
    for r0, r1 in tiles:
        tile = buf[: r1 - r0]
        tile[:] = fill
        lo, hi = np.searchsorted(at, (r0, r1))
        tile[at[lo:hi] - r0] = rows[order[lo:hi]]
        if out is not None:
            tile[0] += out
        out = np.add.reduce(tile, axis=0)
    return out


def batch_norm(x: Tensor, p: BatchNormParams, relu: bool = False, padded=None,
               out=None) -> Tensor:
    """Per-channel batch norm of [N, C, H, W]; with `relu` the output is
    clamped at 0 in place, so BN+ReLU is one op and one output buffer.
    `out` (a channel slice of a shared buffer, say) receives the output,
    with or without a graph; backward reads it, so nothing may write it later.

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
        if not _replaying.get():  # `recompute`'s rerun: the forward updated them
            p.running_mean += BN_MOMENTUM * (mean.astype(p.running_mean.dtype) - p.running_mean)
            p.running_var += BN_MOMENTUM * (var.astype(p.running_var.dtype) - p.running_var)
    elif p.mode == "eval":
        mean = p.running_mean.astype(x.dtype)
        var = p.running_var.astype(x.dtype)
    else:
        raise ConfigurationError(f"batch_norm: unknown mode {p.mode!r}")

    inv_std = 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=x.dtype))
    a = p.gamma.data * inv_std
    out, _ = _out_rows(out, x.shape, np.result_type(x.data, a), "batch_norm")
    np.multiply(x.data, a[None, :, None, None], out=out)
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

FD_STEP = 1e-6  # the central difference's step h in each input entry


def grad_check(fn, inputs):
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
            flat[i] = orig + FD_STEP
            fp = float(fn(ts).data.sum())
            flat[i] = orig - FD_STEP
            fm = float(fn(ts).data.sum())
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2 * FD_STEP)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst
