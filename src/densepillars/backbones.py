"""The dense-connectivity backbone and the baseline stride-2 conv backbone.

Both read the pillar features at their grid cells and emit three
multi-scale taps with identical shapes (strides 2, 4, 8 relative to the
pillar grid), so one can replace the other without touching the encoder,
neck, or head. The layers that read the pillars (the dense block-1 first
conv and the pillar channels of its transition, the baseline's first entry
conv) run as `tensor.sparse_conv2d` over one `tensor.PillarPlan` per
frame, which equals the conv of the scattered pseudo-image without
building it. A dense block with its transition and pool is one call of one
of two functions. `_whole_block` runs on whole maps, with a graph where one
is recorded; its stages write into one shared buffer, their concatenation.
`_stream_block` runs in eval mode with no graph: each conv + batch norm +
relu runs as one conv, and the layers, the transition and the 2x2 pool run
per band of rows into the tap's rows, over a window that keeps one halo row
per 3x3 layer, so no full-height stage buffer or transition output is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import PFN_CHANNELS
from .tensor import ConfigurationError, Tensor

# Widths of the three taps (strides 2, 4 and 8) that both backbones emit by
# default and the neck reads.
TAP_CHANNELS = (64, 128, 256)


@dataclass
class GrowthSchedule:
    mode: str = "table_matched"  # fixed | doubling | table_matched
    k: int = 32  # fixed rate, or the block-1 rate for doubling

    TABLE_MATCHED = (32, 32, 64)

    def rate(self, block: int) -> int:
        """Growth rate for block 1..n_blocks."""
        if block < 1:
            raise ConfigurationError("block index is 1-based")
        if self.mode == "fixed":
            return self.k
        if self.mode == "doubling":
            return self.k * (2 ** (block - 1))
        if self.mode == "table_matched":
            if block > len(self.TABLE_MATCHED):
                raise ConfigurationError(
                    f"table-matched growth has rates for {len(self.TABLE_MATCHED)} blocks, "
                    f"not block {block}")
            return self.TABLE_MATCHED[block - 1]
        raise ConfigurationError(f"unknown growth mode {self.mode!r}")


@dataclass
class DenseBackboneSpec:
    layers_per_block: tuple = (3, 5, 5)
    growth: GrowthSchedule = field(default_factory=GrowthSchedule)
    transition_out_channels: tuple = TAP_CHANNELS

    def __post_init__(self):
        if len(self.layers_per_block) != len(self.transition_out_channels):
            raise ConfigurationError("layers_per_block / transition channels mismatch")
        for b, n in enumerate(self.layers_per_block, start=1):
            k = self.growth.rate(b)  # an unknown mode or a block past the table raises here
            if n < 1 or k < 1:
                raise ConfigurationError(f"dense block {b} has {n} layers of growth rate {k}; "
                                         "it needs at least one layer and a rate of at least 1")

    @property
    def n_blocks(self):
        return len(self.layers_per_block)


@dataclass
class BaselineBackboneSpec:
    layers_per_block: tuple = (3, 5, 5)  # convs after each stride-2 entry conv
    channels: tuple = TAP_CHANNELS

    @property
    def n_blocks(self):
        return len(self.layers_per_block)


def he_conv_weight(rng, c_out, c_in, k):
    std = np.sqrt(2.0 / (c_out * k * k))
    return rng.normal(0.0, std, size=(c_out, c_in, k, k)).astype(np.float32)


class ConvBNRelu:
    """3x3 or 1x1 conv (no bias) + batch norm + relu."""

    def __init__(self, rng, c_in, c_out, k, stride=1, padding=0):
        self.conv = T.Conv2dParams(
            Tensor(he_conv_weight(rng, c_out, c_in, k), requires_grad=True),
            bias=None,
            stride=stride,
            padding=padding,
        )
        self.bn = T.BatchNormParams.create(c_out)

    def folded(self):
        """The conv with this layer's eval batch norm folded in, from the
        current running statistics; nothing is cached."""
        a, b = self.bn.fold()
        return T.Conv2dParams(Tensor(self.conv.weight.data * a[:, None, None, None]),
                              Tensor(b), self.conv.stride, self.conv.padding)

    def forward(self, x, out=None):
        """The output, into `out` when given; batch norm folded in if it folds."""
        if self.bn.folds(x, self.conv.weight):
            return T.conv2d(x, self.folded(), relu=True, out=out)
        return T.batch_norm(T.conv2d(x, self.conv), self.bn, relu=True, out=out)

    def forward_sparse(self, features, plan, out=None):
        """`forward` of the pseudo-image holding the pillar features [P, C]
        at the cells of `plan`, a `T.PillarPlan`."""
        if self.bn.folds(features, self.conv.weight):
            return T.sparse_conv2d(features, plan, self.folded(), relu=True, out=out)
        return T.batch_norm(T.sparse_conv2d(features, plan, self.conv), self.bn,
                            relu=True, out=out)

    def named_params(self, prefix):
        return {
            f"{prefix}.conv.weight": self.conv.weight,
            f"{prefix}.bn.gamma": self.bn.gamma,
            f"{prefix}.bn.beta": self.bn.beta,
        }

    def bn_list(self):
        return [self.bn]


def _chain(h, layers, buf):
    """The concat [h, h1, h2, ...] into buf, which h heads: the layers run
    as a chain from h, each writing its output into buf's next channels."""
    feats, lo = [h], h.shape[1]
    for layer in layers:
        feats.append(layer.forward(feats[-1], out=buf[:, lo : lo + layer.conv.weight.shape[0]]))
        lo += feats[-1].shape[1]
    return T.channel_concat(feats, out=buf)


def _folds(layers, trans, x=None, pillars=None):
    """Whether every batch norm of a dense block and its transition folds
    for the block input (eval mode, no graph)."""
    x = x if pillars is None else pillars[0]
    return all(m.bn.folds(x, m.conv.weight) for m in (*layers, trans))


def _split(p, c_in):
    """A block-1 transition conv `p` as its part over the c_in pillar
    channels, which keeps the bias, and its part over the stages."""
    w = p.weight
    return (T.Conv2dParams(T.channel_slice(w, 0, c_in), p.bias),
            T.Conv2dParams(T.channel_slice(w, c_in, w.shape[1])))


def _whole_block(layers, trans, x=None, pillars=None):
    """The tap of a dense block, its 1x1 transition and the 2x2 pool, on
    whole maps (with the graph, where one is recorded), from its input x
    [N, C, H, W] or, for block 1, from `pillars` = (features, plan). The
    stages write into one buffer as wide as the transition's input, which
    their concat returns uncopied. From x it starts with a copy of x; from
    the pillars the first layer is sparse, the buffer holds only the stages
    and the transition adds the sparse 1x1 product of its pillar channels.

    The transition's batch norm, ReLU and pool run as one `T.recompute`, so
    a graph holds the transition conv's output (which batch norm's backward
    reads anyway) and the tap, not the full-resolution normalised map."""
    c_cat = trans.conv.weight.shape[1]
    if pillars is None:
        buf = np.empty((x.shape[0], c_cat, *x.shape[2:]), dtype=x.dtype)
        mixed = T.conv2d(_chain(x, layers, buf), trans.conv)
    else:
        features, plan = pillars
        buf = np.empty((1, c_cat - features.shape[1], *plan.size), dtype=features.dtype)
        h = layers[0].forward_sparse(features, plan, out=buf[:, : layers[0].conv.weight.shape[0]])
        cat = _chain(h, layers[1:], buf)
        pillar_conv, stage_conv = _split(trans.conv, features.shape[1])
        mixed = T.sparse_conv2d(features, plan, pillar_conv, onto=T.conv2d(cat, stage_conv))
    return T.recompute(lambda m: T.avg_pool2x2(T.batch_norm(m, trans.bn, relu=True)), mixed)


def _stream_block(layers, trans, x=None, pillars=None):
    """The tap of a dense block, its 1x1 transition and the 2x2 pool, in
    eval mode with no graph, from its input x [N, C, H, W] or, for block 1,
    from `pillars` = (features, plan): then the first layer is sparse and
    the transition adds the sparse 1x1 product of the pillar channels of
    its weight (bias and clamp after it), so the stages hold no x.

    Each band of an even number of rows (`T.row_tiles` over the stage
    channels) runs the transition over the band's rows of every stage and
    pools it into its rows of the tap. Before that, each layer extends its
    stage by the rows the band and the layers after it need: layer g runs
    up to row r1 + L - g of a block of L layers, which reads one halo row
    below from the stage before it. The stages live in one window of rows
    [r0 - 1, r1 + L): the rows from r0 - 1 on, the top halo, move to its
    head before each band, so no row is computed twice. Zero padding
    applies only at the grid's own top and bottom rows (`conv2d(rows=)`).
    Each layer and the transition fold batch norm once per call."""
    convs = [layer.folded() for layer in layers]
    t = trans.folded()
    if pillars is None:
        n, c0, h, w = x.shape
        dtype = x.dtype
    else:
        features, plan = pillars
        (n, c0), (h, w), dtype = (1, 0), plan.size, features.dtype
        pillar_conv, t = _split(t, features.shape[1])
    depth = len(convs)
    edges = np.cumsum([0, c0] + [c.weight.shape[0] for c in convs])  # x, h1, ..., hL
    bands = T.row_tiles(h, n * edges[-1] * w * np.dtype(dtype).itemsize, 2)
    win = np.empty((n, edges[-1], bands[0][1] + depth + 1, w), dtype=dtype)
    scratch = np.empty((n, t.weight.shape[0], bands[0][1], w),
                       dtype=np.result_type(t.weight.data, win))
    tap = np.empty((*scratch.shape[:2], h // 2, w // 2), dtype=scratch.dtype)
    first = 0 if pillars is None else 1  # the first stage in the window
    done = [0] * (depth + 1)  # rows of each stage computed so far
    top = -1  # the grid row of the window's first row
    for r0, r1 in bands:
        if r0:
            win[:, :, : done[first] - r0 + 1] = win[:, :, r0 - 1 - top : done[first] - top]
            top = r0 - 1
        for g in range(first, depth + 1):
            a, b = done[g], min(h, r1 + depth - g)
            if a == b:
                continue
            dst = win[:, edges[g] : edges[g + 1], a - top : b - top]
            if g == 0:
                dst[...] = x.data[:, :, a:b]
            elif pillars is not None and g == 1:
                T.sparse_conv2d(features, plan, convs[0], relu=True, out=dst, rows=(a, b))
            else:
                ia, ib = max(0, a - 1), min(h, b + 1)
                src = Tensor(win[:, edges[g - 1] : edges[g], ia - top : ib - top])
                T.conv2d(src, convs[g - 1], relu=True, out=dst, rows=(a - ia, b - ia))
            done[g] = b
        band = T.conv2d(Tensor(win[:, :, r0 - top : r1 - top]), t, relu=pillars is None,
                        out=scratch[:, :, : r1 - r0])
        if pillars is not None:
            T.sparse_conv2d(features, plan, pillar_conv, onto=band, relu=True, rows=(r0, r1))
        T.avg_pool2x2(band, out=tap[:, :, r0 // 2 : r1 // 2])
    return Tensor(tap)


class DenseBackbone:
    """Dense blocks + transition layers producing strides 2/4/8 taps. Each
    transition is DenseNet's: a 1x1 conv, then 2x2 average pooling."""

    def __init__(self, spec: DenseBackboneSpec, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.blocks = []
        self.transitions = []
        c_in = PFN_CHANNELS
        for b in range(1, spec.n_blocks + 1):
            k = spec.growth.rate(b)
            n = spec.layers_per_block[b - 1]
            layers = [ConvBNRelu(rng, c_in if i == 0 else k, k, 3, padding=1) for i in range(n)]
            self.blocks.append(layers)
            concat_c = c_in + n * k
            c_out = spec.transition_out_channels[b - 1]
            self.transitions.append(ConvBNRelu(rng, concat_c, c_out, 1))
            c_in = c_out

    def forward(self, features, coords, size):
        """Taps from the pillar features [P, C] at grid cells `coords` of a
        grid of `size` = (H, W). A block whose every batch norm folds
        streams by bands of rows (`_stream_block`); any other block runs on
        whole maps (`_whole_block`)."""
        src = {"pillars": (features, T.PillarPlan(coords, size))}
        taps = []
        for layers, trans in zip(self.blocks, self.transitions):
            block = _stream_block if _folds(layers, trans, **src) else _whole_block
            taps.append(block(layers, trans, **src))
            src = {"x": taps[-1]}
        return taps

    def named_params(self, prefix="backbone"):
        out = {}
        for b, (layers, trans) in enumerate(zip(self.blocks, self.transitions), start=1):
            for i, layer in enumerate(layers, start=1):
                out.update(layer.named_params(f"{prefix}.block{b}.layer{i}"))
            out.update(trans.named_params(f"{prefix}.block{b}.transition"))
        return out

    def bn_list(self):
        bns = []
        for layers, trans in zip(self.blocks, self.transitions):
            for layer in layers:
                bns.extend(layer.bn_list())
            bns.extend(trans.bn_list())
        return bns


class BaselineBackbone:
    """Stride-2 entry conv + same-resolution conv stack per block."""

    def __init__(self, spec: BaselineBackboneSpec, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.blocks = []
        c_in = PFN_CHANNELS
        for b in range(spec.n_blocks):
            c = spec.channels[b]
            layers = [ConvBNRelu(rng, c_in, c, 3, stride=2, padding=1)]
            layers += [
                ConvBNRelu(rng, c, c, 3, padding=1) for _ in range(spec.layers_per_block[b])
            ]
            self.blocks.append(layers)
            c_in = c

    def forward(self, features, coords, size):
        """Taps from the pillar features [P, C] at grid cells `coords` of a
        grid of `size` = (H, W)."""
        h = self.blocks[0][0].forward_sparse(features, T.PillarPlan(coords, size))
        taps = []
        for layers in (self.blocks[0][1:], *self.blocks[1:]):
            for layer in layers:
                h = layer.forward(h)
            taps.append(h)
        return taps

    def named_params(self, prefix="backbone"):
        out = {}
        for b, layers in enumerate(self.blocks, start=1):
            for i, layer in enumerate(layers):
                name = "entry" if i == 0 else f"layer{i}"
                out.update(layer.named_params(f"{prefix}.block{b}.{name}"))
        return out

    def bn_list(self):
        return [bn for layers in self.blocks for layer in layers for bn in layer.bn_list()]


def build_backbone(kind: str, seed: int = 0, growth: GrowthSchedule | None = None):
    if kind == "dense":
        return DenseBackbone(DenseBackboneSpec(growth=growth or GrowthSchedule()), seed=seed)
    if kind == "baseline":
        return BaselineBackbone(BaselineBackboneSpec(), seed=seed)
    raise ConfigurationError(f"unknown backbone {kind!r}")
