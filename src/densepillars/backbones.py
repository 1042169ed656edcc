"""The dense-connectivity backbone and the baseline stride-2 conv backbone.

Both read the pillar features at their grid cells and emit three
multi-scale taps with identical shapes (strides 2, 4, 8 relative to the
pillar grid), so one can replace the other without touching the encoder,
neck, or head. The layers that read the pillars (the dense block-1 first
conv and the pillar channels of its transition, the baseline's first entry
conv) run as `tensor.sparse_conv2d`, which equals the conv of the scattered
pseudo-image without building it. A dense block's stages write into one
shared buffer that is their concatenation, in training and inference
alike. Only the batch-norm fold is inference-only: in eval mode with no
graph recorded, each conv + batch norm + relu runs as one conv, and each
dense transition runs per band of rows, each band pooled into its rows of
the tap, so its full-resolution output is never built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ConfigurationError, Tensor


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
    transition_out_channels: tuple = (64, 128, 256)
    input_channels: int = 64

    def __post_init__(self):
        if len(self.layers_per_block) != len(self.transition_out_channels):
            raise ConfigurationError("layers_per_block / transition channels mismatch")
        for b in range(1, self.n_blocks + 1):
            self.growth.rate(b)  # an unknown mode or a block past the table raises here

    @property
    def n_blocks(self):
        return len(self.layers_per_block)


@dataclass
class BaselineBackboneSpec:
    layers_per_block: tuple = (3, 5, 5)  # convs after each stride-2 entry conv
    channels: tuple = (64, 128, 256)
    input_channels: int = 64

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

    def forward_sparse(self, features, coords, size, out=None):
        """`forward` of the pseudo-image holding the pillar features [P, C]
        at `coords` in a grid of `size`."""
        if self.bn.folds(features, self.conv.weight):
            return T.sparse_conv2d(features, coords, size, self.folded(), relu=True, out=out)
        return T.batch_norm(T.sparse_conv2d(features, coords, size, self.conv), self.bn,
                            relu=True, out=out)

    def named_params(self, prefix):
        return {
            f"{prefix}.conv.weight": self.conv.weight,
            f"{prefix}.bn.gamma": self.bn.gamma,
            f"{prefix}.bn.beta": self.bn.beta,
        }

    def bn_list(self):
        return [self.bn]


def _width(layers):
    return sum(layer.conv.weight.shape[0] for layer in layers)


def _chain(h, layers, buf, lo):
    """[h, h1, h2, ...]: the layers run as a chain from h, each writing its
    output into buf's next channels from `lo` on."""
    feats = [h]
    for layer in layers:
        feats.append(layer.forward(feats[-1], out=buf[:, lo : lo + layer.conv.weight.shape[0]]))
        lo += feats[-1].shape[1]
    return feats


def _pooled_bands(cat, conv, pillars=None):
    """avg_pool2x2 of a transition's folded 1x1 conv over `cat` [N, C, H, W]
    and its clamp, run per band of an even number of rows: each band's
    output is pooled into its rows of the tap, so the full-resolution
    output is never built. With `pillars` = (features, coords, params), the
    sparse 1x1 product of the pillars in the band, shifted into it, is added
    to the band (block 1) and carries the bias and the clamp. Runs only
    without a graph."""
    n, c, h, w = cat.shape
    bands = T.row_tiles(h, n * c * w * cat.data.itemsize, 2)
    scratch = np.empty((n, conv.weight.shape[0], bands[0][1], w),
                       dtype=np.result_type(conv.weight.data, cat.data))
    tap = np.empty((*scratch.shape[:2], h // 2, w // 2), dtype=scratch.dtype)
    if pillars is not None:
        features, coords, params = pillars
        order = np.argsort(coords[:, 0], kind="stable")
        ends = np.searchsorted(coords[order, 0], [r1 for _, r1 in bands])
    for i, (r0, r1) in enumerate(bands):
        band = T.conv2d(Tensor(cat.data[:, :, r0:r1]), conv, relu=pillars is None,
                        out=scratch[:, :, : r1 - r0])
        if pillars is not None:
            sel = order[ends[i - 1] if i else 0 : ends[i]]
            T.sparse_conv2d(Tensor(features.data[sel]), coords[sel] - (r0, 0), (r1 - r0, w),
                            params, onto=band, relu=True)
        T.avg_pool2x2(band, out=tap[:, :, r0 // 2 : r1 // 2])
    return Tensor(tap)


def dense_block_forward(x, layers):
    """Feed-forward conv chain; input and every stage output concatenated
    once. Each stage writes its channel slice of one buffer that the concat
    returns, so only x is copied."""
    buf = np.empty((x.shape[0], x.shape[1] + _width(layers), *x.shape[2:]), dtype=x.dtype)
    return T.channel_concat(_chain(x, layers, buf, x.shape[1]), out=buf)


class DenseBackbone:
    """Dense blocks + transition layers producing strides 2/4/8 taps. Each
    transition is DenseNet's: a 1x1 conv, then 2x2 average pooling."""

    def __init__(self, spec: DenseBackboneSpec, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.blocks = []
        self.transitions = []
        c_in = spec.input_channels
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
        grid of `size` = (H, W)."""
        taps = [self._first_block(features, coords, size)]
        for layers, trans in zip(self.blocks[1:], self.transitions[1:]):
            cat = dense_block_forward(taps[-1], layers)
            if trans.bn.folds(cat, trans.conv.weight):
                taps.append(_pooled_bands(cat, trans.folded()))
            else:
                taps.append(T.avg_pool2x2(trans.forward(cat)))
        return taps

    def _first_block(self, features, coords, size):
        """Block 1 and its transition, read from the pillars. The 1x1
        transition over [x; h1; ...] is a GEMM over the stage outputs plus
        the sparse 1x1 product of the pillar channels of its weight, so the
        concat holds the stage outputs only."""
        layers, trans = self.blocks[0], self.transitions[0]
        c_in, k = features.shape[1], layers[0].conv.weight.shape[0]
        buf = np.empty((1, _width(layers), *size), dtype=features.dtype)
        h = layers[0].forward_sparse(features, coords, size, out=buf[:, :k])
        cat = T.channel_concat(_chain(h, layers[1:], buf, k), out=buf)
        fold = trans.bn.folds(cat, features, trans.conv.weight)
        p = trans.folded() if fold else trans.conv
        stage_conv = T.Conv2dParams(T.channel_slice(p.weight, c_in, p.weight.shape[1]))
        pillar_conv = T.Conv2dParams(T.channel_slice(p.weight, 0, c_in), p.bias)
        if fold:
            return _pooled_bands(cat, stage_conv, (features, coords, pillar_conv))
        mixed = T.sparse_conv2d(features, coords, size, pillar_conv,
                                onto=T.conv2d(cat, stage_conv))
        return T.avg_pool2x2(T.batch_norm(mixed, trans.bn, relu=True))

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
        c_in = spec.input_channels
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
        h = self.blocks[0][0].forward_sparse(features, coords, size)
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
