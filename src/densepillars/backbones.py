"""The dense-connectivity backbone and the baseline stride-2 conv backbone.

Both read the pillar features at their grid cells and emit three
multi-scale taps with identical shapes (strides 2, 4, 8 relative to the
pillar grid), so one can replace the other without touching the encoder,
neck, or head. The layers that read the pillars (the dense block-1 first
conv and the pillar channels of its transition, the baseline's first entry
conv) run as `tensor.sparse_conv2d`, which equals the conv of the scattered
pseudo-image without building it.
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

    def forward(self, x):
        return T.batch_norm(T.conv2d(x, self.conv), self.bn, relu=True)

    def forward_sparse(self, features, coords, size):
        """`forward` of the pseudo-image holding the pillar features [P, C]
        at `coords` in a grid of `size`."""
        return T.batch_norm(T.sparse_conv2d(features, coords, size, self.conv), self.bn, relu=True)

    def named_params(self, prefix):
        return {
            f"{prefix}.conv.weight": self.conv.weight,
            f"{prefix}.bn.gamma": self.bn.gamma,
            f"{prefix}.bn.beta": self.bn.beta,
        }

    def bn_list(self):
        return [self.bn]


def dense_block_forward(x, layers):
    """Feed-forward conv chain; input and every stage output concatenated once."""
    feats = [x]
    h = x
    for layer in layers:
        h = layer.forward(h)
        feats.append(h)
    return T.channel_concat(feats)


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
        h = T.avg_pool2x2(self._first_block(features, coords, size))
        taps = [h]
        for layers, trans in zip(self.blocks[1:], self.transitions[1:]):
            h = T.avg_pool2x2(trans.forward(dense_block_forward(h, layers)))
            taps.append(h)
        return taps

    def _first_block(self, features, coords, size):
        """Block 1 and its transition conv, read from the pillars. The 1x1
        transition over [x; h1; ...] is a GEMM over the stage outputs plus
        the sparse 1x1 product of the pillar channels of its weight, so the
        concat holds the stage outputs only."""
        layers, trans = self.blocks[0], self.transitions[0]
        h = layers[0].forward_sparse(features, coords, size)
        feats = [h]
        for layer in layers[1:]:
            h = layer.forward(h)
            feats.append(h)
        w = trans.conv.weight
        c_in = features.shape[1]
        mixed = T.conv2d(T.channel_concat(feats),
                         T.Conv2dParams(T.channel_slice(w, c_in, w.shape[1])))
        mixed = T.sparse_conv2d(features, coords, size,
                                T.Conv2dParams(T.channel_slice(w, 0, c_in)), onto=mixed)
        return T.batch_norm(mixed, trans.bn, relu=True)

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
