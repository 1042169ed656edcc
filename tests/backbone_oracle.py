"""Oracles for the backbones, the neck and the head.

The pseudo-image path is the network as it was before its first layer read
the pillars: `scatter_to_pseudo_image` builds the [1, C, H, W] pseudo-image,
every layer is a dense `conv2d`, and dense block 1 concatenates the
pseudo-image with its stage outputs before the 1x1 transition.

The concat path (`concat_backbone_forward`, `concat_neck_forward`) is the
graph path as it was before the dense blocks and the neck shared one
buffer: each keeps a list of its stage outputs and copies them with
`channel_concat`. Run it with a graph, where no batch norm folds.

The three-conv head (`three_conv_head_forward`) is the anchor head as it
was before it became one conv: class, box and direction 1x1 convs, each
over its row block of the stacked weight and bias.

All reuse the product's layer objects, so they share every parameter.
`pillar_image` turns a dense image into the pillars of a fully occupied
grid, every cell a pillar. `predict_head_maps` is no oracle: it stacks the
head tiles that `predict` scores, for comparison with whole maps.
"""

import numpy as np

from densepillars import tensor as T
from densepillars.backbones import DenseBackbone
from densepillars.encoder import pfn_forward, scatter_to_pseudo_image
from densepillars.tensor import Tensor


def dense_block_concat(x, layers):
    """A dense block: x and the list of its stage outputs, concatenated."""
    feats = [x]
    h = x
    for layer in layers:
        h = layer.forward(h)
        feats.append(h)
    return T.channel_concat(feats)


def first_block_concat(bb, features, coords, size):
    """Dense block 1 read from the pillars, and its transition: a GEMM over
    the concatenated stage outputs plus the sparse product of the pillar
    channels of the transition weight, then batch norm."""
    layers, trans = bb.blocks[0], bb.transitions[0]
    c_in = features.shape[1]
    plan = T.PillarPlan(coords, size)
    h = layers[0].forward_sparse(features, plan)
    feats = [h]
    for layer in layers[1:]:
        h = layer.forward(h)
        feats.append(h)
    w = trans.conv.weight
    mixed = T.conv2d(T.channel_concat(feats),
                     T.Conv2dParams(T.channel_slice(w, c_in, w.shape[1])))
    mixed = T.sparse_conv2d(features, plan, T.Conv2dParams(T.channel_slice(w, 0, c_in)),
                            onto=mixed)
    return T.batch_norm(mixed, trans.bn, relu=True)


def concat_backbone_forward(bb, features, coords, size):
    """`DenseBackbone.forward` on the concat path."""
    h = T.avg_pool2x2(first_block_concat(bb, features, coords, size))
    taps = [h]
    for layers, trans in zip(bb.blocks[1:], bb.transitions[1:]):
        h = T.avg_pool2x2(trans.forward(dense_block_concat(h, layers)))
        taps.append(h)
    return taps


def concat_neck_forward(neck, taps):
    """`FPN.forward` on the concat path: each branch's transposed conv and
    batch norm, the outputs concatenated."""
    outs = [T.batch_norm(T.conv_transpose2d(tap, w, stride), bn, relu=True)
            for tap, (w, bn, stride) in zip(taps, neck.branches, strict=True)]
    return T.channel_concat(outs)


def _row_block(t, lo, hi):
    """Rows lo..hi of t, with a graph: a `channel_slice` of t with its first
    two axes swapped (a bias [C] as [1, C])."""
    if t.data.ndim == 1:
        return T.reshape(T.channel_slice(T.reshape(t, (1, t.shape[0])), lo, hi), (hi - lo,))
    axes = (1, 0, *range(2, t.data.ndim))
    return T.transpose(T.channel_slice(T.transpose(t, axes), lo, hi), axes)


def three_conv_head_forward(head, fused):
    """`AnchorHead.forward` as three parallel 1x1 convs: the class, box and
    direction maps, each from its row block of the head's parameters."""
    w, b = head.conv.weight, head.conv.bias
    bounds = np.cumsum([0, *head.widths])
    return tuple(T.conv2d(fused, T.Conv2dParams(_row_block(w, lo, hi), _row_block(b, lo, hi)))
                 for lo, hi in zip(bounds[:-1], bounds[1:]))


def dense_forward(bb, image):
    taps = []
    h = image
    for layers, trans in zip(bb.blocks, bb.transitions):
        h = T.avg_pool2x2(trans.forward(dense_block_concat(h, layers)))
        taps.append(h)
    return taps


def baseline_forward(bb, image):
    taps = []
    h = image
    for layers in bb.blocks:
        for layer in layers:
            h = layer.forward(h)
        taps.append(h)
    return taps


def backbone_forward(bb, features, coords, grid):
    image = scatter_to_pseudo_image(features, coords, grid)
    return (dense_forward if isinstance(bb, DenseBackbone) else baseline_forward)(bb, image)


def pipeline_forward(pipeline, batch):
    """`DetectionPipeline.forward_encoded` on the pseudo-image path."""
    feats = pfn_forward(batch, pipeline.pfn)
    taps = backbone_forward(pipeline.backbone, feats, batch.coords, pipeline.grid)
    return pipeline.head.forward(pipeline.neck.forward(taps))


def predict_head_maps(pipeline, batch):
    """The class, box and direction maps whose tiles `predict` scores: the
    rows of `pipeline.head_tiles` (neck and head per tile, batch norm
    folded) written into whole maps, under `no_grad`. The whole maps exist
    from the first tile on, as a stacked head map would."""
    with T.no_grad():
        taps = pipeline._taps(batch)
        n, _, rows, cols = pipeline.neck.fused_shape(taps)
        out = [np.empty((n, c, rows, cols), taps[0].dtype) for c in pipeline.head.widths]
        for r0, maps in pipeline.head_tiles(taps):
            for whole, tile in zip(out, maps, strict=True):
                whole[:, :, r0 : r0 + tile.shape[2]] = tile.data
    return tuple(Tensor(m) for m in out)


def pillar_image(x: Tensor):
    """A [1, C, H, W] image as (features [H·W, C], coords, (H, W)): every
    cell is a pillar, in row-major order, so the backbones read x's values."""
    _, c, h, w = x.shape
    rows, cols = np.divmod(np.arange(h * w), w)
    feats = T.transpose(T.reshape(x, (c, h * w)), (1, 0))
    return feats, np.stack([rows, cols], axis=1), (h, w)
