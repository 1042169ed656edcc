"""The backbones on the pseudo-image, kept as the oracle for the sparse
first layer.

This is the network as it was before its first layer read the pillars:
`scatter_to_pseudo_image` builds the [1, C, H, W] pseudo-image, every layer
is a dense `conv2d`, and dense block 1 concatenates the pseudo-image with
its stage outputs before the 1x1 transition. It reuses the product's layer
objects, so both paths share every parameter. `pillar_image` turns a dense
image into the pillars of a fully occupied grid, every cell a pillar.
"""

import numpy as np

from densepillars import tensor as T
from densepillars.backbones import DenseBackbone, dense_block_forward
from densepillars.encoder import pfn_forward, scatter_to_pseudo_image
from densepillars.tensor import Tensor


def dense_forward(bb, image):
    taps = []
    h = image
    for layers, trans in zip(bb.blocks, bb.transitions):
        h = T.avg_pool2x2(trans.forward(dense_block_forward(h, layers)))
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


def pillar_image(x: Tensor):
    """A [1, C, H, W] image as (features [H·W, C], coords, (H, W)): every
    cell is a pillar, in row-major order, so the backbones read x's values."""
    _, c, h, w = x.shape
    rows, cols = np.divmod(np.arange(h * w), w)
    feats = T.transpose(T.reshape(x, (c, h * w)), (1, 0))
    return feats, np.stack([rows, cols], axis=1), (h, w)
