"""Dense-weight detection loss, kept as the oracle for the positive-only one.

`dense_detection_loss` is `detector.detection_loss` as it was before it
gathered the positive anchors' rows: it flattens all three head maps and
runs the smooth-L1 and direction losses over every anchor with a 0/1
weight, reading the assignment's per-anchor `reg_targets` and
`dir_targets` tables.
"""

import numpy as np

from densepillars import tensor as T
from densepillars.detector import (
    DIR_WEIGHT,
    LOC_WEIGHT,
    flatten_head_map,
    sigmoid_focal_loss,
    smooth_l1_sine_loss,
    softmax_cross_entropy,
)
from densepillars.pointcloud import CLASSES


def dense_detection_loss(cls_map, box_map, dir_map, assignment, anchor_cls, cfg):
    a_cell = cfg.anchors_per_cell
    cls_flat = flatten_head_map(cls_map, len(CLASSES), a_cell)
    box_flat = flatten_head_map(box_map, 7, a_cell)
    dir_flat = flatten_head_map(dir_map, 2, a_cell)

    labels = assignment.labels
    n_pos = max(1, assignment.num_positives)
    onehot = np.zeros((labels.shape[0], len(CLASSES)), dtype=np.float64)
    pos = labels == 1
    onehot[pos, anchor_cls[pos]] = 1.0
    cls_weight = (labels != -1).astype(np.float64)
    pos_weight = pos.astype(np.float64)

    cls_loss = sigmoid_focal_loss(cls_flat, onehot, cls_weight, normalizer=n_pos)
    loc_loss = smooth_l1_sine_loss(box_flat, assignment.reg_targets, pos_weight,
                                   normalizer=n_pos)
    dir_loss = softmax_cross_entropy(
        dir_flat, assignment.dir_targets, pos_weight, normalizer=n_pos
    )
    total = T.add(cls_loss, T.add(T.scale(loc_loss, LOC_WEIGHT), T.scale(dir_loss, DIR_WEIGHT)))
    return {"total": total, "cls": cls_loss, "loc": loc_loss, "dir": dir_loss}
