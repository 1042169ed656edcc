"""Dense-matrix target assignment, kept as the oracle for the sparse one.

`dense_assign_targets` is `detector.assign_targets` as it was before it
worked on the pair list alone: per class it gathers that class's anchors,
fills a zero `[anchors, ground truths]` BEV-IoU matrix from the pairs
that pass `centre_pairs`, takes each anchor's best ground truth with
`argmax` over the row (ties to the lowest ground-truth index), and lets
every ground truth in index order claim the first anchor of highest IoU
in its column, a later ground truth overwriting an earlier one.

It fills per-anchor tables as that code did and returns their positive
rows in today's `TargetAssignment`.

`centre_pairs` is the prefilter of that time, independent of the AABB
pair finder the product uses: a pair is kept when the BEV centres are no
farther apart than the two half diagonals.

`row_major_anchors` is `detector.generate_anchors` as it was before it
wrote the table column by column: one C-ordered `[fh, fw, A_cell, 7]`
buffer filled anchor slot by anchor slot.
"""

import numpy as np

from densepillars.bev import box_rows, pair_iou
from densepillars.detector import TargetAssignment, encode_boxes
from densepillars.pointcloud import CLASSES


def row_major_anchors(grid, cfg):
    """(boxes [A, 7] float64, C-ordered; class index [A]) of every anchor
    on the stride-2 feature grid: row-major over cells, class-major,
    rotation-minor."""
    fh = grid.height // cfg.feature_stride
    fw = grid.width // cfg.feature_stride
    cell_x = grid.pillar_size[0] * cfg.feature_stride
    cell_y = grid.pillar_size[1] * cfg.feature_stride
    xs = grid.x_range[0] + (np.arange(fw) + 0.5) * cell_x
    ys = grid.y_range[0] + (np.arange(fh) + 0.5) * cell_y

    n_rot = len(cfg.rotations)
    a_cell = cfg.anchors_per_cell
    boxes = np.zeros((fh, fw, a_cell, 7), dtype=np.float64)
    cls_idx = np.zeros((fh, fw, a_cell), dtype=np.int64)
    boxes[:, :, :, 0] = xs[None, :, None]
    boxes[:, :, :, 1] = ys[:, None, None]
    for ci, cls in enumerate(CLASSES):
        w, l, h = cfg.sizes[cls]
        for ri, rot in enumerate(cfg.rotations):
            a = ci * n_rot + ri
            boxes[:, :, a, 2] = cfg.z_centers[cls]
            boxes[:, :, a, 3] = w
            boxes[:, :, a, 4] = l
            boxes[:, :, a, 5] = h
            boxes[:, :, a, 6] = rot
            cls_idx[:, :, a] = ci
    return boxes.reshape(-1, 7), cls_idx.reshape(-1)


def centre_pairs(a, b):
    """Index pairs (i, j) of rows a [N, 7] and b [M, 7] whose circumscribed
    BEV circles meet, found by binary search over a sorted by y."""
    diag_a = np.hypot(a[:, 3], a[:, 4])
    diag_b = np.hypot(b[:, 3], b[:, 4])
    if diag_a.size == 0 or diag_b.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    window = (diag_a.max() + diag_b.max()) / 2.0
    by_y = np.argsort(a[:, 1], kind="stable")
    ys = a[by_y, 1]
    lo = np.searchsorted(ys, b[:, 1] - window, side="left")
    count = np.searchsorted(ys, b[:, 1] + window, side="right") - lo
    j = np.repeat(np.arange(b.shape[0]), count)
    i = by_y[np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)]
    dist = np.hypot(a[i, 0] - b[j, 0], a[i, 1] - b[j, 1])
    hit = dist <= (diag_a[i] + diag_b[j]) / 2.0
    return i[hit], j[hit]


def dense_iou(a, b):
    """[N, M] BEV IoU of rows a against rows b; 0 for pairs out of reach."""
    out = np.zeros((a.shape[0], b.shape[0]))
    i, j = centre_pairs(a, b)
    out[i, j] = pair_iou(a[i], b[j])
    return out


def dense_assign_targets(anchors, anchor_cls, gts, cfg) -> TargetAssignment:
    a = anchors.shape[0]
    labels = np.zeros(a, dtype=np.int8)
    gt_index = np.full(a, -1, dtype=np.int64)
    reg_targets = np.zeros((a, 7), dtype=np.float64)
    dir_targets = np.zeros(a, dtype=np.int64)
    rows = box_rows([b for b, _ in gts])
    gt_cls = np.array([CLASSES.index(c) for _, c in gts], dtype=np.int64)

    for ci, cls in enumerate(CLASSES):
        idx = np.nonzero(anchor_cls == ci)[0]
        members = np.flatnonzero(gt_cls == ci)  # this class's ground-truth indices
        if members.size == 0 or idx.size == 0:
            continue
        match_thr = cfg.match_thresholds[cls]
        unmatch_thr = cfg.unmatch_thresholds[cls]

        iou = dense_iou(anchors[idx], rows[members])
        best_gt = iou.argmax(axis=1)
        best_iou = iou[np.arange(idx.size), best_gt]
        pos = best_iou >= match_thr
        ignore = (best_iou >= unmatch_thr) & ~pos
        labels[idx[pos]] = 1
        labels[idx[ignore]] = -1
        gt_index[idx[pos]] = members[best_gt[pos]]

        # every ground truth claims its best-overlapping anchor
        for gj, gi in enumerate(members):
            col = iou[:, gj]
            top = int(col.argmax())
            if col[top] > 0.0:
                labels[idx[top]] = 1
                gt_index[idx[top]] = gi

    pos_idx = np.nonzero(labels == 1)[0]
    if pos_idx.size:
        gt_rows = rows[gt_index[pos_idx]]
        reg_targets[pos_idx] = encode_boxes(gt_rows, anchors[pos_idx])
        dir_targets[pos_idx] = (gt_rows[:, 6] >= 0).astype(np.int64)
    # the positives' rows of the per-anchor tables
    return TargetAssignment(labels, pos_idx, gt_index[pos_idx], reg_targets[pos_idx],
                            dir_targets[pos_idx])
