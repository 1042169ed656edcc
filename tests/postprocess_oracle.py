"""Whole-map postprocess, kept as the oracle for the candidate-scoring one.

`dense_postprocess` is `detector.postprocess` as it was before it scored
only the anchors whose best class logit nears the threshold: it flattens
all three head maps, takes the sigmoid of every class logit
(`dense_candidates`), and decodes the anchors whose best score clears the
threshold. `loop_decode` is `detector.decode_detections` as it was before
it decoded on arrays: one `Detection` per candidate, its yaw wrapped and
flipped by `pointcloud.wrap_angle`, then NMS over the detections.

`nms_detections` runs `bev.nms_bev`, which works on arrays, over a list
of `Detection`s, for the tests that compare it with a replay on them.
"""

import math

import numpy as np

from densepillars.bev import box_rows, nms_bev
from densepillars.detector import _sigmoid, decode_boxes, flatten_head_map
from densepillars.pointcloud import CLASSES, Box3D, Detection, wrap_angle


def nms_detections(dets, thr):
    """The `Detection`s `nms_bev` keeps, by descending score."""
    kept = nms_bev(box_rows([d.box for d in dets]), np.array([d.score for d in dets]),
                   np.array([d.label for d in dets]), thr)
    return [dets[k] for k in kept]


def dense_candidates(cls_map, box_map, dir_map, cfg, score_thr):
    """The anchors whose best sigmoid score clears `score_thr`, from the
    scores of every anchor, laid out as `detector.head_candidates`
    returns them."""
    a_cell = cfg.anchors_per_cell
    cls_flat = flatten_head_map(cls_map, len(CLASSES), a_cell).data
    box_flat = flatten_head_map(box_map, 7, a_cell).data
    dir_flat = flatten_head_map(dir_map, 2, a_cell).data

    scores = _sigmoid(cls_flat)
    best_cls = scores.argmax(axis=1)
    best_score = scores[np.arange(scores.shape[0]), best_cls]
    keep = np.nonzero(best_score >= score_thr)[0]
    return keep, best_cls[keep], best_score[keep], box_flat[keep], dir_flat[keep].argmax(axis=1)


def loop_decode(candidates, anchors, nms_thr=0.01):
    """Detections from `head_candidates`' output, one candidate at a time."""
    keep, best_cls, best_score, box, dir_bin = candidates
    if keep.size == 0:
        return []
    decoded = decode_boxes(box, anchors[keep])

    dets = []
    for row, d, ci, sc in zip(decoded, dir_bin, best_cls, best_score):
        yaw = wrap_angle(row[6])
        if d == 1 and yaw < 0:
            yaw = wrap_angle(yaw + math.pi)
        elif d == 0 and yaw >= 0:
            yaw = wrap_angle(yaw - math.pi)
        box = Box3D(*(float(v) for v in row[:6]), float(yaw))
        dets.append(Detection(box, float(sc), CLASSES[ci]))
    return nms_detections(dets, nms_thr)


def dense_postprocess(cls_map, box_map, dir_map, anchors, anchor_cls, cfg,
                      score_thr=0.1, nms_thr=0.01):
    return loop_decode(dense_candidates(cls_map, box_map, dir_map, cfg, score_thr), anchors,
                       nms_thr)
