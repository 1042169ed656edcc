"""Per-frame AP matching and recall, kept as the oracle for the stacked matcher.

`ap_r40`, `recall_at_iou` and `evaluate_set` are the evaluation as it was
before `bev.match_frames` matched every frame at once: one `iou_matrix`
per frame and class, then a walk over the class's detections in Python
(`match_frame`). In descending score order (ties in input order) each
detection takes the untaken ground truth of highest IoU, ties to the
lowest index, found by an `argmax` over the row with taken columns set to
-1; it is a hit if that IoU reaches the threshold. At a threshold of 0 a
detection with no untaken overlapping ground truth so takes the first
untaken one.
"""

import warnings

import numpy as np

from densepillars.bev import EvalResult, box_rows, iou_matrix, r40_from_scored
from densepillars.pointcloud import CLASSES


def match_frame(dets, gts, cls, iou_thr, mode):
    """The (score, is_tp) pairs of one frame's detections of `cls`, by
    descending score, and the frame's count of ground truths of `cls`."""
    cls_dets = sorted((d for d in dets if d.label == cls), key=lambda d: -d.score)
    cls_gts = [b for b, c in gts if c == cls]
    iou = iou_matrix(box_rows([d.box for d in cls_dets]), box_rows(cls_gts), mode)
    taken = np.zeros(len(cls_gts), dtype=bool)
    results = []
    for d, row in zip(cls_dets, iou):
        row = np.where(taken, -1.0, row)
        j = int(row.argmax()) if row.size else -1
        hit = bool(j >= 0 and row[j] >= iou_thr)
        if hit:
            taken[j] = True
        results.append((d.score, hit))
    return results, len(cls_gts)


def ap_r40(frames, cls, iou_thr, mode="BEV"):
    scored = []
    n_gt = 0
    for dets, gts in frames:
        res, n = match_frame(dets, gts, cls, iou_thr, mode)
        scored.extend(res)
        n_gt += n
    if n_gt == 0:
        return None
    return r40_from_scored([s for s, _ in scored], [t for _, t in scored], n_gt)


def recall_at_iou(frames, iou_thr):
    found = dict.fromkeys(CLASSES, 0)
    total = dict.fromkeys(CLASSES, 0)
    for dets, gts in frames:
        for cls in CLASSES:
            cls_gts = [b for b, c in gts if c == cls]
            if not cls_gts:
                continue
            rows = box_rows([d.box for d in dets if d.label == cls])
            iou = iou_matrix(rows, box_rows(cls_gts))
            found[cls] += int((iou >= iou_thr).any(axis=0).sum())
            total[cls] += len(cls_gts)
    return {c: (found[c], total[c]) for c in CLASSES if total[c]}


def evaluate_set(frames, cfg):
    per_class = {}
    for cls, thr in cfg.iou_thresholds.items():
        ap = ap_r40(frames, cls, thr, mode=cfg.mode)
        if ap is None:
            warnings.warn(f"class {cls} has no ground truth; excluded from mAP")
        else:
            per_class[cls] = ap
    mean_ap = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return EvalResult(per_class, mean_ap)
