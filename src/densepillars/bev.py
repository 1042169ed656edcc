"""Rotated-box geometry, greedy NMS, and average precision at 40 recall points.

Every overlap (target assignment, NMS, AP matching and recall) is scored
by one batched kernel, `_intersection_area`, on box rows
`[cx, cy, cz, w, l, h, yaw]`. Callers first find the pairs that can
overlap with `pairs_in_reach`, then make one call on those pairs. It keeps a
pair when the two boxes' axis-aligned BEV bounding boxes meet and no edge
direction of either box separates them, exact tests: a pair it drops has
intersection area 0. With a key per box (the class), it keeps only pairs of
equal key; given one table, each pair of distinct rows once (i > j), as
NMS needs. Row tables may be row- or column-major: the anchors come
column-major (`detector.generate_anchors`) and are read in place. Where
only a comparison with a threshold matters (target assignment, NMS),
`iou_bounds` decides a pair first, and the kernel scores only the pairs
its bounds leave open. `nms_bev` works on arrays of rows, scores and
labels and returns the indices it keeps. `match_frames`, the one
detection-to-ground-truth matching behind `evaluate_set`, `ap_r40` and
`recall_at_iou`, pairs the boxes of every frame at once under a
(frame, class) key.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .pointcloud import CLASSES, Box3D

_AREA_EPS = 1e-9
# Pairs per chunk in the overlap kernel, in `iou_bounds` and in the exact
# tests of `pairs_in_reach`, which bounds their temporaries: about 1 KB
# and 330 B per pair in the kernel and the tests under tracemalloc. A
# KITTI frame's assignment finds about 6,900 pairs in reach, one chunk,
# and the kernel scores about a sixth of them.
_CHUNK_PAIRS = 1 << 14
# `iou_bounds` widens its areas by _ROUND_AREA times the square of a
# pair's largest corner coordinate, which covers the kernel's rounding
# (measured: 1.1 ulp of that square up to 80 m) thousands of times over,
# and with it the rounding of an IoU's division; and the disk lens by
# _LENS_ATOL times the squared sum of the radii, which covers the
# arccos's square-root sensitivity next to tangency (about 1.5e-8, the
# square root of an ulp).
_ROUND_AREA = 1e-12
_LENS_ATOL = 1e-6


@dataclass
class EvalConfig:
    iou_thresholds: dict = field(
        default_factory=lambda: {"Car": 0.7, "Pedestrian": 0.5, "Cyclist": 0.5}
    )
    mode: str = "BEV"  # BEV | 3D


@dataclass
class EvalResult:
    per_class_ap: dict
    mean_ap: float


def box_rows(boxes) -> np.ndarray:
    """[N, 7] float64 rows (cx, cy, cz, w, l, h, yaw) of a list of Box3D."""
    return np.array([(b.cx, b.cy, b.cz, b.w, b.l, b.h, b.yaw) for b in boxes],
                    dtype=np.float64).reshape(-1, 7)


def _corners(rows):
    """[P, 7] rows -> BEV corner coordinates (x, y), each [P, 4], CCW."""
    c = np.cos(rows[:, 6:7])
    s = np.sin(rows[:, 6:7])
    hx = rows[:, 4:5] / 2.0
    hy = rows[:, 3:4] / 2.0
    lx = np.concatenate([hx, -hx, -hx, hx], axis=1)
    ly = np.concatenate([hy, hy, -hy, -hy], axis=1)
    return lx * c - ly * s + rows[:, 0:1], lx * s + ly * c + rows[:, 1:2]


def _intersection_area(a, b):
    """BEV intersection areas of the box pairs (a[p], b[p]); a, b are [P, 7],
    by `_clipped_area` over chunks of `_CHUNK_PAIRS` pairs."""
    out = np.empty(a.shape[0])
    for s in range(0, a.shape[0], _CHUNK_PAIRS):
        out[s : s + _CHUNK_PAIRS] = _clipped_area(a[s : s + _CHUNK_PAIRS], b[s : s + _CHUNK_PAIRS])
    return out


def _clipped_area(a, b):
    """BEV intersection areas of the box pairs (a[p], b[p]); a, b are [P, 7].

    Sutherland-Hodgman clips each polygon of `a` by the four edges of its
    `b`, on all pairs at once: row p holds its first n[p] vertices and the
    lanes beyond them are masked. A quadrilateral clipped by four
    half-planes has at most 8 vertices; the buffer width follows the counts,
    so rounding cannot overflow it. The shoelace formula then gives the area.
    """
    px, py = _corners(a)
    cx, cy = _corners(b)
    p = px.shape[0]
    n = np.full(p, 4)
    for e in range(4):
        ax, ay = cx[:, e:e + 1], cy[:, e:e + 1]
        ex = cx[:, (e + 1) % 4, None] - ax
        ey = cy[:, (e + 1) % 4, None] - ay
        lane = np.arange(px.shape[1])
        valid = lane < n[:, None]
        inside = ex * (py - ay) - ey * (px - ax) >= 0.0
        prev = (lane - 1) % np.maximum(n, 1)[:, None]
        qx = np.take_along_axis(px, prev, axis=1)
        qy = np.take_along_axis(py, prev, axis=1)
        dx, dy = px - qx, py - qy
        denom = ex * dy - ey * dx
        # edge leaves or enters the half-plane: emit the crossing point first
        cross = valid & (inside != np.take_along_axis(inside, prev, axis=1))
        cross &= np.abs(denom) > 1e-15
        keep = valid & inside
        t = (ex * (ay - qy) - ey * (ax - qx)) / np.where(cross, denom, 1.0)
        emitted = cross.astype(np.int64) + keep
        pos = np.cumsum(emitted, axis=1) - emitted
        n = emitted.sum(axis=1)
        width = int(n.max())
        nx = np.zeros((p, width))
        ny = np.zeros((p, width))
        r, k = np.nonzero(cross)
        nx[r, pos[r, k]] = qx[r, k] + t[r, k] * dx[r, k]
        ny[r, pos[r, k]] = qy[r, k] + t[r, k] * dy[r, k]
        r, k = np.nonzero(keep)
        slot = pos[r, k] + cross[r, k]
        nx[r, slot] = px[r, k]
        ny[r, slot] = py[r, k]
        px, py = nx, ny
    lane = np.arange(px.shape[1])
    nxt = np.where(lane + 1 < n[:, None], lane + 1, 0)
    term = px * np.take_along_axis(py, nxt, axis=1) - py * np.take_along_axis(px, nxt, axis=1)
    term[lane >= n[:, None]] = 0.0
    twice = np.zeros(p)
    for k in range(term.shape[1]):  # fixed order: a row's area never depends on P
        twice += term[:, k]
    return np.where(n >= 3, 0.5 * np.abs(twice), 0.0)


def pair_iou(a, b, mode: str = "BEV") -> np.ndarray:
    """IoU of the box pairs (a[p], b[p]) in BEV or 3D; a, b are [P, 7] rows.

    3D is the BEV intersection times the z overlap. A box with a footprint
    below `_AREA_EPS`, a pair whose union is below it, and a pair whose BEV
    intersection is below it times the smaller footprint (boxes that only
    touch, up to rounding) score 0.
    """
    area_a = a[:, 3] * a[:, 4]
    area_b = b[:, 3] * b[:, 4]
    inter = _intersection_area(a, b)
    inter[inter < _AREA_EPS * np.minimum(area_a, area_b)] = 0.0
    if mode == "BEV":
        union = area_a + area_b - inter
    else:
        z_lo = np.maximum(a[:, 2] - a[:, 5] / 2, b[:, 2] - b[:, 5] / 2)
        z_hi = np.minimum(a[:, 2] + a[:, 5] / 2, b[:, 2] + b[:, 5] / 2)
        inter = inter * np.maximum(0.0, z_hi - z_lo)
        union = area_a * a[:, 5] + area_b * b[:, 5] - inter
    ok = (area_a >= _AREA_EPS) & (area_b >= _AREA_EPS) & (union >= _AREA_EPS)
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=ok)
    return np.clip(iou, 0.0, 1.0)


def iou_bounds(a, b) -> np.ndarray:
    """[2, P] lower and upper bounds on `pair_iou(a, b)` (BEV) of the box
    pairs (a[p], b[p]), from cheap tests in chunks of `_CHUNK_PAIRS` pairs.

    The bounds enclose the kernel's own value, rounding included, so a
    caller can settle a pair against a threshold without clipping it.
    """
    out = np.empty((2, a.shape[0]))
    for s in range(0, a.shape[0], _CHUNK_PAIRS):
        out[:, s : s + _CHUNK_PAIRS] = _bounds(a[s : s + _CHUNK_PAIRS], b[s : s + _CHUNK_PAIRS])
    return out


def _bounds(a, b):
    """`iou_bounds` of one chunk. The intersection lies within each box cut
    to the other's projections on that box's axes, so it is at most the
    product of the two overlap lengths, and it holds the lens of the two
    inscribed disks. The areas widen by the kernel's rounding and the lens
    formula's."""
    area_a = a[:, 3] * a[:, 4]
    area_b = b[:, 3] * b[:, 4]
    small = np.minimum(area_a, area_b)
    scale = np.maximum(np.abs(a[:, :2]).max(axis=1), np.abs(b[:, :2]).max(axis=1))
    scale += np.maximum(a[:, 3:5].max(axis=1), b[:, 3:5].max(axis=1))
    slack = _ROUND_AREA * scale * scale

    span = [np.maximum(np.minimum(np.minimum(2.0 * own, 2.0 * (reach - own)), reach - dist), 0.0)
            for dist, own, reach in _own_axis_projections(a, b)]
    upper = np.minimum(np.minimum(span[0] * span[1], span[2] * span[3]), small) + slack
    union = area_a + area_b - upper
    hi = np.minimum(np.divide(upper, union, out=np.ones_like(union), where=union > 0.0), 1.0)

    r_a = np.minimum(a[:, 3], a[:, 4]) / 2.0
    r_b = np.minimum(b[:, 3], b[:, 4]) / 2.0
    lens = _lens_area(r_a, r_b, np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]))
    lower = lens - _LENS_ATOL * (r_a + r_b) ** 2 - slack
    # large enough that the kernel neither zeroes it nor finds the union
    # below `_AREA_EPS`
    settled = lower >= 2.0 * _AREA_EPS * np.maximum(small, 1.0)
    union = area_a + area_b - lower
    lo = np.divide(lower, union, out=np.zeros_like(union), where=settled)
    return lo, hi


def _lens_area(r_a, r_b, d):
    """Area shared by the disks of radii r_a and r_b whose centres are d
    apart."""
    inside = d <= np.abs(r_a - r_b)
    part = ~inside & (d < r_a + r_b)
    q = (r_a - r_b) * (r_a + r_b)
    cos_a = np.divide(d * d + q, 2.0 * d * r_a, out=np.ones_like(d), where=part)
    cos_b = np.divide(d * d - q, 2.0 * d * r_b, out=np.ones_like(d), where=part)
    kite = (r_a + r_b - d) * (d + r_a - r_b) * (d - r_a + r_b) * (d + r_a + r_b)
    lens = (r_a * r_a * np.arccos(np.clip(cos_a, -1.0, 1.0))
            + r_b * r_b * np.arccos(np.clip(cos_b, -1.0, 1.0))
            - 0.5 * np.sqrt(np.maximum(kite, 0.0)))
    return np.where(inside, np.pi * np.minimum(r_a, r_b) ** 2, np.where(part, lens, 0.0))


def _aabb_half_extents(rows):
    """Half widths along x and y of the axis-aligned boxes around the BEV
    footprints of rows [N, 7], widened by `_AREA_EPS` so that rounding never
    parts two boxes that the kernel sees touch."""
    c = np.abs(np.cos(rows[:, 6]))
    s = np.abs(np.sin(rows[:, 6]))
    half_l = rows[:, 4] / 2.0
    half_w = rows[:, 3] / 2.0
    return c * half_l + s * half_w + _AREA_EPS, s * half_l + c * half_w + _AREA_EPS


def _own_axis_projections(a, b):
    """Per edge direction of the row pairs (a[p], b[p]), a's length and
    width axes and then b's: the distance between the two centres along it,
    the half extent of the box it belongs to, and the reach, that half
    extent plus the half extent of the other box's projection on it. The
    footprints can meet only where no distance exceeds its reach."""
    ca, sa = np.cos(a[:, 6]), np.sin(a[:, 6])
    cb, sb = np.cos(b[:, 6]), np.sin(b[:, 6])
    # |cos| and |sin| of the angle between the two boxes' length axes
    cd = np.abs(ca * cb + sa * sb)
    sd = np.abs(sa * cb - ca * sb)
    dx, dy = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    out = []
    for c, s, own, other in ((ca, sa, a, b), (cb, sb, b, a)):
        half_l, half_w = other[:, 4] / 2.0, other[:, 3] / 2.0
        own_l, own_w = own[:, 4] / 2.0, own[:, 3] / 2.0
        # along own's length axis (c, s), then its width axis (-s, c)
        out.append((np.abs(dx * c + dy * s), own_l, own_l + cd * half_l + sd * half_w))
        out.append((np.abs(dy * c - dx * s), own_w, own_w + sd * half_l + cd * half_w))
    return out


def _apart_along_own_axes(a, b):
    """Whether an edge direction of a or of b separates the BEV footprints
    of the row pairs (a[p], b[p]), each half extent widened by `_AREA_EPS`
    as in `_aabb_half_extents`: such a pair has intersection area 0."""
    apart = np.zeros(a.shape[0], dtype=bool)
    for dist, _, reach in _own_axis_projections(a, b):
        apart |= dist > reach + 2 * _AREA_EPS
    return apart


def pairs_in_reach(a, b=None, key_a=None, key_b=None):
    """Index pairs (i, j) of rows a [N, 7] and b [M, 7] whose BEV
    footprints overlap or touch: every pair that can share area. Their
    axis-aligned bounding boxes must meet, and then their projections on
    each box's own edge directions (`_apart_along_own_axes`, which drops
    14% of the pairs the first test passes on a KITTI frame). With keys
    ([N] and [M] arrays), only pairs of equal key. Without b, the pairs
    i > j of a with itself, keyed by key_a: each pair of distinct rows
    once, the other half dropped before the exact tests. The pairs come
    ordered by j.

    Column-major rows (`detector.generate_anchors`) are read in place:
    the binary search runs on a's y column as a view."""
    within = b is None
    if within:
        b, key_b = a, key_a
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    # binary search over the rows of a sorted by y for the rows within reach
    # of each row of b along y, then along x, then the exact tests on those
    ys = a[:, 1]
    by_y = None
    if not (ys[1:] >= ys[:-1]).all():  # anchors come sorted
        by_y = np.argsort(ys, kind="stable")
        ys = ys[by_y]
        key_a = None if key_a is None else key_a[by_y]
    # no footprint in a reaches farther than `far` from its centre
    far = np.hypot(a[:, 3].max(), a[:, 4].max()) / 2.0 + _AREA_EPS
    half_xb, half_yb = _aabb_half_extents(b)
    found_i, found_j = [], []
    for key in [None] if key_a is None else np.unique(key_b):
        # pos: the positions in y order of the rows of a with this key
        if key is None:
            pos, jb = np.arange(a.shape[0]), np.arange(b.shape[0])
        else:
            pos, jb = np.flatnonzero(key_a == key), np.flatnonzero(key_b == key)
        reach = far + half_yb[jb]
        lo = np.searchsorted(pos, np.searchsorted(ys, b[jb, 1] - reach, side="left"))
        count = np.searchsorted(pos, np.searchsorted(ys, b[jb, 1] + reach, side="right")) - lo
        # the exact tests run per block of jb whose pairs start within one
        # chunk of `_CHUNK_PAIRS`, in order
        start = np.cumsum(count) - count
        for k in np.split(np.arange(jb.size), np.flatnonzero(np.diff(start // _CHUNK_PAIRS)) + 1):
            j = np.repeat(jb[k], count[k])
            i = pos[np.arange(j.size) + np.repeat(lo[k] - (start[k] - start[k[0]]), count[k])]
            i = i if by_y is None else by_y[i]
            if within:
                later = i > j
                i, j = i[later], j[later]
            near = np.abs(a[i, 0] - b[j, 0]) <= far + half_xb[j]
            i, j = i[near], j[near]
            half_xa, half_ya = _aabb_half_extents(a[i])
            hit = np.abs(a[i, 0] - b[j, 0]) <= half_xa + half_xb[j]
            hit &= np.abs(a[i, 1] - b[j, 1]) <= half_ya + half_yb[j]
            i, j = i[hit], j[hit]
            near = ~_apart_along_own_axes(a[i], b[j])
            found_i.append(i[near])
            found_j.append(j[near])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    by_j = np.argsort(j, kind="stable")
    return i[by_j], j[by_j]


def iou_matrix(a, b, mode: str = "BEV") -> np.ndarray:
    """[N, M] IoU of rows a [N, 7] against rows b [M, 7]; 0 out of reach."""
    out = np.zeros((a.shape[0], b.shape[0]))
    i, j = pairs_in_reach(a, b)
    out[i, j] = pair_iou(a[i], b[j], mode)
    return out


def rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    return float(iou_matrix(box_rows([a]), box_rows([b]))[0, 0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    return float(iou_matrix(box_rows([a]), box_rows([b]), "3D")[0, 0])


def nms_bev(rows, scores, labels, iou_thr: float) -> np.ndarray:
    """Greedy class-wise NMS over boxes rows [N, 7] with scores [N] and
    class labels [N]: the indices of the kept rows, by descending score
    (ties by index). In that order a box is kept unless a kept box of its
    label overlaps it with BEV IoU above `iou_thr`."""
    order = np.argsort(-np.asarray(scores), kind="stable")
    rows, labels = rows[order], np.asarray(labels)[order]
    # pairs (l, e), l > e, ordered by e: box e may suppress the later box l
    l, e = pairs_in_reach(rows, key_a=labels)
    hit = np.empty(l.size, dtype=bool)
    # the bounds settle most pairs; the kernel scores the rest. The pairs'
    # rows are gathered one chunk at a time.
    for s in range(0, l.size, _CHUNK_PAIRS):
        a, b = rows[l[s : s + _CHUNK_PAIRS]], rows[e[s : s + _CHUNK_PAIRS]]
        lo, hi = iou_bounds(a, b)
        sure = lo > iou_thr
        open_ = ~sure & (hi > iou_thr)
        sure[open_] = pair_iou(a[open_], b[open_]) > iou_thr
        hit[s : s + _CHUNK_PAIRS] = sure
    l, e = l[hit], e[hit]
    start = np.searchsorted(e, np.arange(order.size + 1))
    removed = np.zeros(order.size, dtype=bool)
    # a box is removed only by an earlier kept one, so only the boxes that
    # suppress some other box need a turn, in rank order
    for i in np.flatnonzero(np.diff(start)):
        if not removed[i]:
            removed[l[start[i]:start[i + 1]]] = True
    return order[~removed]


def r40_from_scored(scores, is_tp, n_gt: int) -> float:
    """Interpolated precision averaged over recall 1/40, ..., 40/40.

    At each recall point it takes the best precision reached at that recall
    or beyond; detections are ranked by descending score, ties in input order.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    tp = np.cumsum(np.asarray(is_tp, dtype=bool)[order])
    precision = tp / np.arange(1, tp.size + 1)
    recall = tp / n_gt
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    at = np.searchsorted(recall, np.arange(1, 41) / 40.0, side="left")
    return sum(envelope[at].tolist()) / 40.0


class ClassMatches(NamedTuple):
    """One class's matching over a set of frames: the detections' scores
    and hits, frames in order and each frame's detections by descending
    score (ties in input order); the ground truths, and those that some
    detection overlaps with IoU at or above the threshold."""

    scores: np.ndarray
    hits: np.ndarray
    n_gt: int
    found: int


def match_frames(frames, iou_thresholds: dict, mode: str = "BEV") -> dict:
    """Greedy detection-to-ground-truth matching over frames of (detections,
    labeled boxes), per class of `iou_thresholds` (thresholds in [0, 1]):
    a `ClassMatches` per class.

    Every frame's rows are stacked under a (frame, class) key, so one keyed
    `pairs_in_reach` call and one `pair_iou` call (detections against
    ground truths) score all frames. Within a key, in descending score
    order with ties in input order, each detection takes the untaken
    ground truth of highest IoU, ties to the lowest index; it is a hit if
    that IoU reaches the class's threshold. Only the pairs at or above the
    threshold can decide that, so the greedy pass walks those alone. At a
    threshold of 0 every untaken ground truth qualifies, overlapping or
    not: the first n_gt detections of a key each take one. Detections and
    ground truths of other classes are left out.
    """
    classes = list(iou_thresholds)
    n_cls = len(classes) or 1
    index = {c: k for k, c in enumerate(classes)}
    dets = [(f * n_cls + index[d.label], d) for f, (ds, _) in enumerate(frames)
            for d in ds if d.label in index]
    gts = [(f * n_cls + index[c], b) for f, (_, gs) in enumerate(frames)
           for b, c in gs if c in index]
    scores = np.array([d.score for _, d in dets], dtype=np.float64)
    det_keys = np.array([k for k, _ in dets], dtype=np.int64)
    order = np.lexsort((-scores, det_keys))
    scores, det_keys = scores[order], det_keys[order]
    det_rows = box_rows([d.box for _, d in dets])[order]
    gt_keys = np.array([k for k, _ in gts], dtype=np.int64)
    gt_rows = box_rows([b for _, b in gts])

    thr = np.array([float(iou_thresholds[c]) for c in classes])
    det_cls, gt_cls = det_keys % n_cls, gt_keys % n_cls
    n_gt = np.bincount(gt_keys, minlength=len(frames) * n_cls)
    n_det = np.bincount(det_keys, minlength=len(frames) * n_cls)
    i, j = pairs_in_reach(det_rows, gt_rows, det_keys, gt_keys)
    iou = pair_iou(det_rows[i], gt_rows[j], mode)
    pair_thr = thr[det_cls[i]]
    keep = (pair_thr > 0.0) & (iou >= pair_thr)
    i, j, iou = i[keep], j[keep], iou[keep]

    # at a threshold of 0 the first n_gt detections of a key hit, and each
    # ground truth of a key with a detection is found
    rank = np.arange(det_keys.size) - np.searchsorted(det_keys, det_keys)
    hits = (thr[det_cls] <= 0.0) & (rank < n_gt[det_keys])
    found = (thr[gt_cls] <= 0.0) & (n_det[gt_keys] > 0)
    found[j] = True
    taken = set()
    # each detection's pairs by descending IoU, ties to the lowest index
    by = np.lexsort((j, -iou, i))
    for d, g in zip(i[by].tolist(), j[by].tolist()):
        if not hits[d] and g not in taken:
            hits[d] = True
            taken.add(g)
    return {c: ClassMatches(scores[det_cls == k], hits[det_cls == k],
                            int(np.count_nonzero(gt_cls == k)),
                            int(np.count_nonzero(found[gt_cls == k])))
            for c, k in index.items()}


def ap_r40(frames, cls: str, iou_thr: float, mode: str = "BEV") -> float | None:
    """AP over 40 recall positions; frames are (detections, labeled boxes) pairs.

    Returns None when the class has no ground truth.
    """
    m = match_frames(frames, {cls: iou_thr}, mode)[cls]
    return None if m.n_gt == 0 else r40_from_scored(m.scores, m.hits, m.n_gt)


def recall_at_iou(frames, iou_thr: float) -> dict:
    """Per class, (found, total): of the `total` ground-truth boxes, the
    `found` ones that some detection of the same class overlaps with BEV
    IoU >= iou_thr.

    Frames are (detections, labeled boxes) pairs; classes without ground
    truth are left out.
    """
    matches = match_frames(frames, dict.fromkeys(CLASSES, iou_thr))
    return {c: (m.found, m.n_gt) for c, m in matches.items() if m.n_gt}


def evaluate_set(frames, cfg: EvalConfig) -> EvalResult:
    per_class = {}
    for cls, m in match_frames(frames, cfg.iou_thresholds, cfg.mode).items():
        if m.n_gt == 0:
            warnings.warn(f"class {cls} has no ground truth; excluded from mAP")
        else:
            per_class[cls] = r40_from_scored(m.scores, m.hits, m.n_gt)
    mean_ap = sum(per_class.values()) / len(per_class) if per_class else 0.0
    return EvalResult(per_class, mean_ap)
