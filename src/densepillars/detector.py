"""FPN neck, anchor head, target assignment, training loss, and decoding.

The head is one 1x1 conv whose output stacks the class, box and direction
maps. `head_candidates` scores the anchors of any rows of those maps. When
batch norm folds (eval mode, no graph), `predict` runs the neck and the head
per tile of the fused map's rows (`FPN.row_tiles`, `FPN.forward(rows=)`,
with the neck's batch norm folded once per frame by `FPN.folded`) and
scores each tile as the head writes it, so neither the fused map nor the
stacked head map is built whole; `postprocess` scores whole maps.
`decode_detections` decodes the candidates and runs NMS.

The neck's widths and strides, the anchors (`AnchorConfig`) and the loss
weights are PointPillars' fixed KITTI settings (Lang et al., arXiv
1812.05784), declared once here as constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import tensor as T
from .backbones import TAP_CHANNELS
from .bev import box_rows, iou_bounds, nms_bev, pair_iou, pairs_in_reach
# not called here: re-exported because perfbench/spans.py wraps
# detector.rotated_iou_bev by name, and tracing fails without the attribute
from .bev import rotated_iou_bev  # noqa: F401
from .encoder import GridSpec
from .pointcloud import CLASSES, CLASS_SIZES, Box3D, Detection, wrap_angle
from .tensor import ConfigurationError, Tensor


# The neck's three branches, one per backbone tap (strides 2, 4 and 8):
# each upsamples its tap to the stride-2 grid with a transposed conv.
NECK_IN_CHANNELS = TAP_CHANNELS
NECK_STRIDES = (1, 2, 4)
NECK_OUT_CHANNELS = (128, 128, 128)

# Inference: the least best-class score a detection keeps, and the BEV IoU
# above which NMS drops the lower-scored of two detections of one class.
# `predict`'s defaults and the config's `eval.score_threshold` and
# `eval.nms_iou` defaults.
SCORE_THRESHOLD = 0.1
NMS_IOU = 0.01


class AnchorConfig:
    """PointPillars' KITTI anchors and matching thresholds (Lang et al.,
    arXiv 1812.05784), as read-only class attributes. Every class has an
    entry in each table, and 0 < unmatch <= match <= 1: an unscored pair
    has IoU 0, so an anchor of no pair must be negative."""

    sizes = MappingProxyType(dict(CLASS_SIZES))
    z_centers = MappingProxyType({"Car": -1.78, "Pedestrian": -0.6, "Cyclist": -0.6})
    rotations = (0.0, math.pi / 2)
    match_thresholds = MappingProxyType({"Car": 0.6, "Pedestrian": 0.5, "Cyclist": 0.5})
    unmatch_thresholds = MappingProxyType({"Car": 0.45, "Pedestrian": 0.35, "Cyclist": 0.35})
    feature_stride = 2
    anchors_per_cell = len(CLASSES) * len(rotations)


class FPN:
    """Upsample each backbone tap to the stride-2 grid and concatenate."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.branches = []
        for c_in, stride, c_out in zip(NECK_IN_CHANNELS, NECK_STRIDES, NECK_OUT_CHANNELS):
            std = np.sqrt(2.0 / (c_out * stride * stride))
            w = rng.normal(0.0, std, size=(c_in, c_out, stride, stride)).astype(np.float32)
            self.branches.append(
                (Tensor(w, requires_grad=True), T.BatchNormParams.create(c_out), stride)
            )

    def row_tiles(self, taps):
        """Tiles [r0, r1) of the fused map's rows for `forward(rows=)`, each
        a multiple of the largest upsample stride, whose rows of the taps
        hold about a GEMM tile (`T.row_tiles`) together."""
        row_bytes = sum(tap.data[:, :, 0].nbytes // stride
                        for tap, (_, _, stride) in zip(taps, self.branches))
        return T.row_tiles(self.fused_shape(taps)[2], row_bytes, max(NECK_STRIDES))

    def fused_shape(self, taps):
        """[N, C, H, W] of the fused map: the taps upsampled to the grid of
        the first."""
        n, _, rows, cols = taps[0].shape
        s0 = self.branches[0][2]
        return n, sum(NECK_OUT_CHANNELS), rows * s0, cols * s0

    def folded(self, taps):
        """Each branch's transposed-conv weight with its batch norm folded
        in, and the bias, for `forward(rows=)`: once per frame, from the
        current running statistics (nothing is cached). Every batch norm
        must fold."""
        if not all(bn.folds(tap, w) for tap, (w, bn, _) in zip(taps, self.branches)):
            raise ConfigurationError("FPN: rows= runs only when every batch norm folds")
        branches = []
        for w, bn, _ in self.branches:
            a, b = bn.fold()
            branches.append((Tensor(w.data * a[None, :, None, None]), b))
        return branches

    def forward(self, taps, rows=None, folded=None):
        """Each branch writes its channel slice of the fused map, which the
        concat returns without a copy.

        With `rows` = (r0, r1), a tile of `row_tiles`, only those rows of
        the fused map are built, each branch reading the rows of its tap
        that feed them, with batch norm folded into its transposed conv:
        `folded` is `folded(taps)`, made here when not given. Without
        `rows`, each branch runs `batch_norm`."""
        if len(taps) != len(self.branches):
            raise ConfigurationError("neck expects one tap per branch")
        n, c, r1, cols = self.fused_shape(taps)
        r0 = 0
        if rows is not None:
            r0, r1 = rows
            folded = folded or self.folded(taps)
            if any(r % s for r in rows for s in NECK_STRIDES):
                raise ConfigurationError(f"FPN: rows {rows} not on every upsample stride")
        bounds = np.cumsum([0, *NECK_OUT_CHANNELS])
        fused = np.empty((n, c, r1 - r0, cols), dtype=taps[0].dtype)
        outs = []
        for i, (tap, (w, bn, stride)) in enumerate(zip(taps, self.branches)):
            part = fused[:, bounds[i] : bounds[i + 1]]
            if rows is None:
                h = T.batch_norm(T.conv_transpose2d(tap, w, stride), bn, relu=True, out=part)
            else:
                wf, b = folded[i]
                h = T.conv_transpose2d(Tensor(tap.data[:, :, r0 // stride : r1 // stride]), wf,
                                       stride, bias=b, relu=True, out=part)
            outs.append(h)
        return T.channel_concat(outs, out=fused)

    def named_params(self, prefix="neck"):
        out = {}
        for i, (w, bn, _) in enumerate(self.branches, start=1):
            out[f"{prefix}.branch{i}.weight"] = w
            out[f"{prefix}.branch{i}.bn.gamma"] = bn.gamma
            out[f"{prefix}.branch{i}.bn.beta"] = bn.beta
        return out

    def bn_list(self):
        return [bn for _, bn, _ in self.branches]


class AnchorHead:
    """The class, box residual and direction maps: PointPillars' three
    parallel 1x1 convs over the fused map, as one 1x1 conv with bias whose
    output channels stack the three maps."""

    def __init__(self, seed: int = 0):
        a = AnchorConfig.anchors_per_cell
        self.widths = (a * len(CLASSES), a * 7, a * 2)
        rng = np.random.default_rng(seed)
        # one draw equals drawing the class, box and direction rows in turn
        shape = (sum(self.widths), sum(NECK_OUT_CHANNELS), 1, 1)  # over the neck's fused map
        w = rng.normal(0.0, 0.01, size=shape).astype(np.float32)
        b = np.zeros(sum(self.widths), dtype=np.float32)
        # class logits start near a low foreground prior to keep focal loss stable
        prior = 0.01
        b[: self.widths[0]] = -math.log((1 - prior) / prior)
        self.conv = T.Conv2dParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))

    def forward(self, fused):
        """Class, box and direction maps: channel slices of the stacked map
        [N, 72, H, W], through which a graph's gradients flow."""
        maps = T.conv2d(fused, self.conv)
        bounds = np.cumsum([0, *self.widths])
        return tuple(T.channel_slice(maps, a, b) for a, b in zip(bounds[:-1], bounds[1:]))

    def named_params(self, prefix="head"):
        return {f"{prefix}.weight": self.conv.weight, f"{prefix}.bias": self.conv.bias}

    def bn_list(self):
        return []


# ---------------------------------------------------------------------------
# anchors and box residuals


def generate_anchors(grid: GridSpec, cfg: AnchorConfig):
    """All anchors on the stride-2 feature grid.

    Ordering is row-major over cells, class-major, rotation-minor. Returns
    (boxes [A, 7] float64, class index [A]). The boxes are column-major:
    each field is written whole into a [7, fh, fw, A_cell] buffer, and the
    table is that buffer's transpose, so a column such as the centres' y
    that `pairs_in_reach` searches is a contiguous view.
    """
    fh = grid.height // cfg.feature_stride
    fw = grid.width // cfg.feature_stride
    cell_x = grid.pillar_size[0] * cfg.feature_stride
    cell_y = grid.pillar_size[1] * cfg.feature_stride
    xs = grid.x_range[0] + (np.arange(fw) + 0.5) * cell_x
    ys = grid.y_range[0] + (np.arange(fh) + 0.5) * cell_y

    a_cell = cfg.anchors_per_cell
    # (z, w, l, h, yaw) of each anchor in a cell, and its class
    per_cell = np.array([(cfg.z_centers[cls], *cfg.sizes[cls], rot)
                         for cls in CLASSES for rot in cfg.rotations], dtype=np.float64)
    cell_cls = np.repeat(np.arange(len(CLASSES), dtype=np.int64), len(cfg.rotations))
    columns = np.empty((7, fh, fw, a_cell), dtype=np.float64)
    columns[0] = xs[None, :, None]
    columns[1] = ys[:, None, None]
    columns[2:] = per_cell.T[:, None, None, :]
    return columns.reshape(7, -1).T, np.tile(cell_cls, fh * fw)


def encode_boxes(gt: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Residuals (dx, dy, dz, dw, dl, dh, dtheta) with diagonal normalization."""
    gt = np.atleast_2d(np.asarray(gt, dtype=np.float64))
    an = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    d = np.sqrt(an[:, 3] ** 2 + an[:, 4] ** 2)
    out = np.empty_like(gt)
    out[:, 0] = (gt[:, 0] - an[:, 0]) / d
    out[:, 1] = (gt[:, 1] - an[:, 1]) / d
    out[:, 2] = (gt[:, 2] - an[:, 2]) / an[:, 5]
    out[:, 3] = np.log(gt[:, 3] / an[:, 3])
    out[:, 4] = np.log(gt[:, 4] / an[:, 4])
    out[:, 5] = np.log(gt[:, 5] / an[:, 5])
    out[:, 6] = gt[:, 6] - an[:, 6]
    return out


def decode_boxes(deltas: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    deltas = np.atleast_2d(np.asarray(deltas, dtype=np.float64))
    an = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    d = np.sqrt(an[:, 3] ** 2 + an[:, 4] ** 2)
    out = np.empty_like(deltas)
    out[:, 0] = deltas[:, 0] * d + an[:, 0]
    out[:, 1] = deltas[:, 1] * d + an[:, 1]
    out[:, 2] = deltas[:, 2] * an[:, 5] + an[:, 2]
    out[:, 3] = np.exp(deltas[:, 3]) * an[:, 3]
    out[:, 4] = np.exp(deltas[:, 4]) * an[:, 4]
    out[:, 5] = np.exp(deltas[:, 5]) * an[:, 5]
    out[:, 6] = deltas[:, 6] + an[:, 6]
    return out


def _first_of_runs(keys, order):
    """The entries of `order` that start a run of equal `keys[order]`."""
    sorted_keys = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return order[first]


@dataclass
class TargetAssignment:
    """Every anchor's label and the K positive anchors' targets. Only the
    positives carry regression and direction targets, so they are kept as
    K rows rather than as tables over all A anchors."""

    labels: np.ndarray  # [A] int8: 1 positive, 0 negative, -1 ignore
    pos_anchor: np.ndarray  # [K] int64 anchor indices of the positives, ascending
    pos_gt: np.ndarray  # [K] int64 their ground-truth indices
    pos_reg: np.ndarray  # [K, 7] their encoded box residuals
    pos_dir: np.ndarray  # [K] int64 their direction bins

    @property
    def num_positives(self):
        return self.pos_anchor.shape[0]

    def _per_anchor(self, rows, fill, shape=()):
        out = np.full((self.labels.shape[0], *shape), fill, dtype=rows.dtype)
        out[self.pos_anchor] = rows
        return out

    # [A]-shaped views, built on each access (for tests and the benchmark)

    @property
    def gt_index(self):
        """[A] int64 ground-truth index per anchor, -1 when not positive."""
        return self._per_anchor(self.pos_gt, -1)

    @property
    def reg_targets(self):
        """[A, 7] box residuals per anchor, zero when not positive."""
        return self._per_anchor(self.pos_reg, 0.0, (7,))

    @property
    def dir_targets(self):
        """[A] int64 direction bin per anchor, zero when not positive."""
        return self._per_anchor(self.pos_dir, 0)


def assign_targets(anchors, anchor_cls, gts, cfg: AnchorConfig) -> TargetAssignment:
    """BEV-IoU threshold matching with per-ground-truth force matching.

    Only anchor-ground-truth pairs of one class whose footprints can meet
    are considered; every other pair has IoU 0, which leaves an anchor
    negative (`AnchorConfig` keeps both thresholds above 0). Of those, the
    kernel scores only the pairs whose `iou_bounds` upper bound can change
    a label or a force match. The positives are collected from the pair
    list, so the labels are the one table over all anchors it builds.
    """
    labels = np.zeros(anchors.shape[0], dtype=np.int8)
    rows = box_rows([b for b, _ in gts])
    gt_cls = np.array([CLASSES.index(c) for _, c in gts], dtype=np.int64)
    i, j = pairs_in_reach(anchors, rows, anchor_cls, gt_cls)
    a, b = anchors[i], rows[j]
    hi = iou_bounds(a, b)[1]
    unmatch = np.array([cfg.unmatch_thresholds[c] for c in CLASSES])
    # a pair below its class's unmatch threshold labels no anchor: the
    # kernel scores only pairs whose bound reaches it, then those a ground
    # truth's force match can still come from, whose bound reaches the best
    # IoU scored for that ground truth (ties go to the lowest anchor)
    scored = hi >= unmatch[gt_cls[j]]
    iou = np.zeros(i.size)
    iou[scored] = pair_iou(a[scored], b[scored])
    best_of_gt = np.zeros(rows.shape[0])
    np.maximum.at(best_of_gt, j[scored], iou[scored])
    late = ~scored & (hi >= best_of_gt[j])
    iou[late] = pair_iou(a[late], b[late])
    scored |= late
    i, j, iou = i[scored], j[scored], iou[scored]

    # each anchor's best ground truth: highest IoU, ties to the lowest index
    best = _first_of_runs(i, np.lexsort((j, -iou, i)))
    ai, best_iou = i[best], iou[best]
    match = np.array([cfg.match_thresholds[c] for c in CLASSES])[anchor_cls[ai]]
    pos = best_iou >= match
    labels[ai[(best_iou >= unmatch[anchor_cls[ai]]) & ~pos]] = -1

    # every ground truth claims its best-overlapping anchor (ties to the
    # lowest anchor index); where two claim one anchor, the later one holds it
    top = _first_of_runs(j, np.lexsort((i, -iou, j)))
    top = top[iou[top] > 0.0]
    anchor, gt = i[top], j[top]
    last = _first_of_runs(anchor, np.lexsort((-gt, anchor)))

    # the threshold positives, then the force-matched ones, which win on
    # the same anchor
    pos_anchor = np.concatenate([ai[pos], anchor[last]])
    pos_gt = np.concatenate([j[best[pos]], gt[last]])
    keep = _first_of_runs(pos_anchor, np.lexsort((-np.arange(pos_anchor.size), pos_anchor)))
    pos_anchor, pos_gt = pos_anchor[keep], pos_gt[keep]
    labels[pos_anchor] = 1
    gt_rows = rows[pos_gt]
    return TargetAssignment(labels, pos_anchor, pos_gt, encode_boxes(gt_rows, anchors[pos_anchor]),
                            (gt_rows[:, 6] >= 0).astype(np.int64))


# ---------------------------------------------------------------------------
# fused loss ops (manual backward, validated by finite differences)

LOC_WEIGHT = 2.0
DIR_WEIGHT = 0.2
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
SMOOTH_L1_BETA = 1.0 / 9.0


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def sigmoid_focal_loss(logits: Tensor, target, weight, normalizer=1.0) -> Tensor:
    """Focal BCE (α = FOCAL_ALPHA, γ = FOCAL_GAMMA) summed over entries,
    scaled by per-row weight / normalizer."""
    alpha, gamma = FOCAL_ALPHA, FOCAL_GAMMA
    y = np.asarray(target, dtype=logits.dtype)
    w = (np.asarray(weight, dtype=logits.dtype) / normalizer)[:, None]
    z = logits.data
    p = _sigmoid(z)
    loss_pos = alpha * (1.0 - p) ** gamma * _softplus(-z)
    loss_neg = (1.0 - alpha) * p**gamma * _softplus(z)
    total = np.sum(w * (y * loss_pos + (1.0 - y) * loss_neg))

    def backward(g):
        s_pos = _softplus(-z)
        s_neg = _softplus(z)
        d_pos = -alpha * (1.0 - p) ** gamma * (gamma * p * s_pos + (1.0 - p))
        d_neg = (1.0 - alpha) * p**gamma * (gamma * (1.0 - p) * s_neg + p)
        return (g * w * (y * d_pos + (1.0 - y) * d_neg),)

    return T.make(np.asarray(total, dtype=logits.dtype), (logits,), backward)


def smooth_l1_sine_loss(pred: Tensor, target, weight, normalizer=1.0) -> Tensor:
    """Smooth L1 (β = SMOOTH_L1_BETA) over box residuals; the angle
    channel, the last of the 7, compares via sine."""
    beta, angle_channel = SMOOTH_L1_BETA, 6
    t = np.asarray(target, dtype=pred.dtype)
    w = (np.asarray(weight, dtype=pred.dtype) / normalizer)[:, None]
    r = pred.data - t
    ang = pred.data[:, angle_channel] - t[:, angle_channel]
    r = r.copy()
    r[:, angle_channel] = np.sin(ang)
    absr = np.abs(r)
    quad = absr < beta
    elem = np.where(quad, 0.5 * r * r / beta, absr - 0.5 * beta)
    total = np.sum(w * elem)

    def backward(g):
        dr = np.where(quad, r / beta, np.sign(r)) * w * g
        dr[:, angle_channel] *= np.cos(ang)
        return (dr,)

    return T.make(np.asarray(total, dtype=pred.dtype), (pred,), backward)


def softmax_cross_entropy(logits: Tensor, labels, weight, normalizer=1.0) -> Tensor:
    lab = np.asarray(labels, dtype=np.int64)
    w = np.asarray(weight, dtype=logits.dtype) / normalizer
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(z.shape[0]), lab]
    total = np.sum(w * (lse - picked))

    def backward(g):
        soft = np.exp(z - zmax)
        soft /= soft.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(z)
        onehot[np.arange(z.shape[0]), lab] = 1.0
        return (g * w[:, None] * (soft - onehot),)

    return T.make(np.asarray(total, dtype=logits.dtype), (logits,), backward)


def flatten_head_map(m: Tensor, per_anchor: int, anchors_per_cell: int) -> Tensor:
    """[1, A_cell*C, H, W] -> [H*W*A_cell, C] in anchor-grid order."""
    _, ch, h, w = m.shape
    if ch != per_anchor * anchors_per_cell:
        raise ConfigurationError("head map channels inconsistent with anchor layout")
    t = T.reshape(m, (anchors_per_cell, per_anchor, h, w))
    t = T.transpose(t, (2, 3, 0, 1))  # [H, W, A_cell, C]
    return T.reshape(t, (h * w * anchors_per_cell, per_anchor))


def anchor_rows(m: Tensor, per_anchor: int, anchors_per_cell: int, index) -> Tensor:
    """Rows `index` [K] of `flatten_head_map(m, ...)`, [K, C], gathered
    straight from the head map [1, A_cell*C, H, W] without flattening it."""
    _, ch, _, w = m.shape
    if ch != per_anchor * anchors_per_cell:
        raise ConfigurationError("head map channels inconsistent with anchor layout")
    cell, a = np.divmod(np.asarray(index, dtype=np.intp), anchors_per_cell)
    r, c = np.divmod(cell, w)
    channels = (a * per_anchor)[:, None] + np.arange(per_anchor)
    return T.gather(m, (0, channels, r[:, None], c[:, None]))


def detection_loss(cls_map, box_map, dir_map, assignment: TargetAssignment,
                   anchor_cls, cfg: AnchorConfig):
    """Focal + smooth-L1 (sine-angled) + direction CE. Returns Tensor dict.

    The focal loss runs over every anchor that is not ignored; the box and
    direction losses over the positive anchors' rows alone, gathered from
    their maps, since no other anchor carries weight in them."""
    a_cell = cfg.anchors_per_cell
    cls_flat = flatten_head_map(cls_map, len(CLASSES), a_cell)
    pos = assignment.pos_anchor
    box_pos = anchor_rows(box_map, 7, a_cell, pos)
    dir_pos = anchor_rows(dir_map, 2, a_cell, pos)

    labels = assignment.labels
    n_pos = max(1, assignment.num_positives)
    onehot = np.zeros((labels.shape[0], len(CLASSES)), dtype=np.float64)
    onehot[pos, anchor_cls[pos]] = 1.0
    cls_weight = (labels != -1).astype(np.float64)
    pos_weight = np.ones(pos.shape[0])

    cls_loss = sigmoid_focal_loss(cls_flat, onehot, cls_weight, normalizer=n_pos)
    loc_loss = smooth_l1_sine_loss(box_pos, assignment.pos_reg, pos_weight, normalizer=n_pos)
    dir_loss = softmax_cross_entropy(dir_pos, assignment.pos_dir, pos_weight, normalizer=n_pos)
    total = T.add(cls_loss, T.add(T.scale(loc_loss, LOC_WEIGHT), T.scale(dir_loss, DIR_WEIGHT)))
    return {"total": total, "cls": cls_loss, "loc": loc_loss, "dir": dir_loss}


def head_candidates(cls_map, box_map, dir_map, row0, anchors_per_cell, score_thr):
    """The anchors whose best class scores at least `score_thr`, from rows
    row0.. of the anchor grid held in the class, box and direction maps
    (arrays [1, A_cell·C, h, W]): their anchor indices (ascending), best
    class, its score, box residual rows [K, 7] and direction bins.

    The sigmoid is monotone, so only anchors whose largest class logit
    clears logit(score_thr) less a margin are scored. The margin of 1 is
    far above `_sigmoid`'s float32 rounding for thresholds from 2^-16 up
    (1 counts as 1 - 2^-16); below that every anchor is scored. The
    survivors' `_sigmoid`, its argmax and `>= score_thr` decide, as over
    every anchor."""
    a_cell = anchors_per_cell
    _, _, h, w = cls_map.shape
    views = []
    for m, per_anchor in ((cls_map, len(CLASSES)), (box_map, 7), (dir_map, 2)):
        if m.shape[1] != per_anchor * a_cell:
            raise ConfigurationError("head map channels inconsistent with anchor layout")
        views.append(m.reshape(a_cell, per_anchor, h, w))
    cls_v, box_v, dir_v = views
    p = min(score_thr, 1.0 - 2.0**-16)
    lo = math.log(p / (1.0 - p)) - 1.0 if p >= 2.0**-16 else -math.inf
    top = functools.reduce(np.maximum, cls_v.swapaxes(0, 1))  # [A_cell, h, W]
    r, c, a = np.nonzero((top >= lo).transpose(1, 2, 0))  # in anchor order
    scores = _sigmoid(cls_v[a, :, r, c])
    best_cls = scores.argmax(axis=1)
    best_score = scores[np.arange(best_cls.size), best_cls]
    keep = best_score >= score_thr
    r, c, a = r[keep], c[keep], a[keep]
    return (((row0 + r) * w + c) * a_cell + a, best_cls[keep], best_score[keep],
            box_v[a, :, r, c], dir_v[a, :, r, c].argmax(axis=1))


def decode_detections(candidates, anchors, nms_thr: float):
    """Detections from `head_candidates`' output: decoded boxes with
    direction-corrected yaw, after class-wise rotated NMS. Decoding and
    NMS run on arrays; only the kept rows become `Detection`s."""
    index, best_cls, best_score, box, dir_bin = candidates
    if index.size == 0:
        return []
    rows = decode_boxes(box, anchors[index])
    # wrap, then turn by pi each yaw whose sign its direction bin rejects
    yaw = wrap_angle(rows[:, 6])
    flip = np.where(dir_bin == 1, yaw < 0, yaw >= 0)
    yaw[flip] = wrap_angle(yaw[flip] + np.where(dir_bin[flip] == 1, math.pi, -math.pi))
    rows[:, 6] = wrap_angle(yaw)  # the yaw a `Box3D` holds: it wraps once more
    return [Detection(Box3D(*rows[k, :6].tolist(), float(yaw[k])), float(best_score[k]),
                      CLASSES[best_cls[k]])
            for k in nms_bev(rows, best_score, best_cls, nms_thr)]


def postprocess(cls_map, box_map, dir_map, anchors, anchor_cls, cfg: AnchorConfig,
                score_thr: float = SCORE_THRESHOLD, nms_thr: float = NMS_IOU):
    """Scores, decode, direction-corrected yaw, class-wise rotated NMS, over
    whole head maps."""
    candidates = head_candidates(cls_map.data, box_map.data, dir_map.data, 0,
                                 cfg.anchors_per_cell, score_thr)
    return decode_detections(candidates, anchors, nms_thr)
