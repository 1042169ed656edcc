"""FPN neck, anchor head, target assignment, training loss, and decoding.

The head is one 1x1 conv whose output stacks the class, box and direction
maps, with or without a graph. When batch norm folds (eval mode, no graph),
the neck and the head run per tile of the fused map's rows
(`FPN.row_tiles`, `FPN.forward(rows=)`, `AnchorHead.forward(out=)`), so the
fused map is never built whole; only there does the neck fold batch norm,
once per frame (`FPN.folded`), for every tile. `head_candidates` scores the
anchors of any rows of the head maps, so `predict` scores each tile as the
head writes it and never builds the stacked map; `postprocess` scores whole
maps with it. `decode_detections` decodes the candidates and runs NMS.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .bev import box_rows, nms_bev, pair_iou, pairs_in_reach
# not called here: re-exported because perfbench/spans.py wraps
# detector.rotated_iou_bev by name, and tracing fails without the attribute
from .bev import rotated_iou_bev  # noqa: F401
from .encoder import GridSpec
from .pointcloud import CLASSES, CLASS_SIZES, Box3D, Detection, wrap_angle
from .tensor import ConfigurationError, Tensor


@dataclass
class NeckSpec:
    in_channels: tuple = (64, 128, 256)
    upsample_strides: tuple = (1, 2, 4)
    out_channels: tuple = (128, 128, 128)


@dataclass
class AnchorConfig:
    sizes: dict = field(default_factory=lambda: dict(CLASS_SIZES))
    z_centers: dict = field(
        default_factory=lambda: {"Car": -1.78, "Pedestrian": -0.6, "Cyclist": -0.6}
    )
    rotations: tuple = (0.0, math.pi / 2)
    match_thresholds: dict = field(
        default_factory=lambda: {"Car": 0.6, "Pedestrian": 0.5, "Cyclist": 0.5}
    )
    unmatch_thresholds: dict = field(
        default_factory=lambda: {"Car": 0.45, "Pedestrian": 0.35, "Cyclist": 0.35}
    )
    feature_stride: int = 2

    def __post_init__(self):
        for name in ("sizes", "z_centers", "match_thresholds", "unmatch_thresholds"):
            missing = [c for c in CLASSES if c not in getattr(self, name)]
            if missing:
                raise ConfigurationError(f"AnchorConfig.{name} has no entry for {missing}")
        for cls in CLASSES:
            # an unscored pair has IoU 0, so an anchor of no pair must be negative
            match, unmatch = self.match_thresholds[cls], self.unmatch_thresholds[cls]
            if not 0.0 < unmatch <= match <= 1.0:
                raise ConfigurationError(
                    f"AnchorConfig thresholds for {cls} must satisfy "
                    f"0 < unmatch <= match <= 1, got unmatch {unmatch}, match {match}"
                )

    @property
    def anchors_per_cell(self):
        return len(CLASSES) * len(self.rotations)


class FPN:
    """Upsample each backbone tap to the stride-2 grid and concatenate."""

    def __init__(self, spec: NeckSpec, seed: int = 0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.branches = []
        for c_in, stride, c_out in zip(spec.in_channels, spec.upsample_strides, spec.out_channels):
            std = np.sqrt(2.0 / (c_out * stride * stride))
            w = rng.normal(0.0, std, size=(c_in, c_out, stride, stride)).astype(np.float32)
            self.branches.append(
                (Tensor(w, requires_grad=True), T.BatchNormParams.create(c_out), stride)
            )

    def folds(self, taps):
        """Whether batch norm folds into every branch, which `forward(rows=)`
        needs."""
        return all(bn.folds(tap, w) for tap, (w, bn, _) in zip(taps, self.branches))

    def row_tiles(self, taps):
        """Tiles [r0, r1) of the fused map's rows for `forward(rows=)`, each
        a multiple of the largest upsample stride, whose rows of the taps
        hold about a GEMM tile (`T.row_tiles`) together."""
        row_bytes = sum(tap.data[:, :, 0].nbytes // stride
                        for tap, (_, _, stride) in zip(taps, self.branches))
        return T.row_tiles(self.fused_shape(taps)[2], row_bytes, max(self.spec.upsample_strides))

    def fused_shape(self, taps):
        """[N, C, H, W] of the fused map: the taps upsampled to the grid of
        the first."""
        n, _, rows, cols = taps[0].shape
        s0 = self.branches[0][2]
        return n, sum(self.spec.out_channels), rows * s0, cols * s0

    def folded(self, taps):
        """Each branch's transposed-conv weight with its batch norm folded
        in, and the bias, for `forward(rows=)`: once per frame, from the
        current running statistics (nothing is cached). Every batch norm
        must fold."""
        if not self.folds(taps):
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
            if any(r % s for r in rows for s in self.spec.upsample_strides):
                raise ConfigurationError(f"FPN: rows {rows} not on every upsample stride")
        bounds = np.cumsum([0, *self.spec.out_channels])
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

    def __init__(self, in_channels: int = 384, cfg: AnchorConfig | None = None, seed: int = 0):
        a = (cfg or AnchorConfig()).anchors_per_cell
        self.widths = (a * len(CLASSES), a * 7, a * 2)
        rng = np.random.default_rng(seed)
        # one draw equals drawing the class, box and direction rows in turn
        w = rng.normal(0.0, 0.01, size=(sum(self.widths), in_channels, 1, 1)).astype(np.float32)
        b = np.zeros(sum(self.widths), dtype=np.float32)
        # class logits start near a low foreground prior to keep focal loss stable
        prior = 0.01
        b[: self.widths[0]] = -math.log((1 - prior) / prior)
        self.conv = T.Conv2dParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))

    @property
    def channels(self):
        """Channels of the stacked map: the three maps' together."""
        return self.conv.weight.shape[0]

    def forward(self, fused, out=None):
        """Class, box and direction maps, split from the stacked map.
        `out` (rows of a larger stacked map, say) receives the stacked map,
        only without a graph."""
        return self.split(T.conv2d(fused, self.conv, out=out))

    def split(self, maps: Tensor):
        """The class, box and direction maps: channel slices of the stacked
        map [N, 72, H, W], through which a graph's gradients flow."""
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
    (boxes [A, 7] float64, class index [A]).
    """
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
    are scored; every other pair has IoU 0, which leaves an anchor negative
    (`AnchorConfig` keeps both thresholds above 0). The positives are
    collected from the pair list, so the labels are the one table over all
    anchors it builds.
    """
    labels = np.zeros(anchors.shape[0], dtype=np.int8)
    rows = box_rows([b for b, _ in gts])
    gt_cls = np.array([CLASSES.index(c) for _, c in gts], dtype=np.int64)
    i, j = pairs_in_reach(anchors, rows, anchor_cls, gt_cls)
    iou = pair_iou(anchors[i], rows[j])

    # each anchor's best ground truth: highest IoU, ties to the lowest index
    best = _first_of_runs(i, np.lexsort((j, -iou, i)))
    ai, best_iou = i[best], iou[best]
    match = np.array([cfg.match_thresholds[c] for c in CLASSES])[anchor_cls[ai]]
    unmatch = np.array([cfg.unmatch_thresholds[c] for c in CLASSES])[anchor_cls[ai]]
    pos = best_iou >= match
    labels[ai[(best_iou >= unmatch) & ~pos]] = -1

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


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def sigmoid_focal_loss(logits: Tensor, target, weight, alpha=0.25, gamma=2.0,
                       normalizer=1.0) -> Tensor:
    """Focal BCE summed over entries, scaled by per-row weight / normalizer."""
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


def smooth_l1_sine_loss(pred: Tensor, target, weight, beta=1.0 / 9.0,
                        normalizer=1.0, angle_channel=6) -> Tensor:
    """Smooth L1 over box residuals; the angle channel compares via sine."""
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


LOC_WEIGHT = 2.0
DIR_WEIGHT = 0.2
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
SMOOTH_L1_BETA = 1.0 / 9.0


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

    cls_loss = sigmoid_focal_loss(
        cls_flat, onehot, cls_weight, FOCAL_ALPHA, FOCAL_GAMMA, normalizer=n_pos
    )
    loc_loss = smooth_l1_sine_loss(
        box_pos, assignment.pos_reg, pos_weight, SMOOTH_L1_BETA, normalizer=n_pos
    )
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


def decode_detections(candidates, anchors, nms_thr: float = 0.01):
    """Detections from `head_candidates`' output: decoded boxes with
    direction-corrected yaw, after class-wise rotated NMS."""
    index, best_cls, best_score, box, dir_bin = candidates
    if index.size == 0:
        return []
    decoded = decode_boxes(box, anchors[index])

    dets = []
    for row, d, ci, sc in zip(decoded, dir_bin, best_cls, best_score):
        yaw = wrap_angle(row[6])
        if d == 1 and yaw < 0:
            yaw = wrap_angle(yaw + math.pi)
        elif d == 0 and yaw >= 0:
            yaw = wrap_angle(yaw - math.pi)
        box = Box3D(*(float(v) for v in row[:6]), float(yaw))
        dets.append(Detection(box, float(sc), CLASSES[ci]))
    return nms_bev(dets, nms_thr)


def postprocess(cls_map, box_map, dir_map, anchors, anchor_cls, cfg: AnchorConfig,
                score_thr: float = 0.1, nms_thr: float = 0.01):
    """Scores, decode, direction-corrected yaw, class-wise rotated NMS, over
    whole head maps."""
    candidates = head_candidates(cls_map.data, box_map.data, dir_map.data, 0,
                                 cfg.anchors_per_cell, score_thr)
    return decode_detections(candidates, anchors, nms_thr)
