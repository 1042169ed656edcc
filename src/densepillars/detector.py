"""FPN neck, anchor head, target assignment, training loss, and decoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .bev import box_rows, iou_matrix, nms_bev
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

    def forward(self, taps):
        if len(taps) != len(self.branches):
            raise ConfigurationError("neck expects one tap per branch")
        outs = []
        for tap, (w, bn, stride) in zip(taps, self.branches):
            h = T.conv_transpose2d(tap, w, stride)
            outs.append(T.batch_norm(h, bn, relu=True))
        return T.channel_concat(outs)

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
    """Three parallel 1x1 convs with bias: class, box residual, direction."""

    def __init__(self, in_channels: int = 384, cfg: AnchorConfig | None = None, seed: int = 0):
        self.cfg = cfg or AnchorConfig()
        a = self.cfg.anchors_per_cell
        rng = np.random.default_rng(seed)

        def head_conv(c_out, bias_init=0.0):
            w = rng.normal(0.0, 0.01, size=(c_out, in_channels, 1, 1)).astype(np.float32)
            b = np.full(c_out, bias_init, dtype=np.float32)
            return T.Conv2dParams(
                Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            )

        # class logits start near a low foreground prior to keep focal loss stable
        prior = 0.01
        self.cls_conv = head_conv(a * len(CLASSES), bias_init=-math.log((1 - prior) / prior))
        self.box_conv = head_conv(a * 7)
        self.dir_conv = head_conv(a * 2)

    def forward(self, fused):
        return (
            T.conv2d(fused, self.cls_conv),
            T.conv2d(fused, self.box_conv),
            T.conv2d(fused, self.dir_conv),
        )

    def named_params(self, prefix="head"):
        out = {}
        for name, conv in (
            ("cls", self.cls_conv),
            ("box", self.box_conv),
            ("dir", self.dir_conv),
        ):
            out[f"{prefix}.{name}.weight"] = conv.weight
            out[f"{prefix}.{name}.bias"] = conv.bias
        return out

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


@dataclass
class TargetAssignment:
    labels: np.ndarray  # [A] int8: 1 positive, 0 negative, -1 ignore
    gt_index: np.ndarray  # [A] int64, -1 when unassigned
    reg_targets: np.ndarray  # [A, 7]
    dir_targets: np.ndarray  # [A] int64

    @property
    def num_positives(self):
        return int((self.labels == 1).sum())


def assign_targets(anchors, anchor_cls, gts, cfg: AnchorConfig) -> TargetAssignment:
    """BEV-IoU threshold matching with per-ground-truth force matching."""
    a = anchors.shape[0]
    labels = np.zeros(a, dtype=np.int8)
    gt_index = np.full(a, -1, dtype=np.int64)
    reg_targets = np.zeros((a, 7), dtype=np.float64)
    dir_targets = np.zeros(a, dtype=np.int64)

    for ci, cls in enumerate(CLASSES):
        idx = np.nonzero(anchor_cls == ci)[0]
        cls_gts = [(gi, b) for gi, (b, c) in enumerate(gts) if c == cls]
        if not cls_gts or idx.size == 0:
            continue
        match_thr = cfg.match_thresholds[cls]
        unmatch_thr = cfg.unmatch_thresholds[cls]

        iou = iou_matrix(anchors[idx], box_rows([b for _, b in cls_gts]))
        best_gt = iou.argmax(axis=1)
        best_iou = iou[np.arange(idx.size), best_gt]
        pos = best_iou >= match_thr
        ignore = (best_iou >= unmatch_thr) & ~pos
        labels[idx[pos]] = 1
        labels[idx[ignore]] = -1
        gt_index[idx[pos]] = [cls_gts[g][0] for g in best_gt[pos]]

        # every ground truth claims its best-overlapping anchor
        for gj, (gi, _) in enumerate(cls_gts):
            col = iou[:, gj]
            top = int(col.argmax())
            if col[top] > 0.0:
                labels[idx[top]] = 1
                gt_index[idx[top]] = gi

    pos_idx = np.nonzero(labels == 1)[0]
    if pos_idx.size:
        gt_rows = np.stack([gts[gt_index[i]][0].as_array() for i in pos_idx])
        reg_targets[pos_idx] = encode_boxes(gt_rows, anchors[pos_idx])
        dir_targets[pos_idx] = (gt_rows[:, 6] >= 0).astype(np.int64)
    return TargetAssignment(labels, gt_index, reg_targets, dir_targets)


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


LOC_WEIGHT = 2.0
DIR_WEIGHT = 0.2
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
SMOOTH_L1_BETA = 1.0 / 9.0


def detection_loss(cls_map, box_map, dir_map, assignment: TargetAssignment,
                   anchor_cls, cfg: AnchorConfig):
    """Focal + smooth-L1 (sine-angled) + direction CE. Returns Tensor dict."""
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

    cls_loss = sigmoid_focal_loss(
        cls_flat, onehot, cls_weight, FOCAL_ALPHA, FOCAL_GAMMA, normalizer=n_pos
    )
    loc_loss = smooth_l1_sine_loss(
        box_flat, assignment.reg_targets, pos_weight, SMOOTH_L1_BETA, normalizer=n_pos
    )
    dir_loss = softmax_cross_entropy(
        dir_flat, assignment.dir_targets, pos_weight, normalizer=n_pos
    )
    total = T.add(cls_loss, T.add(T.scale(loc_loss, LOC_WEIGHT), T.scale(dir_loss, DIR_WEIGHT)))
    return {"total": total, "cls": cls_loss, "loc": loc_loss, "dir": dir_loss}


def postprocess(cls_map, box_map, dir_map, anchors, anchor_cls, cfg: AnchorConfig,
                score_thr: float = 0.1, nms_thr: float = 0.01):
    """Scores, decode, direction-corrected yaw, class-wise rotated NMS."""
    a_cell = cfg.anchors_per_cell
    cls_flat = flatten_head_map(cls_map, len(CLASSES), a_cell).data
    box_flat = flatten_head_map(box_map, 7, a_cell).data
    dir_flat = flatten_head_map(dir_map, 2, a_cell).data

    scores = _sigmoid(cls_flat)
    best_cls = scores.argmax(axis=1)
    best_score = scores[np.arange(scores.shape[0]), best_cls]
    keep = np.nonzero(best_score >= score_thr)[0]
    if keep.size == 0:
        return []
    decoded = decode_boxes(box_flat[keep], anchors[keep])
    dir_bin = dir_flat[keep].argmax(axis=1)

    dets = []
    for row, d, ci, sc in zip(decoded, dir_bin, best_cls[keep], best_score[keep]):
        yaw = wrap_angle(row[6])
        if d == 1 and yaw < 0:
            yaw = wrap_angle(yaw + math.pi)
        elif d == 0 and yaw >= 0:
            yaw = wrap_angle(yaw - math.pi)
        box = Box3D(*(float(v) for v in row[:6]), float(yaw))
        dets.append(Detection(box, float(sc), CLASSES[ci]))
    return nms_bev(dets, nms_thr)
