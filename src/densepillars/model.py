"""End-to-end detection pipeline: encoder -> backbone -> neck -> head."""

from __future__ import annotations

import numpy as np

from . import encoder as enc
from . import tensor as T
from .backbones import GrowthSchedule, build_backbone
from .detector import (
    AnchorConfig,
    AnchorHead,
    FPN,
    NeckSpec,
    assign_targets,
    detection_loss,
    generate_anchors,
    postprocess,
)
from .encoder import GridSpec, PFNWeights
from .pointcloud import FormatError, PointCloud
from .tensor import InvariantViolation


class DetectionPipeline:
    def __init__(self, grid: GridSpec | None = None, backbone: str = "dense",
                 growth: GrowthSchedule | None = None, seed: int = 0):
        self.grid = grid or GridSpec()
        rng = np.random.default_rng(seed)
        self.pfn = PFNWeights.create(self.grid, rng)
        self.backbone = build_backbone(backbone, seed=seed + 1, growth=growth)
        self.neck = FPN(NeckSpec(), seed=seed + 2)
        self.anchor_cfg = AnchorConfig()
        self.head = AnchorHead(sum(self.neck.spec.out_channels), self.anchor_cfg,
                               seed=seed + 3)
        self.anchors, self.anchor_cls = generate_anchors(self.grid, self.anchor_cfg)

    # -- parameter plumbing -------------------------------------------------

    def named_params(self):
        out = {}
        out.update(self.pfn.named_params())
        out.update(self.backbone.named_params())
        out.update(self.neck.named_params())
        out.update(self.head.named_params())
        return out

    def bn_list(self):
        return [self.pfn.bn] + self.backbone.bn_list() + self.neck.bn_list() + self.head.bn_list()

    def set_mode(self, mode: str):
        for bn in self.bn_list():
            bn.mode = mode

    def zero_grad(self):
        for p in self.named_params().values():
            p.zero_grad()

    # -- forward paths ------------------------------------------------------

    def encode(self, cloud: PointCloud, seed: int = 0, cap: bool = True):
        batch = enc.pillarize(cloud, self.grid, seed=seed, cap=cap)
        batch = enc.decorate(batch, self.grid)
        return batch

    def forward_encoded(self, batch):
        if batch.features.shape[0] == 0:
            raise InvariantViolation("no points fall inside the detection range")
        pillar_feats = enc.pfn_forward(batch, self.pfn)
        taps = self.backbone.forward(pillar_feats, batch.coords,
                                     (self.grid.height, self.grid.width))
        fused = self.neck.forward(taps)
        return self.head.forward(fused)

    def forward(self, cloud: PointCloud, seed: int = 0, cap: bool = True):
        return self.forward_encoded(self.encode(cloud, seed=seed, cap=cap))

    def targets_for(self, gts):
        return assign_targets(self.anchors, self.anchor_cls, gts, self.anchor_cfg)

    def loss_encoded(self, batch, assignment):
        cls_map, box_map, dir_map = self.forward_encoded(batch)
        return detection_loss(cls_map, box_map, dir_map, assignment,
                              self.anchor_cls, self.anchor_cfg)

    def predict(self, cloud: PointCloud, score_thr: float = 0.1, nms_thr: float = 0.01):
        """Detections for one frame; a frame with no point in range has none."""
        batch = self.encode(cloud, cap=False)
        if batch.features.shape[0] == 0:
            return []
        with T.no_grad():
            cls_map, box_map, dir_map = self.forward_encoded(batch)
        return postprocess(cls_map, box_map, dir_map, self.anchors, self.anchor_cls,
                           self.anchor_cfg, score_thr=score_thr, nms_thr=nms_thr)

    # -- checkpoint state ---------------------------------------------------

    def state_arrays(self):
        state = {f"param/{k}": v.data for k, v in self.named_params().items()}
        for i, bn in enumerate(self.bn_list()):
            state[f"bnstat/{i}/mean"] = bn.running_mean
            state[f"bnstat/{i}/var"] = bn.running_var
        return state

    def load_state_arrays(self, state):
        """Copy parameters and BN running stats from `state`; a missing or
        mis-shaped array is a FormatError naming its key."""
        for k, v in self.named_params().items():
            v.data = state_array(state, f"param/{k}", v.data.shape).astype(v.data.dtype).copy()
        for i, bn in enumerate(self.bn_list()):
            bn.running_mean = state_array(state, f"bnstat/{i}/mean", bn.running_mean.shape).copy()
            bn.running_var = state_array(state, f"bnstat/{i}/var", bn.running_var.shape).copy()


def state_array(state, key, shape=None):
    """`state[key]`, or a FormatError naming the key when it is missing or,
    with `shape` given, shaped otherwise."""
    if key not in state:
        raise FormatError(f"checkpoint has no array {key!r}")
    arr = state[key]
    if shape is not None and arr.shape != shape:
        raise FormatError(f"checkpoint array {key!r} has shape {arr.shape}, expected {shape}")
    return arr
