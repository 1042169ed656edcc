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
    decode_detections,
    detection_loss,
    generate_anchors,
    head_candidates,
)
# not called here: re-exported because perfbench/spans.py wraps
# model.postprocess by name, and tracing fails without the attribute
from .detector import postprocess  # noqa: F401
from .encoder import GridSpec, PFNWeights
from .pointcloud import FormatError, PointCloud
from .tensor import ConfigurationError, InvariantViolation, Tensor


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

    def _taps(self, batch):
        if batch.features.shape[0] == 0:
            raise InvariantViolation("no points fall inside the detection range")
        pillar_feats = enc.pfn_forward(batch, self.pfn)
        return self.backbone.forward(pillar_feats, batch.coords,
                                     (self.grid.height, self.grid.width))

    def head_tiles(self, taps, out=None):
        """Per tile of the fused map's rows (`FPN.row_tiles`), its first row
        and the class, box and direction maps of its rows: the neck and the
        head run per tile with batch norm folded (every batch norm must
        fold), the neck's once per frame. With `out`, a stacked head map
        [N, 72, H, W], each tile is written into its rows of it."""
        folded = self.neck.folded(taps)
        for r0, r1 in self.neck.row_tiles(taps):
            tile = None if out is None else out[:, :, r0:r1]
            yield r0, self.head.forward(self.neck.forward(taps, rows=(r0, r1), folded=folded),
                                        out=tile)

    def forward_encoded(self, batch):
        """The class, box and direction maps. When batch norm folds, the
        neck and the head run per tile of rows (`head_tiles`) into one
        stacked map, so the fused map is never built whole."""
        taps = self._taps(batch)
        if not self.neck.folds(taps):
            return self.head.forward(self.neck.forward(taps))
        n, _, rows, cols = self.neck.fused_shape(taps)
        maps = np.empty((n, self.head.channels, rows, cols), dtype=taps[0].dtype)
        for _ in self.head_tiles(taps, out=maps):
            pass
        return self.head.split(Tensor(maps))

    def forward(self, cloud: PointCloud, seed: int = 0, cap: bool = True):
        return self.forward_encoded(self.encode(cloud, seed=seed, cap=cap))

    def targets_for(self, gts):
        return assign_targets(self.anchors, self.anchor_cls, gts, self.anchor_cfg)

    def loss_encoded(self, batch, assignment):
        cls_map, box_map, dir_map = self.forward_encoded(batch)
        return detection_loss(cls_map, box_map, dir_map, assignment,
                              self.anchor_cls, self.anchor_cfg)

    def predict(self, cloud: PointCloud, score_thr: float = 0.1, nms_thr: float = 0.01):
        """Detections for one frame; a frame with no point in range has none.
        Every batch norm must be in eval mode (`set_mode("eval")`): in train
        mode it would normalise with the frame's statistics and update the
        running ones. Each neck and head tile is scored as the head writes
        it (`head_tiles`, `head_candidates`), so the stacked head map is
        never built; the tiles come in row order, so the candidates reach
        decode and NMS in anchor order, as from `postprocess`."""
        if any(bn.mode != "eval" for bn in self.bn_list()):
            raise ConfigurationError("predict needs every batch norm in eval mode; "
                                     "call set_mode('eval') first")
        batch = self.encode(cloud, cap=False)
        if batch.features.shape[0] == 0:
            return []
        a_cell = self.anchor_cfg.anchors_per_cell
        with T.no_grad():
            parts = [head_candidates(*(m.data for m in maps), r0, a_cell, score_thr)
                     for r0, maps in self.head_tiles(self._taps(batch))]
        candidates = [np.concatenate(column) for column in zip(*parts)]
        return decode_detections(candidates, self.anchors, nms_thr)

    # -- checkpoint state ---------------------------------------------------

    def state_arrays(self):
        state = {f"param/{k}": v.data for k, v in self.named_params().items()}
        for i, bn in enumerate(self.bn_list()):
            state[f"bnstat/{i}/mean"] = bn.running_mean
            state[f"bnstat/{i}/var"] = bn.running_var
        return state

    def load_state_arrays(self, state):
        """Copy parameters and BN running stats from `state`; a missing,
        mis-shaped or non-finite array, or a negative running variance, is
        a FormatError naming its key: eval mode folds these values into the
        convs, and one NaN there would make every score NaN and `infer`
        report no detections."""
        for k, v in self.named_params().items():
            v.data = _finite_array(state, f"param/{k}", v.data.shape, v.data.dtype)
        for i, bn in enumerate(self.bn_list()):
            bn.running_mean = _finite_array(state, f"bnstat/{i}/mean", bn.running_mean.shape)
            bn.running_var = _finite_array(state, f"bnstat/{i}/var", bn.running_var.shape)
            if np.any(bn.running_var < 0):
                raise FormatError(f"checkpoint array 'bnstat/{i}/var' has a negative variance")


def _finite_array(state, key, shape, dtype=None):
    """A copy of `state[key]` (cast to `dtype` if given), checked as in
    `state_array` and for non-finite values."""
    arr = np.array(state_array(state, key, shape), dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"checkpoint array {key!r} has a non-finite value")
    return arr


def state_array(state, key, shape=None):
    """`state[key]`, or a FormatError naming the key when it is missing or,
    with `shape` given, shaped otherwise."""
    if key not in state:
        raise FormatError(f"checkpoint has no array {key!r}")
    arr = state[key]
    if shape is not None and arr.shape != shape:
        raise FormatError(f"checkpoint array {key!r} has shape {arr.shape}, expected {shape}")
    return arr
