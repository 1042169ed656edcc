"""The three benchmark workloads and their output checks.

- desk-train: AdamW training steps on the desk grid (backward passes,
  train-mode batch norm, optimizer); pillarization and assignment happen
  in set-up, as `train.train` does them.
- kitti-infer: `read_kitti_bin` -> `DetectionPipeline.predict` ->
  `write_predictions` on the full KITTI grid (forward only, eval-mode batch
  norm, per-pillar Python loop).
- kitti-eval: no network. Target assignment over every KITTI anchor,
  `postprocess` of head maps built from that assignment, CSV writing and
  label reading, and `evaluate_set` in BEV and 3D: rotated-box geometry only.

No timed op is expected to fail. Inputs on which the program is known to
fail are run once after the timed loop as probes, and their outcome is
reported next to the results (see `probes`).

Every workload makes its inputs from a variant number (the seed modulo
`VARIANTS`), so each run can be checked against reference values recorded
for that variant. Program calls go through module attributes at call time
so that the tracer's wrappers, when installed, see them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from densepillars import (
    bev,
    config,
    detector,
    encoder,
    model,
    optim,
    pointcloud,
    tensor,
    train,
)
from densepillars.backbones import BaselineBackboneSpec, DenseBackboneSpec
from densepillars.cost import comparison_report

BACKBONES = ("dense", "baseline")
VARIANTS = 32
LOSS_TERMS = ("cls", "loc", "dir", "total")

# Relative tolerances against the recorded references. Float32 sums over a
# network may be reordered by a faster kernel; geometry counts must be exact.
LOSS_RTOL = 2e-4
MAP_SUM_RTOL = 1e-4  # of the map's absolute sum
AP_ATOL = 1e-4


class OpFailed(Exception):
    """A program call raised on its input; counted as a failed op."""


@dataclass(frozen=True)
class Sizes:
    desk_overrides: dict
    kitti_grid: dict
    infer_frames: int
    infer_boxes: int
    infer_ground: int
    eval_frames: int
    eval_classes: tuple
    eval_false_positives: int


FULL = Sizes(
    desk_overrides={},
    kitti_grid={},  # the default GridSpec: 496 x 432 cells of 0.16 m
    infer_frames=2,
    infer_boxes=20,
    infer_ground=14000,
    eval_frames=4,
    eval_classes=("Car",) * 10 + ("Pedestrian",) * 5 + ("Cyclist",) * 5,
    eval_false_positives=300,
)

# Tiny sizes for the benchmark's own tests: every code path, in seconds.
SMOKE = Sizes(
    desk_overrides={
        "grid.x_max": 10.24, "grid.y_min": -5.12, "grid.y_max": 5.12,
        "train.num_scenes": 2, "train.boxes_per_scene": 2,
    },
    kitti_grid={"x_range": (0.0, 10.24), "y_range": (-5.12, 5.12)},
    infer_frames=1,
    infer_boxes=3,
    infer_ground=500,
    eval_frames=2,
    eval_classes=("Car", "Car", "Pedestrian", "Cyclist"),
    eval_false_positives=10,
)


def _fresh(*paths):
    """Remove earlier outputs: truncating a just-written file can stall on a
    journal flush, which a run writing into a new directory never pays."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    return paths[0]


def _probe(probes, name, fn):
    """Run a program call on an input it is known to mishandle; record how it ends."""
    try:
        out = fn()
    except Exception as e:  # the outcome is the result
        probes[name] = f"{type(e).__name__}: {e}"
        return None
    probes[name] = "ok"
    return out


def _rel_close(value, ref, rtol, scale=None):
    scale = abs(ref) if scale is None else scale
    return abs(value - ref) <= rtol * max(scale, 1e-12)


@dataclass
class Workload:
    """Common state: inputs are made in `setup`, timed in `run_pass`."""

    root: str
    variant: int
    sizes: Sizes
    workdir: str
    backbones: tuple = BACKBONES
    min_passes: int = 1
    observed: dict = field(default_factory=dict)
    probes: dict = field(default_factory=dict)

    def macs(self):
        """Analytic per-component MACs for both backbones on this grid."""
        dense, base, ratios = comparison_report(
            self.grid, DenseBackboneSpec(), BaselineBackboneSpec()
        )
        rows = {
            kind: {r.component: r.macs for r in report.rows}
            for kind, report in (("dense", dense), ("baseline", base))
        }
        return rows, ratios["mac_ratio"]


# ---------------------------------------------------------------------------
# desk-train


@dataclass
class Trainee:
    cfg: config.RunConfig
    pipeline: model.DetectionPipeline
    params: dict
    batches: list
    assignments: list
    opt: optim.OptimizerState
    losses: list = field(default_factory=list)


class DeskTrain(Workload):
    name = "desk-train"
    # The loss rises for the first few steps from the random start and then
    # falls; judging the trend needs this many steps at least.
    MIN_STEPS = 16

    def setup(self):
        cfg_path = os.path.join(self.root, "configs", "desk_overfit.cfg")
        self.trainees = {}
        for kind in self.backbones:
            overrides = {"run.seed": self.variant, "architecture.backbone": kind}
            cfg = config.parse_config(cfg_path, {**overrides, **self.sizes.desk_overrides})
            scenes = train.make_training_scenes(cfg)
            pipeline = train.build_pipeline(cfg)
            pipeline.set_mode("train")
            batches = [pipeline.encode(s.cloud, seed=i, cap=True) for i, s in enumerate(scenes)]
            assignments = [pipeline.targets_for(s.boxes) for s in scenes]
            opt = optim.OptimizerState(lr=cfg["train.lr"], weight_decay=cfg["train.weight_decay"])
            self.trainees[kind] = Trainee(
                cfg, pipeline, pipeline.named_params(), batches, assignments, opt
            )
        self.grid = cfg.grid_spec()
        self.step = 0
        bs = cfg["train.batch_size"]
        self.steps_per_pass = math.ceil(cfg["train.num_scenes"] / bs)
        self.min_passes = math.ceil(self.MIN_STEPS / self.steps_per_pass)

    def _train_step(self, t: Trainee, step: int):
        """One step exactly as the body of `train.train`'s loop."""
        cfg = t.cfg
        bs = cfg["train.batch_size"]
        t.opt.lr = optim.cosine_lr(step, cfg["train.steps"], cfg["train.lr"], cfg["train.eta_min"])
        t.pipeline.zero_grad()
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        for j in range(bs):
            i = (step * bs + j) % len(t.batches)
            losses = t.pipeline.loss_encoded(t.batches[i], t.assignments[i])
            losses["total"].backward(np.array(1.0 / bs, dtype=np.float32))
            for k in sums:
                sums[k] += float(losses[k].data) / bs
        optim.adamw_step(t.params, t.opt)
        return sums

    def memory_probe(self, kind):
        t = self.trainees[kind]
        t.pipeline.loss_encoded(t.batches[0], t.assignments[0])["total"].backward()
        t.pipeline.zero_grad()

    def run_pass(self, ctx):
        for _ in range(self.steps_per_pass):
            with ctx.item():
                for kind in self.backbones:
                    t = self.trainees[kind]
                    t.losses.append(ctx.op(kind, "step", lambda: self._train_step(t, self.step)))
            self.step += 1

    def check(self, ref):
        problems = []
        n = self.steps_per_pass
        step0 = {}
        for kind, t in self.trainees.items():
            for s, sums in enumerate(t.losses):
                if not all(math.isfinite(v) for v in sums.values()):
                    problems.append(f"{kind}: non-finite loss at step {s}: {sums}")
            if not t.losses:
                problems.append(f"{kind}: no training step succeeded")
                continue
            step0[kind] = t.losses[0]
            if len(t.losses) >= self.MIN_STEPS:
                first = np.mean([x["total"] for x in t.losses[:n]])
                last = np.mean([x["total"] for x in t.losses[-n:]])
                if not last < first:
                    problems.append(f"{kind}: loss did not fall ({first:.5g} -> {last:.5g})")
            else:
                problems.append(f"{kind}: fewer than {self.MIN_STEPS} steps to judge the loss trend")
            if ref is not None:
                for term in LOSS_TERMS:
                    got, want = t.losses[0][term], ref["step0"][kind][term]
                    if not _rel_close(got, want, LOSS_RTOL):
                        problems.append(f"{kind}: step-0 {term} loss {got!r} != reference {want!r}")
        self.observed = {"step0": step0}
        return problems


# ---------------------------------------------------------------------------
# kitti-infer


def _pillar_oracle(cloud, g):
    """Distinct in-range cells, counted independently of `pillarize`."""
    pts = cloud.points.astype(np.float64)
    keep = (
        (pts[:, 0] >= g.x_range[0]) & (pts[:, 0] < g.x_range[1])
        & (pts[:, 1] >= g.y_range[0]) & (pts[:, 1] < g.y_range[1])
        & (pts[:, 2] >= g.z_range[0]) & (pts[:, 2] < g.z_range[1])
    )
    col = np.floor((pts[keep, 0] - g.x_range[0]) / g.pillar_size[0]).astype(np.int64)
    row = np.floor((pts[keep, 1] - g.y_range[0]) / g.pillar_size[1]).astype(np.int64)
    return int(np.unique(row * g.width + col).size)


class KittiInfer(Workload):
    name = "kitti-infer"

    def setup(self):
        g = self.grid = encoder.GridSpec(**self.sizes.kitti_grid)
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = []
        for i in range(self.sizes.infer_frames):
            scene = pointcloud.synth_scene(
                seed=self.variant * 1000 + i, n_boxes=self.sizes.infer_boxes,
                x_range=g.x_range, y_range=g.y_range, n_ground=self.sizes.infer_ground,
            )
            path = _fresh(os.path.join(self.workdir, f"frame_{i:02d}.bin"))
            pointcloud.write_kitti_bin(path, scene.cloud)
            self.paths.append(path)
            if i == 0:
                # the same points shifted behind the sensor, out of the x range
                pts = scene.cloud.points.copy()
                pts[:, 0] -= g.x_range[1] + 1.0
                self.out_of_range = _fresh(os.path.join(self.workdir, "out_of_range.bin"))
                pointcloud.write_kitti_bin(self.out_of_range, pointcloud.PointCloud(pts))
        self.pipelines = {}
        for kind in self.backbones:
            p = model.DetectionPipeline(g, backbone=kind, seed=0)
            p.set_mode("eval")
            self.pipelines[kind] = p
        self.detections = {}

    def _frame(self, kind, path, out):
        cloud = pointcloud.read_kitti_bin(path)
        dets = self.pipelines[kind].predict(cloud)
        pointcloud.write_predictions(out, dets)
        return dets

    def memory_probe(self, kind):
        self.pipelines[kind].predict(pointcloud.read_kitti_bin(self.paths[0]))

    def run_pass(self, ctx):
        for i, path in enumerate(self.paths):
            with ctx.item():
                for kind in self.backbones:
                    out = _fresh(path[: -len(".bin")] + f".{kind}.pred.csv")
                    self.detections[(kind, i)] = ctx.op(
                        kind, "frame", lambda: self._frame(kind, path, out))

    def check(self, ref):
        problems = []
        g = self.grid
        pillars = []
        for i, path in enumerate(self.paths):
            cloud = pointcloud.read_kitti_bin(path)
            p = encoder.pillarize(cloud, g, cap=False).features.shape[0]
            pillars.append(p)
            if p != _pillar_oracle(cloud, g):
                problems.append(f"frame {i}: {p} pillars, oracle {_pillar_oracle(cloud, g)}")
            if ref is not None and p != ref["pillars"][i]:
                problems.append(f"frame {i}: {p} pillars, reference {ref['pillars'][i]}")
        for kind, pipeline in self.pipelines.items():
            # every point out of range: a valid frame that should give no boxes
            dets = _probe(self.probes, f"out_of_range_frame.{kind}",
                          lambda: pipeline.predict(pointcloud.read_kitti_bin(self.out_of_range)))
            if dets:
                problems.append(f"{kind}: out-of-range frame produced {len(dets)} detections")
        for (kind, i), dets in self.detections.items():
            for d in dets:
                if not (0.1 <= d.score <= 1.0) or d.label not in pointcloud.CLASSES or not all(
                    math.isfinite(v) for v in d.box.as_array()
                ):
                    problems.append(f"{kind} frame {i}: malformed detection {d}")
        # head maps of frame 0, outside the timed loop
        cloud = pointcloud.read_kitti_bin(self.paths[0])
        h, w = g.height // 2, g.width // 2
        a_cell = detector.AnchorConfig().anchors_per_cell
        shapes = {"cls": (1, a_cell * 3, h, w), "box": (1, a_cell * 7, h, w), "dir": (1, a_cell * 2, h, w)}
        sums = {}
        for kind, pipeline in self.pipelines.items():
            maps = dict(zip(shapes, pipeline.forward(cloud, cap=False)))
            sums[kind] = {}
            for key, m in maps.items():
                data = m.data.astype(np.float64)
                if data.shape != shapes[key]:
                    problems.append(f"{kind} {key} map shape {data.shape} != {shapes[key]}")
                    continue
                if not np.all(np.isfinite(data)):
                    problems.append(f"{kind} {key} map has non-finite values")
                    continue
                s, a = float(data.sum()), float(np.abs(data).sum())
                sums[kind][key] = {"sum": s, "abs_sum": a}
                if ref is not None:
                    want = ref["map_sums"][kind][key]
                    if not _rel_close(s, want["sum"], MAP_SUM_RTOL, want["abs_sum"]) or not _rel_close(
                        a, want["abs_sum"], MAP_SUM_RTOL
                    ):
                        problems.append(f"{kind} {key} map sums {s!r}/{a!r} != reference {want}")
        self.observed = {"pillars": pillars, "map_sums": sums}
        return problems


# ---------------------------------------------------------------------------
# kitti-eval


def _to_map(flat, a_cell, h, w):
    """[H*W*A_cell, C] in anchor order -> [1, A_cell*C, H, W], the head layout."""
    c = flat.shape[1]
    return tensor.Tensor(
        flat.reshape(h, w, a_cell, c).transpose(2, 3, 0, 1).reshape(1, a_cell * c, h, w)
        .astype(np.float32)
    )


class KittiEval(Workload):
    name = "kitti-eval"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, backbones=("",), **kwargs)

    def _ground_truth(self, rng):
        """Non-overlapping boxes of a fixed class mix, fully inside the range."""
        g = self.grid
        boxes = []
        for cls in self.sizes.eval_classes:
            w, l, h = pointcloud.CLASS_SIZES[cls]
            half = math.hypot(w, l) / 2.0
            while True:
                cx = rng.uniform(g.x_range[0] + half, g.x_range[1] - half)
                cy = rng.uniform(g.y_range[0] + half, g.y_range[1] - half)
                if all(
                    math.hypot(b.cx - cx, b.cy - cy) >= half + math.hypot(b.w, b.l) / 2.0 + 0.5
                    for b, _ in boxes
                ):
                    break
            yaw = rng.uniform(-math.pi, math.pi)
            boxes.append((pointcloud.Box3D(cx, cy, pointcloud.GROUND_Z + h / 2.0, w, l, h, yaw), cls))
        return boxes

    def setup(self):
        self.grid = encoder.GridSpec(**self.sizes.kitti_grid)
        self.anchor_cfg = detector.AnchorConfig()
        self.anchors, self.anchor_cls = detector.generate_anchors(self.grid, self.anchor_cfg)
        rng = np.random.default_rng(self.variant)
        self.frames = [self._ground_truth(rng) for _ in range(self.sizes.eval_frames)]
        os.makedirs(self.workdir, exist_ok=True)
        self.stems = [os.path.join(self.workdir, f"frame_{i:02d}") for i in range(len(self.frames))]
        self.maps = {}
        self.results = {"positives": [], "covered": [], "kept": [], "ap": []}

    def _head_maps(self, i, assignment):
        """Class, box and direction maps that a detector could have produced.

        Positives score high with their regression targets plus noise; the
        ignore band scores mid with plain anchor boxes, duplicates that NMS
        must remove; seeded false positives score low.
        """
        rng = np.random.default_rng([self.variant, i])
        a = self.anchors.shape[0]
        labels = assignment.labels
        cls = np.full((a, len(pointcloud.CLASSES)), -8.0)
        box = np.zeros((a, 7))
        direction = np.zeros((a, 2))
        direction[:, 1] = 1.0
        pos = np.nonzero(labels == 1)[0]
        ign = np.nonzero(labels == -1)[0]
        neg = np.nonzero(labels == 0)[0]
        fp = rng.choice(neg, size=min(self.sizes.eval_false_positives, neg.size), replace=False)
        cls[pos, self.anchor_cls[pos]] = np.maximum(rng.normal(2.0, 1.5, pos.size), -1.5)
        box[pos] = assignment.reg_targets[pos] + rng.normal(0.0, 0.03, (pos.size, 7))
        direction[pos] = 0.0
        direction[pos, assignment.dir_targets[pos]] = 1.0
        cls[ign, self.anchor_cls[ign]] = rng.uniform(-1.0, 1.5, ign.size)
        cls[fp, self.anchor_cls[fp]] = rng.uniform(-2.0, 1.0, fp.size)
        a_cell = self.anchor_cfg.anchors_per_cell
        h = self.grid.height // self.anchor_cfg.feature_stride
        w = self.grid.width // self.anchor_cfg.feature_stride
        return tuple(_to_map(x, a_cell, h, w) for x in (cls, box, direction))

    def memory_probe(self, kind):
        assignment = detector.assign_targets(
            self.anchors, self.anchor_cls, self.frames[0], self.anchor_cfg)
        maps = self.maps.get(0) or self._head_maps(0, assignment)
        detector.postprocess(*maps, self.anchors, self.anchor_cls, self.anchor_cfg,
                             score_thr=0.1, nms_thr=0.01)
        return assignment

    def _write(self, i, gts, dets):
        pointcloud.write_labels(self.stems[i] + ".csv", gts)
        pointcloud.write_predictions(self.stems[i] + ".pred.csv", dets)

    def _read_labels(self):
        return [pointcloud.read_labels(s + ".csv") for s in self.stems]

    def run_pass(self, ctx):
        positives, covered, kept, detections = [], [], [], []
        for i, gts in enumerate(self.frames):
            with ctx.item():
                assignment = ctx.op("", "assign", lambda: detector.assign_targets(
                    self.anchors, self.anchor_cls, gts, self.anchor_cfg))
                positives.append(assignment.num_positives)
                pos_gts = set(assignment.gt_index[assignment.labels == 1].tolist())
                covered.append(pos_gts == set(range(len(gts))))
                if i not in self.maps:  # benchmark-side input, built once, not timed
                    self.maps[i] = self._head_maps(i, assignment)
                cls_map, box_map, dir_map = self.maps[i]
                dets = ctx.op("", "postprocess", lambda: detector.postprocess(
                    cls_map, box_map, dir_map, self.anchors, self.anchor_cls, self.anchor_cfg,
                    score_thr=0.1, nms_thr=0.01))
                kept.append(len(dets))
                detections.append(dets)
                _fresh(self.stems[i] + ".csv", self.stems[i] + ".pred.csv")
                ctx.op("", "write", lambda: self._write(i, gts, dets))
        try:
            # predictions are scored in memory: see the csv round-trip probe
            labels = ctx.op("", "read", self._read_labels)
            frames = list(zip(detections, labels))
            ap = {}
            for mode in ("BEV", "3D"):
                res = ctx.op(mode.lower(), "evaluate",
                             lambda: bev.evaluate_set(frames, bev.EvalConfig(mode=mode)))
                ap[mode] = res.per_class_ap
        except OpFailed:
            return
        for key, value in (("positives", positives), ("covered", covered), ("kept", kept), ("ap", ap)):
            self.results[key].append(value)

    def check(self, ref):
        problems = []
        r = self.results
        if not r["ap"]:
            return ["no complete pass over the frames"]
        for key in ("positives", "kept", "ap"):
            if any(v != r[key][0] for v in r[key]):
                problems.append(f"{key} differ between passes: {r[key]}")
        for i, ok in enumerate(r["covered"][0]):
            if not ok:
                problems.append(f"frame {i}: a ground truth has no positive anchor")
        observed = {"positives": r["positives"][0], "kept": r["kept"][0], "ap": r["ap"][0]}
        if ref is not None:
            for key in ("positives", "kept"):
                if observed[key] != ref[key]:
                    problems.append(f"{key} per frame {observed[key]} != reference {ref[key]}")
            for mode, per_class in ref["ap"].items():
                for cls, want in per_class.items():
                    got = observed["ap"][mode].get(cls)
                    if got is None or abs(got - want) > AP_ATOL:
                        problems.append(f"{mode} AP {cls} {got!r} != reference {want!r}")
        _probe(self.probes, "prediction_csv_round_trip",
               lambda: pointcloud.read_predictions(self.stems[0] + ".pred.csv"))
        self.observed = observed
        return problems


WORKLOADS = {w.name: w for w in (DeskTrain, KittiInfer, KittiEval)}
