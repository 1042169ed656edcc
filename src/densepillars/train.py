"""Desk-scale overfit training loop plus checkpoint save/load."""

from __future__ import annotations

import math
import os
import zipfile

import numpy as np

from .bev import recall_at_iou
from .config import RunConfig
from .model import DetectionPipeline, state_array
from .optim import OptimizerState, adamw_step, cosine_lr
from .pointcloud import FormatError, synth_scene
from .tensor import ConfigurationError, InvariantViolation

CHECKPOINT_VERSION = 3
RECALL_IOU = 0.5  # BEV IoU at which `training_recall` counts a box as found


def build_pipeline(cfg: RunConfig) -> DetectionPipeline:
    return DetectionPipeline(
        grid=cfg.grid_spec(),
        backbone=cfg["architecture.backbone"],
        growth=cfg.growth_schedule(),
        seed=cfg["run.seed"],
    )


def save_checkpoint(path, pipeline: DetectionPipeline, cfg: RunConfig) -> None:
    """What `infer` reads: parameters, BN running stats, version and config."""
    state = pipeline.state_arrays()
    state["meta/version"] = np.array(CHECKPOINT_VERSION)
    state["meta/config"] = np.frombuffer(cfg.to_json().encode("utf-8"), dtype=np.uint8)
    np.savez(path, **state)


def load_checkpoint(path):
    """Pipeline and config from a checkpoint. An unreadable file, a bare
    `.npy` array, a checkpoint of another version, and a missing, mis-shaped,
    undecodable or unknown array are each a FormatError naming `path` and,
    where there is one, the key."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError("an array, not an npz archive")
        with archive as z:
            state = {k: z[k] for k in z.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise FormatError(f"{path}: not a readable checkpoint: {e}") from None
    try:
        return _restore(state)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None


def _restore(state):
    version = state_array(state, "meta/version", ())
    if version.dtype.kind not in "iu":
        raise FormatError(
            f"checkpoint array 'meta/version' has dtype {version.dtype}, expected an integer")
    if int(version) != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint array 'meta/version' is {int(version)}, "
                          f"expected {CHECKPOINT_VERSION}")
    raw = bytes(state_array(state, "meta/config"))
    try:
        cfg = RunConfig.from_json(raw.decode("utf-8"))
        pipeline = build_pipeline(cfg)
    except ValueError as e:  # undecodable, not a JSON object, a bad value or bad grid
        raise FormatError(f"checkpoint array 'meta/config' is not a valid config: {e}") from None
    pipeline.load_state_arrays(state)
    unknown = sorted(set(state) - {"meta/version", "meta/config", *pipeline.state_arrays()})
    if unknown:
        raise FormatError(f"checkpoint has unknown array {unknown[0]!r}")
    return pipeline, cfg


def make_training_scenes(cfg: RunConfig):
    g = cfg.grid_spec()
    base = cfg["run.seed"]
    return [
        synth_scene(
            seed=base * 1000 + i,
            n_boxes=cfg["train.boxes_per_scene"],
            x_range=g.x_range,
            y_range=g.y_range,
        )
        for i in range(cfg["train.num_scenes"])
    ]


def train(cfg: RunConfig, out_dir: str, scenes=None, log=print):
    """Overfit loop: cached pillar batches and targets, AdamW + cosine lr.
    A scene with no point inside the grid is skipped, and their count goes
    to `log`; a ConfigurationError names the grid's ranges when no scene is
    left.

    Writes `loss.csv` (step, lr, cls, loc, dir, total) and `checkpoint.npz`
    to out_dir; returns the per-step total-loss history.
    """
    pipeline = build_pipeline(cfg)
    pipeline.set_mode("train")
    if scenes is None:
        scenes = make_training_scenes(cfg)
    encoded = [(pipeline.encode(s.cloud, seed=i, cap=True), s) for i, s in enumerate(scenes)]
    kept = [(b, s) for b, s in encoded if b.features.shape[0]]
    if not kept:
        g = pipeline.grid
        raise ConfigurationError(
            f"no training scene has a point inside the grid: x_range {g.x_range}, "
            f"y_range {g.y_range}, z_range {g.z_range}")
    if len(kept) < len(scenes) and log is not None:
        log(f"skipped {len(scenes) - len(kept)} of {len(scenes)} training scenes "
            f"with no point inside the grid")
    batches = [b for b, _ in kept]
    assignments = [pipeline.targets_for(s.boxes) for _, s in kept]
    os.makedirs(out_dir, exist_ok=True)

    params = pipeline.named_params()
    opt = OptimizerState(lr=cfg["train.lr"], weight_decay=cfg["train.weight_decay"])
    steps = cfg["train.steps"]
    bs = cfg["train.batch_size"]
    history = []
    rows = ["step,lr,cls,loc,dir,total"]
    for step in range(steps):
        lr = cosine_lr(step, steps, cfg["train.lr"], cfg["train.eta_min"])
        opt.lr = lr
        pipeline.zero_grad()
        sums = {"cls": 0.0, "loc": 0.0, "dir": 0.0, "total": 0.0}
        for j in range(bs):
            i = (step * bs + j) % len(batches)
            losses = pipeline.loss_encoded(batches[i], assignments[i])
            losses["total"].backward(np.array(1.0 / bs, dtype=np.float32))
            for k in sums:
                sums[k] += float(losses[k].data) / bs
        if not math.isfinite(sums["total"]):
            raise InvariantViolation(f"non-finite loss at step {step}: {sums}")
        adamw_step(params, opt)
        history.append(sums["total"])
        rows.append(
            f"{step},{lr:.6g},{sums['cls']:.6g},{sums['loc']:.6g},"
            f"{sums['dir']:.6g},{sums['total']:.6g}"
        )
        if log is not None and (step % 25 == 0 or step == steps - 1):
            log(f"step {step:4d}  lr {lr:.5f}  total {sums['total']:.4f}")

    with open(os.path.join(out_dir, "loss.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    save_checkpoint(os.path.join(out_dir, "checkpoint.npz"), pipeline, cfg)
    return pipeline, history


def training_recall(pipeline: DetectionPipeline, scenes, cfg: RunConfig) -> dict:
    """Per class, (found, total) of the scenes' boxes that the pipeline, in
    eval mode with the config's score and NMS thresholds, detects at BEV IoU
    >= RECALL_IOU. On the scenes `train` fitted, this is the overfit check."""
    pipeline.set_mode("eval")
    frames = [
        (pipeline.predict(s.cloud, score_thr=cfg["eval.score_threshold"],
                          nms_thr=cfg["eval.nms_iou"]), s.boxes)
        for s in scenes
    ]
    return recall_at_iou(frames, RECALL_IOU)
