#!/usr/bin/env python3
"""Overfit the detector on a handful of synthetic scenes and report the
per-class recall of the trained model on those same scenes."""

import argparse
import os

from densepillars.bev import recall_at_iou
from densepillars.config import parse_config
from densepillars.train import make_training_scenes, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(
        os.path.dirname(__file__), "..", "configs", "desk_overfit.cfg"))
    ap.add_argument("--out-dir", default="runs/overfit")
    ap.add_argument("--iou", type=float, default=0.5, help="recall IoU threshold")
    args = ap.parse_args()

    cfg = parse_config(args.config)
    scenes = make_training_scenes(cfg)
    pipeline, history = train(cfg, args.out_dir, scenes=scenes)
    print(f"\nloss {history[0]:.3f} -> {history[-1]:.3f} "
          f"(ratio {history[-1] / history[0]:.4f})")

    pipeline.set_mode("eval")
    frames = [
        (pipeline.predict(scene.cloud, score_thr=cfg["eval.score_threshold"],
                          nms_thr=cfg["eval.nms_iou"]), scene.boxes)
        for scene in scenes
    ]
    for cls, (found, total) in recall_at_iou(frames, args.iou).items():
        print(f"{cls:<12} recall {found}/{total} = {found / total:.2f}")


if __name__ == "__main__":
    main()
