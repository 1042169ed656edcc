"""Command-line surface: analyze, gradcheck, synth, train, infer, eval."""

from __future__ import annotations

import argparse
import glob
import os
import sys

import numpy as np

from . import tensor as T
from .backbones import BaselineBackboneSpec, DenseBackboneSpec
from .bev import evaluate_set
from .config import RunConfig, parse_config
from .cost import comparison_report
from .pointcloud import (
    FormatError,
    read_kitti_bin,
    read_labels,
    read_predictions,
    synth_scene,
    write_kitti_bin,
    write_labels,
    write_predictions,
)
from .tensor import ConfigurationError, InvariantViolation, Tensor, grad_check
from .train import load_checkpoint, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_INVARIANT = 3


def _parse_growth(text: str) -> dict:
    if text == "table":
        return {"growth.mode": "table_matched"}
    for mode in ("fixed", "doubling"):
        if text.startswith(mode + ":"):
            return {"growth.mode": mode, "growth.k": text.split(":", 1)[1]}
    raise ConfigurationError(
        f"bad --growth value {text!r}; expected fixed:<k>, doubling:<k0>, or table"
    )


def _load_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["run.seed"] = str(args.seed)
    if getattr(args, "backbone", None) is not None:
        overrides["architecture.backbone"] = args.backbone
    if getattr(args, "growth", None) is not None:
        overrides.update(_parse_growth(args.growth))
    if getattr(args, "out_dir", None) is not None:
        overrides["paths.out_dir"] = args.out_dir
    if getattr(args, "data_dir", None) is not None:
        overrides["paths.data_dir"] = args.data_dir
    return parse_config(args.config, overrides)


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid_spec()
    dense_spec = DenseBackboneSpec(growth=cfg.growth_schedule(),
                                   downsample=cfg["architecture.downsample"])
    dense, base, ratios = comparison_report(grid, dense_spec, BaselineBackboneSpec())
    print(f"input pseudo-image: {grid.feature_channels}x{grid.height}x{grid.width}\n")
    print("baseline backbone pipeline")
    print(base.render_table())
    print("\ndense backbone pipeline "
          f"(growth {cfg['growth.mode']}, k={cfg['growth.k']})")
    print(dense.render_table())
    print(f"\nbackbone param ratio (baseline/dense): {ratios['param_ratio']:.2f}")
    print(f"backbone MAC ratio   (baseline/dense): {ratios['mac_ratio']:.2f}")
    out_dir = cfg["paths.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for name, report in (("dense", dense), ("baseline", base)):
        path = os.path.join(out_dir, f"cost_{name}.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(report.to_csv())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    del args
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(0.5, 1.0, size=shape))

    eval_stats = (rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
    max_mask = rng.uniform(size=(3, 5)) < 0.6
    max_mask[2] = False  # one all-masked group
    checks = [
        ("linear_map", 1e-7, lambda: grad_check(
            lambda v: _total(T.linear_map(v[0], v[1], v[2])), [t(4, 5), t(5, 3), t(3)])),
        ("conv2d", 1e-5, lambda: grad_check(
            lambda v: _total(T.conv2d(v[0], T.Conv2dParams(v[1], v[2], 1, 1))),
            [t(1, 2, 5, 5), t(3, 2, 3, 3), t(3)])),
        ("conv2d_1x1_bias", 1e-5, lambda: grad_check(
            lambda v: _total(T.conv2d(v[0], T.Conv2dParams(v[1], v[2]))),
            [t(1, 3, 4, 4), t(2, 3, 1, 1), t(2)])),
        ("conv2d_batch2", 1e-5, lambda: grad_check(
            lambda v: _total(T.conv2d(v[0], T.Conv2dParams(v[1], None, 1, 1))),
            [t(2, 2, 4, 4), t(3, 2, 3, 3)])),
        ("conv_transpose2d", 1e-5, lambda: grad_check(
            lambda v: _total(T.conv_transpose2d(v[0], v[1], 2)),
            [t(1, 2, 4, 4), t(2, 3, 2, 2)])),
        ("batch_norm", 1e-5, lambda: grad_check(
            lambda v: _total(T.batch_norm(v[0], _bn_of(v[1], v[2]))),
            [t(2, 3, 4, 4), t(3), t(3)])),
        ("batch_norm_eval", 1e-5, lambda: grad_check(
            lambda v: _total(T.batch_norm(v[0], _bn_of(v[1], v[2], eval_stats))),
            [t(2, 3, 4, 4), t(3), t(3)])),
        ("relu", 1e-6, lambda: grad_check(
            lambda v: _total(T.relu(v[0])), [t(3, 4)])),
        ("avg_pool2x2", 1e-6, lambda: grad_check(
            lambda v: _total(T.avg_pool2x2(v[0])), [t(1, 2, 4, 4)])),
        ("max_over_axis", 1e-6, lambda: grad_check(
            lambda v: _total(T.max_over_axis(v[0], 1)), [t(3, 5)])),
        ("max_over_axis_masked", 1e-5, lambda: grad_check(
            lambda v: _total(T.max_over_axis(v[0], 1, mask=max_mask)), [t(3, 5)])),
        ("conv_bn_relu", 1e-4, lambda: grad_check(
            lambda v: _total(T.relu(T.batch_norm(
                T.conv2d(v[0], T.Conv2dParams(v[1], None, 1, 1)), _bn_of(v[2], v[3])))),
            [t(1, 2, 4, 4), t(3, 2, 3, 3), t(3), t(3)])),
    ]
    failed = False
    print(f"{'op':<20}{'max rel err':>14}{'tolerance':>12}  status")
    for name, tol, run in checks:
        err = run()
        ok = err <= tol
        failed |= not ok
        print(f"{name:<20}{err:>14.3e}{tol:>12.0e}  {'pass' if ok else 'FAIL'}")
    return EXIT_INVARIANT if failed else EXIT_OK


def _total(x):
    return T.reshape(x, (x.data.size,)) if x.data.size == 1 else _sum_all(x)


def _sum_all(x):
    flat = T.reshape(x, (1, x.data.size))
    ones = Tensor(np.ones((x.data.size, 1), dtype=x.dtype))
    return T.reshape(T.linear_map(flat, ones), (1,))


def _bn_of(gamma, beta, eval_stats=None):
    """Train-mode BN params, or eval mode with (running_mean, running_var)."""
    p = T.BatchNormParams.create(gamma.shape[0], dtype=gamma.dtype)
    p.gamma = gamma
    p.beta = beta
    if eval_stats is not None:
        p.running_mean, p.running_var = eval_stats
        p.mode = "eval"
    return p


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    g = cfg.grid_spec()
    out_dir = cfg["paths.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for i in range(args.num_scenes):
        scene = synth_scene(
            seed=cfg["run.seed"] * 1000 + i,
            n_boxes=cfg["train.boxes_per_scene"],
            x_range=g.x_range,
            y_range=g.y_range,
        )
        stem = os.path.join(out_dir, f"scene_{i:04d}")
        write_kitti_bin(stem + ".bin", scene.cloud)
        write_labels(stem + ".csv", scene.boxes)
        print(f"wrote {stem}.bin ({len(scene.cloud)} points, {len(scene.boxes)} boxes)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out_dir = cfg["paths.out_dir"]
    train(cfg, out_dir)
    print(f"checkpoint and loss.csv written to {out_dir}")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _load_config(args)
    pipeline, _, _ckpt_cfg = load_checkpoint(args.checkpoint)
    pipeline.set_mode("eval")
    eval_cfg = cfg.eval_config()
    paths = sorted(glob.glob(os.path.join(cfg["paths.data_dir"], "*.bin")))
    if not paths:
        raise FileNotFoundError(f"no .bin clouds in {cfg['paths.data_dir']}")
    out_dir = cfg["paths.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for path in paths:
        cloud = read_kitti_bin(path)
        dets = pipeline.predict(
            cloud, score_thr=cfg["eval.score_threshold"], nms_thr=eval_cfg.nms_iou
        )
        stem = os.path.splitext(os.path.basename(path))[0]
        out = os.path.join(out_dir, stem + ".pred.csv")
        write_predictions(out, dets)
        print(f"{path}: {len(dets)} detections -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    label_paths = sorted(
        p for p in glob.glob(os.path.join(cfg["paths.data_dir"], "*.csv"))
        if not p.endswith(".pred.csv")
    )
    if not label_paths:
        raise FileNotFoundError(f"no label CSVs in {cfg['paths.data_dir']}")
    frames = []
    for lp in label_paths:
        stem = os.path.splitext(os.path.basename(lp))[0]
        pp = os.path.join(args.pred_dir, stem + ".pred.csv")
        dets = read_predictions(pp) if os.path.exists(pp) else []
        frames.append((dets, read_labels(lp)))
    result = evaluate_set(frames, cfg.eval_config())
    for cls, ap in sorted(result.per_class_ap.items()):
        print(f"{cls:<12} AP(R40) = {ap:.4f}")
    print(f"{'mAP':<12}         = {result.mean_ap:.4f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="densepillars",
        description="Pillar-based 3D detection pipeline with a dense backbone",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, out=True, data=False):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--backbone", choices=("dense", "baseline"), default=None)
        p.add_argument("--growth", default=None,
                       help="fixed:<k> | doubling:<k0> | table")
        if out:
            p.add_argument("--out-dir", default=None)
        if data:
            p.add_argument("--data-dir", default=None)

    common(sub.add_parser("analyze", help="parameter/MAC cost report"))
    sub.add_parser("gradcheck", help="finite-difference check of every op")
    p = sub.add_parser("synth", help="generate labeled synthetic scenes")
    common(p)
    p.add_argument("--num-scenes", type=int, default=8)
    common(sub.add_parser("train", help="overfit training on synthetic scenes"))
    p = sub.add_parser("infer", help="run a checkpoint over .bin clouds")
    common(p, data=True)
    p.add_argument("--checkpoint", required=True)
    p = sub.add_parser("eval", help="AP(R40) of prediction CSVs against labels")
    common(p, out=False, data=True)
    p.add_argument("--pred-dir", required=True)
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.verb](args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
