"""Command-line surface: analyze, gradcheck, synth, train, infer, eval."""

from __future__ import annotations

import argparse
import glob
import os
import sys

import numpy as np

from . import tensor as T
from .backbones import BaselineBackboneSpec, DenseBackboneSpec, GrowthSchedule
from .bev import evaluate_set
from .config import RunConfig, parse_config
from .cost import comparison_report, dense_backbone_cost
from .detector import (
    AnchorConfig,
    anchor_rows,
    assign_targets,
    detection_loss,
    generate_anchors,
    sigmoid_focal_loss,
    smooth_l1_sine_loss,
    softmax_cross_entropy,
)
from .encoder import PFN_CHANNELS, GridSpec
from .pointcloud import (
    Box3D,
    FormatError,
    read_kitti_bin,
    read_labels,
    read_predictions,
    write_kitti_bin,
    write_labels,
    write_predictions,
)
from .tensor import ConfigurationError, InvariantViolation, grad_check
from .train import RECALL_IOU, load_checkpoint, make_training_scenes, train, training_recall

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


# flag -> (the config key it overrides, or a function of its value giving the
# overrides, or None; its argparse keywords). Each verb takes --config and
# only the flags it reads.
FLAGS = {
    "seed": ("run.seed", dict(type=int)),
    "backbone": ("architecture.backbone", dict(choices=("dense", "baseline"))),
    "growth": (_parse_growth, dict(help="fixed:<k> | doubling:<k0> | table")),
    "num-scenes": ("train.num_scenes", dict(type=int, help="overrides train.num_scenes")),
    "out-dir": ("paths.out_dir", dict()),
    "data-dir": ("paths.data_dir", dict()),
    "checkpoint": (None, dict(required=True)),
    "pred-dir": (None, dict(required=True)),
}


def _load_config(args) -> RunConfig:
    overrides = {}
    for flag, (key, _) in FLAGS.items():
        value = getattr(args, flag.replace("-", "_"), None)
        if key is not None and value is not None:
            overrides.update(key(value) if callable(key) else {key: value})
    return parse_config(args.config, overrides)


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid_spec()
    dense, base, ratios = comparison_report(
        grid, DenseBackboneSpec(growth=cfg.growth_schedule()), BaselineBackboneSpec()
    )
    print(f"input pseudo-image: {PFN_CHANNELS}x{grid.height}x{grid.width}\n")
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

    print("\ngrowth schedule comparison (dense backbone only)")
    print(f"{'schedule':<20}{'params':>12}{'GMACs':>10}")
    for name, growth in (
        ("fixed k=16", GrowthSchedule("fixed", 16)),
        ("fixed k=32", GrowthSchedule("fixed", 32)),
        ("fixed k=64", GrowthSchedule("fixed", 64)),
        ("table-matched", GrowthSchedule("table_matched")),
        ("doubling k0=32", GrowthSchedule("doubling", 32)),
    ):
        c = dense_backbone_cost(DenseBackboneSpec(growth=growth), grid.height, grid.width)
        print(f"{name:<20}{c.params:>12,}{c.macs / 1e9:>10.2f}")
    return EXIT_OK


def gradcheck_cases(rng):
    """The finite-difference suite as (name, tolerance, run) triples.

    Each `run()` draws fresh inputs from `rng` and returns `grad_check`'s max
    relative error. `densepillars gradcheck` runs every case once and
    acceptance criterion 5 runs each on ten draws.
    """

    def case(name, tol, fn, shapes, draw=None):
        # `draw()`, if given, makes a non-differentiable last argument of `fn`
        def run():
            extra = () if draw is None else (draw(),)
            inputs = [rng.normal(0.3, 1.0, size=s) for s in shapes]
            return grad_check(lambda v: fn(*v, *extra), inputs)
        return name, tol, run

    def eval_stats():
        return rng.normal(size=3), rng.uniform(0.5, 2.0, 3)

    grid = GridSpec(x_range=(0.0, 6.4), y_range=(-3.2, 3.2), pillar_size=(0.4, 0.4))
    anchor_cfg = AnchorConfig()
    anchors, anchor_cls = generate_anchors(grid, anchor_cfg)
    gt = Box3D(3.2, 0.4, -1.78, 1.6, 3.9, 1.56, 0.2)
    asn = assign_targets(anchors, anchor_cls, [(gt, "Car")], anchor_cfg)
    # a scene with no positives on a 4 x 4 anchor grid: the box and direction
    # losses gather no row, so they are 0 and send the maps zero gradients
    small = GridSpec(x_range=(0.0, 3.2), y_range=(-1.6, 1.6), pillar_size=(0.4, 0.4))
    small_anchors, small_cls = generate_anchors(small, anchor_cfg)
    empty = assign_targets(small_anchors, small_cls, [], anchor_cfg)

    bn_shapes = [(2, 3, 4, 4), (3,), (3,)]
    # pillars on all four borders of a 5 x 6 grid, at odd and even coordinates
    pillars = T.PillarPlan([[0, 0], [0, 3], [0, 5], [1, 2], [2, 0], [2, 3], [3, 5], [4, 0],
                            [4, 1], [4, 5]], (5, 6))
    return [
        case("linear_map", 1e-7, T.linear_map, [(3, 4), (4, 2)]),
        case("conv2d", 1e-5, lambda x, w, b: T.conv2d(x, T.Conv2dParams(w, b, 1, 1)),
             [(1, 2, 5, 5), (3, 2, 3, 3), (3,)]),
        case("conv2d_stride2", 1e-5, lambda x, w: T.conv2d(x, T.Conv2dParams(w, None, 2, 1)),
             [(1, 2, 6, 6), (3, 2, 3, 3)]),
        case("conv2d_1x1_bias", 1e-5, lambda x, w, b: T.conv2d(x, T.Conv2dParams(w, b)),
             [(1, 3, 4, 4), (2, 3, 1, 1), (2,)]),
        # the head's training path: one conv, then a channel slice of it
        case("conv2d_1x1_slice", 1e-5,
             lambda x, w, b: T.channel_slice(T.conv2d(x, T.Conv2dParams(w, b)), 1, 3),
             [(1, 3, 4, 4), (4, 3, 1, 1), (4,)]),
        case("conv2d_batch2", 1e-5, lambda x, w: T.conv2d(x, T.Conv2dParams(w, None, 1, 1)),
             [(2, 2, 4, 4), (3, 2, 3, 3)]),
        case("conv_transpose2d", 1e-5, lambda x, w: T.conv_transpose2d(x, w, 2),
             [(1, 2, 4, 4), (2, 3, 2, 2)]),
        case("batch_norm", 1e-5, lambda x, g, b: T.batch_norm(x, _bn(g, b)), bn_shapes),
        case("batch_norm_eval", 1e-5, lambda x, g, b, s: T.batch_norm(x, _bn(g, b, s)),
             bn_shapes, eval_stats),
        case("batch_norm_relu", 1e-5,
             lambda x, g, b: T.batch_norm(x, _bn(g, b), relu=True), bn_shapes),
        case("batch_norm_relu_eval", 1e-5,
             lambda x, g, b, s: T.batch_norm(x, _bn(g, b, s), relu=True), bn_shapes, eval_stats),
        case("avg_pool2x2", 1e-6, T.avg_pool2x2, [(1, 2, 4, 4)]),
        # a dense transition's tail, replayed in backward
        case("recompute_bn_relu_pool", 1e-5,
             lambda x, g, b: T.recompute(
                 lambda m: T.avg_pool2x2(T.batch_norm(m, _bn(g, b), relu=True)), x),
             bn_shapes),
        # the PFN's tail: 5 point rows of 3 pillars among 3 x 4 slots
        case("segment_max_padded_bn", 1e-5,
             lambda x, g, b: T.segment_max(
                 T.batch_norm(x, _bn(g, b), relu=True, padded=(12, [0, 1, 4, 8, 9])), [0, 2, 3]),
             [(5, 3, 1, 1), (3,), (3,)]),
        case("conv_bn_relu", 1e-4,
             lambda x, w, g, b: T.batch_norm(
                 T.conv2d(x, T.Conv2dParams(w, None, 1, 1)), _bn(g, b), relu=True),
             [(1, 2, 4, 4), (3, 2, 3, 3), (3,), (3,)]),
        case("focal", 1e-5,
             lambda z, y: sigmoid_focal_loss(z, y, np.ones(4), normalizer=2.0),
             [(4, 3)], lambda: (rng.uniform(size=(4, 3)) < 0.3).astype(float)),
        case("smooth_l1_sine", 1e-5,
             lambda p, t: smooth_l1_sine_loss(p, t, np.ones(4), normalizer=2.0),
             [(4, 7)], lambda: rng.normal(0, 0.4, size=(4, 7))),
        case("softmax_ce", 1e-5,
             lambda z, lab: softmax_cross_entropy(z, lab, np.ones(4), normalizer=2.0),
             [(4, 2)], lambda: rng.integers(0, 2, size=4)),
        case("detection_loss", 1e-4,
             lambda c, b, d: detection_loss(c, b, d, asn, anchor_cls, anchor_cfg)["total"],
             [(1, 18, 8, 8), (1, 42, 8, 8), (1, 12, 8, 8)]),
        case("detection_loss_no_positives", 1e-4,
             lambda c, b, d: detection_loss(c, b, d, empty, small_cls, anchor_cfg)["total"],
             [(1, 18, 4, 4), (1, 42, 4, 4), (1, 12, 4, 4)]),
        # anchors 0 and 17 of a 3 x 4 grid, anchor 17 twice
        case("gather_anchor_rows", 1e-7, lambda m: anchor_rows(m, 7, 6, [17, 0, 17]),
             [(1, 42, 3, 4)]),
        case("sparse_conv2d", 1e-5,
             lambda f, w: T.sparse_conv2d(f, pillars, T.Conv2dParams(w, None, 1, 1)),
             [(10, 2), (3, 2, 3, 3)]),
        case("sparse_conv2d_stride2", 1e-5,
             lambda f, w: T.sparse_conv2d(f, pillars, T.Conv2dParams(w, None, 2, 1)),
             [(10, 2), (3, 2, 3, 3)]),
    ]


def _bn(gamma, beta, eval_stats=None):
    """Train-mode BN params, or eval mode with (running_mean, running_var)."""
    p = T.BatchNormParams.create(gamma.shape[0], dtype=gamma.dtype)
    p.gamma = gamma
    p.beta = beta
    if eval_stats is not None:
        p.running_mean, p.running_var = eval_stats
        p.mode = "eval"
    return p


def cmd_gradcheck(args) -> int:
    del args
    failed = False
    print(f"{'op':<22}{'max rel err':>14}{'tolerance':>12}  status")
    for name, tol, run in gradcheck_cases(np.random.default_rng(0)):
        err = run()
        ok = err <= tol
        failed |= not ok
        print(f"{name:<22}{err:>14.3e}{tol:>12.0e}  {'pass' if ok else 'FAIL'}")
    return EXIT_INVARIANT if failed else EXIT_OK


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out_dir = cfg["paths.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for i, scene in enumerate(make_training_scenes(cfg)):
        stem = os.path.join(out_dir, f"scene_{i:04d}")
        write_kitti_bin(stem + ".bin", scene.cloud)
        write_labels(stem + ".csv", scene.boxes)
        print(f"wrote {stem}.bin ({len(scene.cloud)} points, {len(scene.boxes)} boxes)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out_dir = cfg["paths.out_dir"]
    scenes = make_training_scenes(cfg)
    pipeline, history = train(cfg, out_dir, scenes=scenes)
    print(f"checkpoint and loss.csv written to {out_dir}")
    print(f"\nloss {history[0]:.3f} -> {history[-1]:.3f} "
          f"(ratio {history[-1] / history[0]:.4f})")
    print(f"recall on the training scenes at BEV IoU {RECALL_IOU}:")
    for cls, (found, total) in training_recall(pipeline, scenes, cfg).items():
        print(f"{cls:<12} recall {found}/{total} = {found / total:.2f}")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _load_config(args)
    pipeline, _ = load_checkpoint(args.checkpoint)
    pipeline.set_mode("eval")
    paths = sorted(glob.glob(os.path.join(cfg["paths.data_dir"], "*.bin")))
    if not paths:
        raise FileNotFoundError(f"no .bin clouds in {cfg['paths.data_dir']}")
    out_dir = cfg["paths.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for path in paths:
        cloud = read_kitti_bin(path)
        dets = pipeline.predict(
            cloud, score_thr=cfg["eval.score_threshold"], nms_thr=cfg["eval.nms_iou"]
        )
        stem = os.path.splitext(os.path.basename(path))[0]
        out = os.path.join(out_dir, stem + ".pred.csv")
        write_predictions(out, dets)
        print(f"{path}: {len(dets)} detections -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    if not os.path.isdir(args.pred_dir):
        raise NotADirectoryError(f"--pred-dir {args.pred_dir} is not a directory")
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
        dets = read_predictions(pp) if os.path.exists(pp) else []  # no file: no detections
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

    def verb(name, summary, *names):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None, help="key = value config file")
        for n in names:
            p.add_argument(f"--{n}", **FLAGS[n][1])

    verb("analyze", "parameter/MAC cost report", "growth", "out-dir")
    sub.add_parser("gradcheck", help="finite-difference check of every op")
    verb("synth", "write the scenes train trains on", "seed", "num-scenes", "out-dir")
    verb("train", "overfit on synthetic scenes, then report recall on them",
         "seed", "backbone", "growth", "out-dir")
    verb("infer", "run a checkpoint over .bin clouds", "data-dir", "checkpoint", "out-dir")
    verb("eval", "AP(R40) of prediction CSVs against labels", "data-dir", "pred-dir")
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
