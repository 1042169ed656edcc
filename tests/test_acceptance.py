"""Acceptance gate: eight end-to-end checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. The overfit check (criterion 7) trains a small model from scratch
and takes a few minutes on a laptop CPU; everything else is fast.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from densepillars.backbones import (
    BaselineBackbone,
    BaselineBackboneSpec,
    DenseBackbone,
    DenseBackboneSpec,
    GrowthSchedule,
)
from densepillars.bev import ap_r40, nms_bev, rotated_iou_bev
from densepillars.cli import gradcheck_cases
from densepillars.config import parse_config
from densepillars.cost import (
    baseline_backbone_cost,
    comparison_report,
    dense_backbone_cost,
    pipeline_report,
)
from densepillars.detector import (
    FPN,
    AnchorConfig,
    AnchorHead,
    NeckSpec,
    assign_targets,
    generate_anchors,
)
from densepillars.encoder import GridSpec
from densepillars.pointcloud import CLASSES, Box3D, Detection
from densepillars.tensor import Tensor
from densepillars.train import RECALL_IOU, make_training_scenes, train, training_recall
from backbone_oracle import pillar_image
from cost_oracle import runtime_param_count
from iou_oracle import brute_nms, monte_carlo_iou, oracle_iou_bev

KITTI = GridSpec()  # 64-channel pseudo-image at 496 x 432
REPO = Path(__file__).resolve().parents[1]


def report(criterion, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion} ({name}): {status}  {detail}")
    assert passed, f"criterion {criterion} ({name}) failed: {detail}"


def test_criterion_1_component_cost_table():
    """Analyzer reproduces the published per-component params/MACs breakdown."""
    dense = pipeline_report(KITTI, DenseBackboneSpec())
    base = pipeline_report(KITTI, BaselineBackboneSpec())

    checks = [
        ("baseline backbone params", base.row("backbone").params / 1e6, 4.21, 0.03),
        ("baseline backbone MACs", base.row("backbone").macs / 1e9, 29.71, 0.05),
        ("neck params", dense.row("neck").params / 1e6, 0.6, 0.03),
        ("neck MACs", dense.row("neck").macs / 1e9, 3.13, 0.05),
        ("head MACs", dense.row("head").macs / 1e9, 1.49, 0.05),
        ("dense backbone params", dense.row("backbone").params / 1e6, 0.47, 0.03),
        ("dense backbone MACs", dense.row("backbone").macs / 1e9, 19.86, 0.05),
    ]
    details = []
    ok = True
    for name, got, want, tol in checks:
        rel = abs(got - want) / want
        ok &= rel <= tol
        details.append(f"{name} {got:.4g} vs {want} ({rel * 100:.1f}%)")
    # the table reports head params to two decimals (0.03 M); the exact
    # count with biases is 27,720, which rounds to the published figure
    head_p = dense.row("head").params
    ok &= head_p == 27_720 and round(head_p / 1e6, 2) == 0.03
    details.append(f"head params {head_p}")
    report(1, "component cost table", ok, "; ".join(details))


def test_criterion_2_backbone_ratios():
    _, _, ratios = comparison_report(KITTI, DenseBackboneSpec(), BaselineBackboneSpec())
    ok = 8.5 <= ratios["param_ratio"] <= 9.5 and 1.45 <= ratios["mac_ratio"] <= 1.6
    report(
        2, "backbone ratios", ok,
        f"params {ratios['param_ratio']:.2f}x, MACs {ratios['mac_ratio']:.2f}x",
    )


def test_criterion_3_plug_and_play():
    """Swapping the backbone changes nothing outside the backbone itself."""
    x = Tensor(np.random.default_rng(0).normal(0, 0.1, size=(1, 64, 496, 432)).astype(np.float32))
    neck = FPN(NeckSpec(), seed=1)
    head = AnchorHead(seed=2)
    for bn in neck.bn_list():
        bn.mode = "eval"

    shapes = {}
    for kind, bb in (
        ("dense", DenseBackbone(DenseBackboneSpec(), seed=0)),
        ("baseline", BaselineBackbone(BaselineBackboneSpec(), seed=0)),
    ):
        for bn in bb.bn_list():
            bn.mode = "eval"
        taps = bb.forward(*pillar_image(x))
        fused = neck.forward(taps)  # the very same neck/head instances
        outs = head.forward(fused)
        shapes[kind] = [t.shape for t in taps] + [fused.shape] + [o.shape for o in outs]

    ok = (
        shapes["dense"] == shapes["baseline"]
        and shapes["dense"][:3] == [(1, 64, 248, 216), (1, 128, 124, 108), (1, 256, 62, 54)]
        and shapes["dense"][3] == (1, 384, 248, 216)
        and shapes["dense"][4:] == [(1, 18, 248, 216), (1, 42, 248, 216), (1, 12, 248, 216)]
    )
    report(3, "plug-and-play backbones", ok, f"stage shapes {shapes['dense']}")


def test_criterion_4_analyzer_runtime_agreement():
    """Analytic parameter counts equal the allocations of live networks."""
    rng = np.random.default_rng(42)
    ok = True
    for i in range(20):
        if i % 2 == 0:
            n_blocks = int(rng.integers(2, 4))
            spec = DenseBackboneSpec(
                layers_per_block=tuple(int(rng.integers(1, 6)) for _ in range(n_blocks)),
                growth=GrowthSchedule(
                    ["fixed", "doubling", "table_matched"][int(rng.integers(0, 3))],
                    int(rng.integers(4, 49)),
                ),
                transition_out_channels=tuple(
                    int(rng.integers(16, 257)) for _ in range(n_blocks)
                ),
            )
            net = DenseBackbone(spec, seed=0)
            analytic = dense_backbone_cost(spec, 64, 64).params
        else:
            n_blocks = int(rng.integers(2, 4))
            spec = BaselineBackboneSpec(
                layers_per_block=tuple(int(rng.integers(1, 6)) for _ in range(n_blocks)),
                channels=tuple(int(rng.integers(16, 257)) for _ in range(n_blocks)),
            )
            net = BaselineBackbone(spec, seed=0)
            analytic = baseline_backbone_cost(spec, 64, 64).params
        ok &= runtime_param_count(net.named_params()) == analytic
    report(4, "analyzer/runtime parameter agreement", ok, "20 random specs")


def test_criterion_5_gradient_suite():
    """Finite differences on every op, loss and the composed detection loss,
    10 random points each, through the table `densepillars gradcheck` runs."""
    ok = True
    worst = {}
    for name, tol, run in gradcheck_cases(np.random.default_rng(0)):
        worst[name] = max(run() for _ in range(10))
        ok &= worst[name] <= tol
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(5, "gradient suite", ok, detail)


def _brute_assign(anchors, anchor_cls, gts, cfg):
    """Threshold matching + per-gt force matching, no distance prefilter."""
    a = anchors.shape[0]
    labels = np.zeros(a, dtype=np.int8)
    gt_index = np.full(a, -1, dtype=np.int64)
    anchor_boxes = [Box3D(*r) for r in anchors]
    for ci, cls in enumerate(CLASSES):
        idx = np.nonzero(anchor_cls == ci)[0]
        cls_gts = [(gi, b) for gi, (b, c) in enumerate(gts) if c == cls]
        if not cls_gts or idx.size == 0:
            continue
        iou = np.array(
            [[oracle_iou_bev(anchor_boxes[i], g) for _, g in cls_gts] for i in idx]
        )
        best_gt = iou.argmax(axis=1)
        best = iou[np.arange(idx.size), best_gt]
        pos = best >= cfg.match_thresholds[cls]
        ign = (best >= cfg.unmatch_thresholds[cls]) & ~pos
        labels[idx[pos]] = 1
        labels[idx[ign]] = -1
        gt_index[idx[pos]] = [cls_gts[g][0] for g in best_gt[pos]]
        for gj, (gi, _) in enumerate(cls_gts):
            top = int(iou[:, gj].argmax())
            if iou[top, gj] > 0.0:
                labels[idx[top]] = 1
                gt_index[idx[top]] = gi
    return labels, gt_index


def test_criterion_6_geometry_oracles():
    rng = np.random.default_rng(123)

    # rotated IoU vs 1e6-sample Monte Carlo on 100 random pairs
    mc_worst = 0.0
    for _ in range(100):
        a = Box3D(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0,
                  rng.uniform(0.6, 3), rng.uniform(0.6, 3), 1.0,
                  rng.uniform(-math.pi, math.pi))
        b = Box3D(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0,
                  rng.uniform(0.6, 3), rng.uniform(0.6, 3), 1.0,
                  rng.uniform(-math.pi, math.pi))
        mc_worst = max(
            mc_worst, abs(rotated_iou_bev(a, b) - monte_carlo_iou(a, b, 1_000_000, rng))
        )
    mc_ok = mc_worst <= 2e-3

    # analytic 45-degree square case
    sq = rotated_iou_bev(
        Box3D(0, 0, 0, 1, 1, 1, 0.0), Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)
    )
    sq_ok = abs(sq - 1.0 / math.sqrt(2.0)) <= 1e-9

    # NMS against a brute-force replay on 200 random instances
    nms_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        dets = [
            Detection(
                Box3D(rng.uniform(0, 8), rng.uniform(0, 8), -1.0,
                      rng.uniform(0.6, 2.5), rng.uniform(0.6, 4), 1.5,
                      rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0, 1)),
                CLASSES[int(rng.integers(0, 3))],
            )
            for _ in range(n)
        ]
        thr = float(rng.uniform(0.0, 0.5))
        got = nms_bev(dets, thr)
        want = [dets[i] for i in brute_nms(dets, thr)]
        nms_ok &= [(d.score, d.label) for d in got] == [(d.score, d.label) for d in want]

    # target assignment against a brute-force oracle on 200 random instances
    grid = GridSpec(x_range=(0.0, 6.4), y_range=(-3.2, 3.2), pillar_size=(0.4, 0.4))
    cfg = AnchorConfig()
    anchors, anchor_cls = generate_anchors(grid, cfg)
    asn_ok = True
    for _ in range(200):
        gts = []
        for _ in range(int(rng.integers(0, 3))):
            cls = CLASSES[int(rng.integers(0, 3))]
            from densepillars.pointcloud import CLASS_SIZES

            w, l, h = CLASS_SIZES[cls]
            gts.append(
                (
                    Box3D(rng.uniform(1, 5.4), rng.uniform(-2.2, 2.2),
                          -1.0, w, l, h, rng.uniform(-math.pi, math.pi)),
                    cls,
                )
            )
        got = assign_targets(anchors, anchor_cls, gts, cfg)
        labels, gt_index = _brute_assign(anchors, anchor_cls, gts, cfg)
        asn_ok &= np.array_equal(got.labels, labels)
        asn_ok &= np.array_equal(got.gt_index, gt_index)

    # AP(R40) canonical hand cases: 1.0, 0.0, 0.5
    gt_box = (Box3D(0, 0, -1.0, 1.6, 3.9, 1.56, 0.0), "Car")
    hit = Detection(Box3D(0, 0, -1.0, 1.6, 3.9, 1.56, 0.0), 0.9, "Car")
    ap_ok = (
        ap_r40([([hit], [gt_box])], "Car", 0.7) == pytest.approx(1.0)
        and ap_r40([([], [gt_box])], "Car", 0.7) == 0.0
        and ap_r40(
            [([hit], [gt_box, (Box3D(30, 0, -1.0, 1.6, 3.9, 1.56, 0.0), "Car")])],
            "Car", 0.7,
        ) == pytest.approx(0.5)
    )

    ok = mc_ok and sq_ok and nms_ok and asn_ok and ap_ok
    report(
        6, "geometry oracles", ok,
        f"MC worst {mc_worst:.2e}; 45-deg |err| {abs(sq - 1 / math.sqrt(2)):.1e}; "
        f"nms {nms_ok}; assign {asn_ok}; ap {ap_ok}",
    )


def test_criterion_7_overfit_smoke(tmp_path):
    """Train the desk config on its 8 synthetic scenes; loss < 10% of start,
    recall >= 0.8 per class, scored as `densepillars train` reports it."""
    cfg = parse_config(REPO / "configs" / "desk_overfit.cfg")
    assert (RECALL_IOU, cfg["eval.score_threshold"], cfg["eval.nms_iou"]) == (0.5, 0.1, 0.01)
    scenes = make_training_scenes(cfg)
    assert len(scenes) == 8
    pipeline, history = train(cfg, str(tmp_path), scenes=scenes, log=None)
    ratio = history[-1] / history[0]

    recalls = {c: f / t for c, (f, t) in training_recall(pipeline, scenes, cfg).items()}
    ok = ratio < 0.1 and all(r >= 0.8 for r in recalls.values())
    report(
        7, "overfit smoke test", ok,
        f"loss {history[0]:.3f} -> {history[-1]:.3f} (ratio {ratio:.4f}); "
        f"recall {recalls}",
    )


def test_criterion_8_growth_ordering():
    def params(growth):
        return dense_backbone_cost(DenseBackboneSpec(growth=growth), 496, 432).params

    f16 = params(GrowthSchedule("fixed", 16))
    f32 = params(GrowthSchedule("fixed", 32))
    f64 = params(GrowthSchedule("fixed", 64))
    table = params(GrowthSchedule("table_matched"))
    d32 = params(GrowthSchedule("doubling", 32))
    ok = f16 < f32 < f64 and table < d32
    report(
        8, "growth-schedule ordering", ok,
        f"fixed 16/32/64 = {f16}/{f32}/{f64}; table {table} < doubling(32) {d32}",
    )
