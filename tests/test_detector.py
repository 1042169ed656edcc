import contextlib
import importlib
import importlib.util
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eval_oracle
from assign_oracle import dense_assign_targets, row_major_anchors
from backbone_oracle import predict_head_maps, three_conv_head_forward
from loss_oracle import dense_detection_loss
from postprocess_oracle import dense_candidates, dense_postprocess, loop_decode
from densepillars import bev, model
from densepillars import tensor as T
from densepillars.backbones import GrowthSchedule
from densepillars.bev import EvalConfig, box_rows, iou_bounds, pairs_in_reach, rotated_iou_bev
from densepillars.config import parse_config
from densepillars.detector import (
    FPN,
    AnchorConfig,
    AnchorHead,
    _sigmoid,
    anchor_rows,
    assign_targets,
    decode_boxes,
    decode_detections,
    detection_loss,
    encode_boxes,
    flatten_head_map,
    generate_anchors,
    head_candidates,
    postprocess,
    sigmoid_focal_loss,
    smooth_l1_sine_loss,
    softmax_cross_entropy,
)
from densepillars.encoder import GridSpec, pfn_forward
from densepillars.model import DetectionPipeline
from densepillars.pointcloud import (
    CLASS_SIZES,
    CLASSES,
    Box3D,
    PointCloud,
    read_predictions,
    synth_scene,
    write_predictions,
)
from densepillars.tensor import ConfigurationError, InvariantViolation, Tensor
from densepillars.train import make_training_scenes

REPO = Path(__file__).resolve().parents[1]
GRID = GridSpec(
    x_range=(0.0, 12.8), y_range=(-6.4, 6.4), pillar_size=(0.4, 0.4)
)  # 32 x 32 pseudo-image, 16 x 16 anchor grid
TALL = GridSpec(x_range=(0.0, 9.6), y_range=(-8.0, 8.0), pillar_size=(0.4, 0.4))  # 40 x 24
CFG = AnchorConfig()


def head_maps(cls, box, dr, dtype=None):
    """Per-anchor class, box and direction rows [h·w·a, c] on the 16 x 16
    anchor grid as the head's [1, a·c, h, w] maps."""

    def to_map(flat):
        h = w = 16
        a, c = CFG.anchors_per_cell, flat.shape[1]
        t = flat.reshape(h, w, a, c).transpose(2, 3, 0, 1)
        return Tensor(t.reshape(1, a * c, h, w).astype(dtype or flat.dtype))

    return to_map(cls), to_map(box), to_map(dr)


class TestNeckAndHead:
    def test_neck_fuses_to_stride2(self):
        neck = FPN(seed=0)
        for bn in neck.bn_list():
            bn.mode = "eval"
        rng = np.random.default_rng(0)
        taps = [
            Tensor(rng.normal(size=(1, 64, 16, 12)).astype(np.float32)),
            Tensor(rng.normal(size=(1, 128, 8, 6)).astype(np.float32)),
            Tensor(rng.normal(size=(1, 256, 4, 3)).astype(np.float32)),
        ]
        fused = neck.forward(taps)
        assert fused.shape == (1, 384, 16, 12)

    def test_neck_rows_are_rows_of_the_fused_map(self):
        """`forward(rows=)` builds only those rows, bit-equal to those of a
        one-tile call `rows=(0, H)`, which is close to the whole map that
        batch norm gives without `rows`; the rows must sit on every upsample
        stride, and every batch norm must fold (eval mode, no graph)."""
        neck = FPN(seed=0)
        rng = np.random.default_rng(1)
        for bn in neck.bn_list():
            bn.mode = "eval"
            bn.running_mean = rng.normal(0.0, 0.5, bn.running_mean.shape).astype(np.float32)
        taps = [Tensor(rng.normal(size=(1, c, 16 // s, 12 // s)).astype(np.float32))
                for c, s in ((64, 1), (128, 2), (256, 4))]
        with T.no_grad():
            whole = neck.forward(taps, rows=(0, 16)).data
            np.testing.assert_allclose(whole, neck.forward(taps).data, rtol=1e-5, atol=1e-5)
            for rows in ((0, 4), (4, 12), (12, 16)):
                part = neck.forward(taps, rows=rows).data
                np.testing.assert_array_equal(part, whole[:, :, rows[0] : rows[1]])
            with pytest.raises(ConfigurationError, match="upsample stride"):
                neck.forward(taps, rows=(2, 6))
        with pytest.raises(ConfigurationError, match="folds"):
            neck.forward(taps, rows=(0, 4))  # with a graph
        neck.bn_list()[1].mode = "train"
        with T.no_grad(), pytest.raises(ConfigurationError, match="folds"):
            neck.forward(taps, rows=(0, 4))

    def test_head_matches_the_three_conv_oracle_in_training(self):
        """With a graph in train mode on the desk grid, the stacked conv's
        maps and weight gradient are the three convs' bit for bit. Two sums
        run in another order: the fused map's gradient is one GEMM over all
        72 rows instead of three summed, and the bias gradient sums a
        contiguous gradient (the slices' zero-padded sum) where each conv
        summed a strided view. Measured: they differ by at most 1.3e-7 and
        6e-8 of their largest entry."""
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg")
        scene = make_training_scenes(cfg)[0]
        pipeline = model.DetectionPipeline(cfg.grid_spec(), seed=cfg["run.seed"])
        pipeline.set_mode("train")
        batch = pipeline.encode(scene.cloud)
        assignment = pipeline.targets_for(scene.boxes)
        taps = pipeline.backbone.forward(pfn_forward(batch, pipeline.pfn), batch.coords,
                                         (pipeline.grid.height, pipeline.grid.width))
        fused_map = pipeline.neck.forward(taps).data
        head = pipeline.head
        runs = []
        for forward in (head.forward, lambda f: three_conv_head_forward(head, f)):
            pipeline.zero_grad()
            fused = Tensor(fused_map, requires_grad=True)
            maps = forward(fused)
            detection_loss(*maps, assignment, pipeline.anchor_cls, CFG)["total"].backward()
            runs.append(([m.data for m in maps], fused.grad, head.conv.weight.grad,
                         head.conv.bias.grad))
        (maps, fused_grad, dw, db), (want_maps, want_fused_grad, want_dw, want_db) = runs
        for name, a, b in zip(("cls", "box", "dir"), maps, want_maps, strict=True):
            np.testing.assert_array_equal(a, b, err_msg=f"{name} map")
        np.testing.assert_array_equal(dw, want_dw)
        assert dw.any() and want_fused_grad.any()
        for got, want in ((fused_grad, want_fused_grad), (db, want_db)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())

    def test_neck_rejects_wrong_tap_count(self):
        neck = FPN(seed=0)
        with pytest.raises(ConfigurationError):
            neck.forward([Tensor(np.zeros((1, 64, 4, 4), np.float32))])

    def test_head_output_channels(self):
        head = AnchorHead(seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 384, 4, 4)).astype(np.float32))
        cls, box, dr = head.forward(x)
        assert cls.shape == (1, 18, 4, 4)
        assert box.shape == (1, 42, 4, 4)
        assert dr.shape == (1, 12, 4, 4)

    def test_head_class_prior_bias(self):
        """Fresh head scores every anchor near the 1% foreground prior."""
        head = AnchorHead(seed=0)
        x = Tensor(np.zeros((1, 384, 2, 2), np.float32))
        cls, _, _ = head.forward(x)
        p = 1.0 / (1.0 + np.exp(-cls.data))
        np.testing.assert_allclose(p, 0.01, rtol=1e-5)


class TestAnchors:
    def test_count_and_layout(self):
        boxes, cls_idx = generate_anchors(GRID, CFG)
        assert boxes.shape == (16 * 16 * 6, 7)
        assert cls_idx.shape == (16 * 16 * 6,)
        # first cell: Car x2, Pedestrian x2, Cyclist x2
        np.testing.assert_array_equal(cls_idx[:6], [0, 0, 1, 1, 2, 2])

    def test_first_cell_center(self):
        boxes, _ = generate_anchors(GRID, CFG)
        # stride-2 cells are 0.8 m; first center at range_min + 0.4
        assert boxes[0, 0] == pytest.approx(0.4)
        assert boxes[0, 1] == pytest.approx(-6.0)

    def test_sizes_and_rotations(self):
        boxes, cls_idx = generate_anchors(GRID, CFG)
        for a in range(6):
            cls = CLASSES[cls_idx[a]]
            w, l, h = CLASS_SIZES[cls]
            np.testing.assert_allclose(boxes[a, 3:6], [w, l, h])
            assert boxes[a, 6] == pytest.approx([0.0, math.pi / 2][a % 2])
            assert boxes[a, 2] == pytest.approx(CFG.z_centers[cls])

    def test_row_major_cell_order(self):
        boxes, _ = generate_anchors(GRID, CFG)
        # anchor 6 (second cell) moves one stride-2 cell along x
        assert boxes[6, 0] == pytest.approx(boxes[0, 0] + 0.8)
        assert boxes[6, 1] == pytest.approx(boxes[0, 1])
        # anchor 16*6 starts the second row
        assert boxes[16 * 6, 0] == pytest.approx(boxes[0, 0])
        assert boxes[16 * 6, 1] == pytest.approx(boxes[0, 1] + 0.8)

    @pytest.mark.parametrize("grid", [GRID, GridSpec()], ids=["desk", "kitti"])
    def test_column_major_table_equals_the_row_major_one(self, grid):
        """The table written column by column holds the row-major oracle's
        values in its order, each column contiguous."""
        boxes, cls_idx = generate_anchors(grid, CFG)
        want_boxes, want_cls = row_major_anchors(grid, CFG)
        assert boxes.dtype == np.float64 and cls_idx.dtype == np.int64
        np.testing.assert_array_equal(boxes, want_boxes)
        np.testing.assert_array_equal(cls_idx, want_cls)
        assert boxes.flags.f_contiguous and boxes[:, 1].flags.c_contiguous

    def test_pairs_in_reach_equal_for_a_row_major_copy(self, kitti_anchors):
        anchors, anchor_cls = kitti_anchors
        copy = np.ascontiguousarray(anchors)
        gts = kitti_frame(1)
        rows = box_rows([b for b, _ in gts])
        gt_cls = np.array([CLASSES.index(c) for _, c in gts])
        for keys in ((), (anchor_cls, gt_cls)):
            got, want = pairs_in_reach(anchors, rows, *keys), pairs_in_reach(copy, rows, *keys)
            assert got[0].size > 1000
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g, w)


class TestAnchorConfig:
    """The anchor constants keep the invariant `assign_targets` relies on:
    every class has an entry, and an unscored pair (IoU 0) leaves an anchor
    negative, so 0 < unmatch <= match <= 1."""

    TABLES = ["sizes", "z_centers", "match_thresholds", "unmatch_thresholds"]

    @pytest.mark.parametrize("name", TABLES)
    def test_every_class_has_an_entry(self, name):
        assert set(getattr(AnchorConfig, name)) == set(CLASSES)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_thresholds_in_order(self, cls):
        unmatch, match = AnchorConfig.unmatch_thresholds[cls], AnchorConfig.match_thresholds[cls]
        assert 0.0 < unmatch <= match <= 1.0

    @pytest.mark.parametrize("name", TABLES)
    def test_tables_are_read_only(self, name):
        table = getattr(CFG, name)
        with pytest.raises(TypeError):
            table["Car"] = table["Pedestrian"]
        with pytest.raises(TypeError):
            del table["Car"]
        assert set(table) == set(CLASSES)

    def test_anchors_per_cell(self):
        assert CFG.anchors_per_cell == AnchorConfig.anchors_per_cell == 6
        assert CFG.feature_stride == 2


class TestBoxCodec:
    def test_zero_residual_for_anchor_itself(self):
        an = np.array([[5.0, 1.0, -1.78, 1.6, 3.9, 1.56, 0.0]])
        np.testing.assert_allclose(encode_boxes(an, an), 0.0, atol=1e-12)

    def test_unit_x_offset_car(self):
        an = np.array([[5.0, 1.0, -1.78, 1.6, 3.9, 1.56, 0.0]])
        gt = an.copy()
        gt[0, 0] += 1.0
        enc = encode_boxes(gt, an)
        assert enc[0, 0] == pytest.approx(1.0 / math.sqrt(1.6**2 + 3.9**2))
        np.testing.assert_allclose(enc[0, 1:], 0.0, atol=1e-12)

    def test_log_size_ratio(self):
        an = np.array([[0.0, 0.0, 0.0, 2.0, 4.0, 1.5, 0.0]])
        gt = np.array([[0.0, 0.0, 0.0, 4.0, 4.0, 1.5, 0.0]])
        assert encode_boxes(gt, an)[0, 3] == pytest.approx(math.log(2.0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        an = np.array([[rng.uniform(0, 50), rng.uniform(-20, 20), -1.0,
                        1.6, 3.9, 1.56, rng.choice([0.0, math.pi / 2])]])
        gt = an + rng.normal(0, 0.5, size=(1, 7))
        gt[0, 3:6] = np.abs(gt[0, 3:6]) + 0.5
        np.testing.assert_allclose(decode_boxes(encode_boxes(gt, an), an), gt, atol=1e-9)


class TestAssignTargets:
    def _anchors(self):
        return generate_anchors(GRID, CFG)

    def test_perfect_overlap_is_positive(self):
        anchors, anchor_cls = self._anchors()
        # Car box sitting exactly on an anchor position with yaw 0
        gt = Box3D(6.0, 0.4, -1.78, 1.6, 3.9, 1.56, 0.0)
        asn = assign_targets(anchors, anchor_cls, [(gt, "Car")], CFG)
        assert asn.num_positives >= 1
        pos = np.nonzero(asn.labels == 1)[0]
        assert all(anchor_cls[i] == 0 for i in pos)
        np.testing.assert_allclose(asn.reg_targets[pos][:, 3:6], 0.0, atol=1e-9)
        assert set(asn.dir_targets[pos]) == {1}

    def test_matches_brute_force_thresholds(self):
        anchors, anchor_cls = self._anchors()
        rng = np.random.default_rng(4)
        gts = [
            (Box3D(4.0 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                   -1.78, 1.6, 3.9, 1.56, rng.uniform(-0.3, 0.3)), "Car"),
            (Box3D(9.0, 3.0, -0.6, 0.6, 0.8, 1.73, 0.5), "Pedestrian"),
        ]
        asn = assign_targets(anchors, anchor_cls, gts, CFG)

        box_cache = [Box3D(*r) for r in anchors]
        for i in range(anchors.shape[0]):
            cls = CLASSES[anchor_cls[i]]
            same = [g for g, c in gts if c == cls]
            if not same:
                assert asn.labels[i] == 0
                continue
            best = max(rotated_iou_bev(box_cache[i], g) for g in same)
            if best >= CFG.match_thresholds[cls]:
                assert asn.labels[i] == 1
            elif best < CFG.unmatch_thresholds[cls]:
                # may still be 1 via per-ground-truth force matching
                assert asn.labels[i] in (0, 1)
            else:
                assert asn.labels[i] in (-1, 1)

    def test_force_match_low_iou_gt(self):
        """A ground truth below every threshold still claims one anchor."""
        anchors, anchor_cls = self._anchors()
        # tiny pedestrian rotated 45 degrees between cell centers: low IoU everywhere
        gt = Box3D(6.2, 0.2, -0.6, 0.6, 0.8, 1.73, math.pi / 4)
        asn = assign_targets(anchors, anchor_cls, [(gt, "Pedestrian")], CFG)
        assert asn.num_positives >= 1
        assert set(asn.gt_index[asn.labels == 1]) == {0}

    def test_no_gts_all_negative(self):
        anchors, anchor_cls = self._anchors()
        asn = assign_targets(anchors, anchor_cls, [], CFG)
        assert asn.num_positives == 0
        assert (asn.labels == 0).all()

    def test_wrong_class_not_matched(self):
        anchors, anchor_cls = self._anchors()
        gt = Box3D(6.0, 0.4, -1.78, 1.6, 3.9, 1.56, 0.0)
        asn = assign_targets(anchors, anchor_cls, [(gt, "Car")], CFG)
        pos = np.nonzero(asn.labels == 1)[0]
        assert (anchor_cls[pos] == 0).all()


KITTI = GridSpec()  # the default 496 x 432 grid: 321,408 anchors


@pytest.fixture(scope="module")
def kitti_anchors():
    return generate_anchors(KITTI, CFG)


def kitti_frame(seed):
    """Four boxes of each class anywhere in the KITTI range, sizes within
    15% of the class size, any yaw; boxes may overlap one another."""
    rng = np.random.default_rng(seed)
    gts = []
    for cls in CLASSES:
        for _ in range(4):
            w, l, h = np.array(CLASS_SIZES[cls]) * rng.uniform(0.85, 1.15, 3)
            box = Box3D(rng.uniform(*KITTI.x_range), rng.uniform(*KITTI.y_range),
                        CFG.z_centers[cls], w, l, h, rng.uniform(-math.pi, math.pi))
            gts.append((box, cls))
    return gts


def assert_matches_dense_oracle(anchors, anchor_cls, gts):
    """The positive rows and the [A]-shaped views rebuilt from them equal
    the oracle's, which it took from its per-anchor tables."""
    got = assign_targets(anchors, anchor_cls, gts, CFG)
    want = dense_assign_targets(anchors, anchor_cls, gts, CFG)
    for name in ("labels", "pos_anchor", "pos_gt", "pos_reg", "pos_dir",
                 "gt_index", "reg_targets", "dir_targets"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.num_positives == np.count_nonzero(got.labels == 1)
    return got


class TestSparseAssignment:
    """The pair-list assignment equals the dense-matrix oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_kitti_frames_with_all_classes(self, kitti_anchors, seed):
        got = assert_matches_dense_oracle(*kitti_anchors, kitti_frame(seed))
        assert {CLASSES[c] for c in kitti_anchors[1][got.labels == 1]} == set(CLASSES)

    def test_ground_truth_on_the_range_border(self, kitti_anchors):
        (x0, x1), (y0, y1) = KITTI.x_range, KITTI.y_range
        w, l, h = CLASS_SIZES["Car"]
        gts = [(Box3D(x, y, -1.78, w, l, h, yaw), "Car")
               for x, y, yaw in [(x0, 0.0, 0.0), (x1, y1, 0.3), (20.0, y0, math.pi / 2),
                                 (x0, y0, -2.0), (x1 + 0.5, 5.0, 1.0)]]
        got = assert_matches_dense_oracle(*kitti_anchors, gts)
        assert set(got.gt_index[got.labels == 1]) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("yaw", [math.pi / 2, -math.pi / 2])
    def test_ground_truth_that_only_touches_anchors_gets_none(self, yaw):
        """A Car beyond the range border whose edge touches the outer edge of
        the first column's yaw-0 Car anchors shares no area with any anchor,
        so the force match gives it no positive anchor."""
        anchors, anchor_cls = generate_anchors(GRID, CFG)
        w, l, h = CLASS_SIZES["Car"]
        x_edge = anchors[anchor_cls == 0, 0].min() - l / 2
        for y in np.linspace(-5.9, 5.9, 12):
            gt = Box3D(x_edge - w / 2, float(y), -1.78, w, l, h, yaw)
            touched = pairs_in_reach(anchors[anchor_cls == 0], box_rows([gt]))[0]
            assert touched.size  # the pairs reach the kernel
            got = assert_matches_dense_oracle(anchors, anchor_cls, [(gt, "Car")])
            assert not (got.labels == 1).any(), f"y = {y}"
            assert (got.gt_index == -1).all()

    def test_two_ground_truths_compete_for_one_anchor(self):
        anchors, anchor_cls = generate_anchors(GRID, CFG)
        gt = Box3D(6.0, 0.4, -1.78, 1.6, 3.9, 1.56, 0.0)  # on one yaw-0 anchor
        got = assert_matches_dense_oracle(anchors, anchor_cls, [(gt, "Car"), (gt, "Car")])
        pos = np.flatnonzero(got.labels == 1)
        top = pos[np.argmax([rotated_iou_bev(Box3D(*anchors[i]), gt) for i in pos])]
        # the threshold pass gives ties to the first ground truth; the
        # second one claims the shared best anchor last and keeps it
        assert got.gt_index[top] == 1
        assert set(got.gt_index[pos[pos != top]]) <= {0}

    SMALL_CAR = Box3D(6.0, 0.4, -1.78, 0.8, 1.95, 1.56, 0.3)  # a quarter of a Car anchor

    def test_force_match_from_pairs_the_bound_skipped(self):
        """A Car a quarter of the anchors' footprint overlaps every anchor
        with IoU below 0.25: each pair's upper bound stays below the 0.45
        unmatch threshold, so its force-matched anchor comes from the pairs
        rescored after the first kernel call, which saw none of them."""
        anchors, anchor_cls = generate_anchors(GRID, CFG)
        rows = box_rows([self.SMALL_CAR])
        i, j = pairs_in_reach(anchors, rows, anchor_cls, np.zeros(1, np.int64))
        assert i.size and (iou_bounds(anchors[i], rows[j])[1] < CFG.unmatch_thresholds["Car"]).all()
        got = assert_matches_dense_oracle(anchors, anchor_cls, [(self.SMALL_CAR, "Car")])
        assert np.count_nonzero(got.labels == 1) == 1 and (got.labels >= 0).all()

    def test_two_skipped_ground_truths_tie_on_one_anchor(self):
        """Two copies of that Car tie on every anchor; the second claims the
        shared best anchor last and keeps it."""
        anchors, anchor_cls = generate_anchors(GRID, CFG)
        got = assert_matches_dense_oracle(anchors, anchor_cls,
                                          [(self.SMALL_CAR, "Car"), (self.SMALL_CAR, "Car")])
        np.testing.assert_array_equal(got.pos_gt, [1])

    def test_kernel_scores_a_fifth_of_the_pairs_in_reach(self, kitti_anchors, monkeypatch):
        """On a KITTI frame the bounds leave the kernel at most 20% of the
        pairs in reach (18.6% on this frame; 16% over the kitti-eval
        benchmark's variant-0 frames)."""
        anchors, anchor_cls = kitti_anchors
        gts = kitti_frame(0)
        gt_cls = np.array([CLASSES.index(c) for _, c in gts])
        in_reach = pairs_in_reach(anchors, box_rows([b for b, _ in gts]), anchor_cls, gt_cls)[0].size
        scored = []

        def spy(a, b, fn=bev._intersection_area):
            scored.append(a.shape[0])
            return fn(a, b)

        with monkeypatch.context() as m:
            m.setattr(bev, "_intersection_area", spy)
            assign_targets(anchors, anchor_cls, gts, CFG)
        assert 0 < sum(scored) <= 0.2 * in_reach, (scored, in_reach)

    def test_class_with_anchors_but_no_ground_truth(self, kitti_anchors):
        anchors, anchor_cls = kitti_anchors
        gts = [(b, c) for b, c in kitti_frame(7) if c == "Car"]
        got = assert_matches_dense_oracle(anchors, anchor_cls, gts)
        assert (got.labels[anchor_cls != 0] == 0).all()
        assert (got.gt_index[anchor_cls != 0] == -1).all()

    def test_no_ground_truths(self, kitti_anchors):
        got = assert_matches_dense_oracle(*kitti_anchors, [])
        assert (got.labels == 0).all() and (got.gt_index == -1).all()

    def test_peak_memory_on_the_kitti_grid(self, kitti_anchors):
        """One assignment over the 321,408 KITTI anchors keeps its positive
        rows, not per-anchor tables, and reads the column-major anchor table
        in place. Measured peak (tracemalloc, numpy 2.4.6) on this frame:
        2.35 MB, inside `pairs_in_reach`; 7.05 MB when it copied the
        anchors' y column and held one index array per class at once, and
        29.7 MB with the [A, 7] float64 residuals and the [A] int64
        ground-truth and direction tables."""
        gts = kitti_frame(0)
        tracemalloc.start()
        try:
            assign_targets(*kitti_anchors, gts, CFG)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 2.6, f"assign_targets peaked at {peak:.2f} MB"

    def test_desk_training_scenes(self):
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg")
        anchors, anchor_cls = generate_anchors(cfg.grid_spec(), CFG)
        for scene in make_training_scenes(cfg):
            assert_matches_dense_oracle(anchors, anchor_cls, scene.boxes)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(CLASSES),
            st.one_of(st.floats(-1.0, 13.8), st.integers(0, 15).map(lambda k: 0.4 + 0.8 * k)),
            st.one_of(st.floats(-7.4, 7.4), st.integers(0, 15).map(lambda k: -6.0 + 0.8 * k)),
            st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(-math.pi, math.pi)),
            st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
        ),
        max_size=6,
    ))
    def test_random_ground_truths_on_a_small_grid(self, drawn):
        """Boxes partly off the grid, or exactly on an anchor with the
        anchor's size and yaw, where IoU ties are likely."""
        anchors, anchor_cls = generate_anchors(GRID, CFG)
        gts = []
        for cls, x, y, yaw, scale in drawn:
            w, l, h = (v * scale for v in CLASS_SIZES[cls])
            gts.append((Box3D(x, y, CFG.z_centers[cls], w, l, h, yaw), cls))
        assert_matches_dense_oracle(anchors, anchor_cls, gts)


class TestLossOps:
    def test_focal_closed_form(self):
        """Single positive at p = 0.5: alpha * (1-p)^gamma * ln 2."""
        logits = Tensor(np.zeros((1, 1)))
        loss = sigmoid_focal_loss(logits, np.ones((1, 1)), np.ones(1))
        assert loss.data.item() == pytest.approx(0.25 * 0.25 * math.log(2.0), rel=1e-12)

    def test_focal_negative_closed_form(self):
        logits = Tensor(np.zeros((1, 1)))
        loss = sigmoid_focal_loss(logits, np.zeros((1, 1)), np.ones(1))
        assert loss.data.item() == pytest.approx(0.75 * 0.25 * math.log(2.0), rel=1e-12)

    def test_focal_normalizer_and_weight(self):
        logits = Tensor(np.zeros((2, 1)))
        loss = sigmoid_focal_loss(
            logits, np.ones((2, 1)), np.array([1.0, 0.0]), normalizer=4.0
        )
        assert loss.data.item() == pytest.approx(0.25 * 0.25 * math.log(2.0) / 4.0)

    def test_focal_gradcheck(self):
        rng = np.random.default_rng(0)
        z = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        y = (rng.uniform(size=(5, 3)) < 0.3).astype(float)
        w = rng.uniform(0.2, 1.0, size=5)
        err = T.grad_check(
            lambda ts: sigmoid_focal_loss(ts[0], y, w, normalizer=2.0), [z]
        )
        assert err <= 1e-5

    def test_smooth_l1_quadratic_and_linear(self):
        beta = 1.0 / 9.0
        pred = Tensor(np.zeros((2, 7)))
        target = np.zeros((2, 7))
        target[0, 0] = 0.05  # |r| < beta: quadratic
        target[1, 1] = 1.0  # |r| >= beta: linear
        loss = smooth_l1_sine_loss(pred, target, np.ones(2))
        expected = 0.5 * 0.05**2 / beta + (1.0 - 0.5 * beta)
        assert loss.data.item() == pytest.approx(expected, rel=1e-12)

    def test_angle_channel_uses_sine(self):
        """A full pi error in the angle channel costs nothing (sin pi = 0)."""
        pred = Tensor(np.zeros((1, 7)))
        target = np.zeros((1, 7))
        target[0, 6] = math.pi
        loss = smooth_l1_sine_loss(pred, target, np.ones(1))
        assert loss.data.item() == pytest.approx(0.0, abs=1e-12)

    def test_smooth_l1_gradcheck(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(0, 0.5, size=(6, 7)), requires_grad=True)
        t = rng.normal(0, 0.5, size=(6, 7))
        w = rng.uniform(0.2, 1.0, size=6)
        err = T.grad_check(
            lambda ts: smooth_l1_sine_loss(ts[0], t, w, normalizer=3.0), [p]
        )
        assert err <= 1e-5

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((1, 2)))
        loss = softmax_cross_entropy(logits, np.array([0]), np.ones(1))
        assert loss.data.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(2)
        z = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        lab = rng.integers(0, 2, size=5)
        w = rng.uniform(0.2, 1.0, size=5)
        err = T.grad_check(
            lambda ts: softmax_cross_entropy(ts[0], lab, w, normalizer=2.0), [z]
        )
        assert err <= 1e-5


class TestFlattenHeadMap:
    def test_ordering_matches_anchor_grid(self):
        h, w, a_cell, c = 3, 4, 6, 7
        m = np.zeros((1, a_cell * c, h, w), dtype=np.float64)
        r, col, a, k = 1, 2, 4, 3
        m[0, a * c + k, r, col] = 5.0
        flat = flatten_head_map(Tensor(m), c, a_cell).data
        row = (r * w + col) * a_cell + a
        assert flat[row, k] == 5.0
        assert np.count_nonzero(flat) == 1

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            flatten_head_map(Tensor(np.zeros((1, 17, 2, 2))), 7, 6)

    def test_gradient_roundtrip(self):
        m = Tensor(np.random.default_rng(0).normal(size=(1, 42, 2, 3)), requires_grad=True)
        flat = flatten_head_map(m, 7, 6)
        g = np.random.default_rng(1).normal(size=flat.shape)
        flat.backward(g)
        # flatten is a permutation, so the gradient is the inverse permutation
        flat2 = flatten_head_map(Tensor(m.grad), 7, 6).data
        np.testing.assert_allclose(flat2, g)


class TestAnchorRows:
    def test_rows_equal_the_flattened_map_rows(self):
        m = Tensor(np.random.default_rng(0).normal(size=(1, 42, 3, 4)))
        index = np.array([0, 5, 17, 71, 17])
        np.testing.assert_array_equal(anchor_rows(m, 7, 6, index).data,
                                      flatten_head_map(m, 7, 6).data[index])
        assert anchor_rows(m, 7, 6, np.zeros(0, np.int64)).shape == (0, 7)

    def test_backward_scatters_into_zeros_and_sums_repeats(self):
        m = Tensor(np.random.default_rng(0).normal(size=(1, 12, 2, 3)), requires_grad=True)
        rows = anchor_rows(m, 2, 6, [4, 9, 4])
        g = np.arange(6.0).reshape(3, 2) + 1.0
        rows.backward(g)
        want = np.zeros((36, 2))
        want[4] = g[0] + g[2]
        want[9] = g[1]
        np.testing.assert_array_equal(flatten_head_map(Tensor(m.grad), 2, 6).data, want)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            anchor_rows(Tensor(np.zeros((1, 17, 2, 2))), 7, 6, [0])


def assert_matches_dense_loss(maps, assignment, anchor_cls):
    """The loss terms and head-map gradients equal the dense-weight
    oracle's within float32 rounding: the box and direction sums run over
    the K positive rows instead of all A rows."""
    runs = []
    for loss in (detection_loss, dense_detection_loss):
        ts = [Tensor(m, requires_grad=True) for m in maps]
        terms = loss(*ts, assignment, anchor_cls, CFG)
        terms["total"].backward()
        runs.append(({k: float(v.data) for k, v in terms.items()}, [t.grad for t in ts]))
    (got, got_grads), (want, want_grads) = runs
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-6, abs=1e-12), k
    for name, g, w in zip(("cls", "box", "dir"), got_grads, want_grads, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-6 * np.abs(w).max(), err_msg=name)
    return got, got_grads


class TestPositiveOnlyLoss:
    """`detection_loss` against the dense-weight oracle in `loss_oracle`."""

    def test_desk_scenes(self):
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg")
        pipeline = DetectionPipeline(cfg.grid_spec(), seed=cfg["run.seed"])
        pipeline.set_mode("train")
        for scene in make_training_scenes(cfg):
            with T.no_grad():
                maps = [m.data for m in pipeline.forward(scene.cloud)]
            asn = pipeline.targets_for(scene.boxes)
            assert asn.num_positives > 0
            assert_matches_dense_loss(maps, asn, pipeline.anchor_cls)

    def test_kitti_frame(self, kitti_anchors):
        anchors, anchor_cls = kitti_anchors
        asn = assign_targets(anchors, anchor_cls, kitti_frame(0), CFG)
        rng = np.random.default_rng(0)
        h, w = KITTI.height // 2, KITTI.width // 2
        maps = [rng.normal(0.0, 0.5, size=(1, 6 * c, h, w)).astype(np.float32)
                for c in (len(CLASSES), 7, 2)]
        assert asn.num_positives > 0
        assert_matches_dense_loss(maps, asn, anchor_cls)

    def test_no_positives(self):
        """A scene without ground truths gathers no row: the box and
        direction losses are 0 and their maps get zero gradients."""
        anchors, anchor_cls = generate_anchors(GRID, CFG)
        asn = assign_targets(anchors, anchor_cls, [], CFG)
        assert asn.num_positives == 0 and asn.pos_reg.shape == (0, 7)
        rng = np.random.default_rng(1)
        maps = [rng.normal(size=(1, 6 * c, 16, 16)).astype(np.float32) for c in (3, 7, 2)]
        terms, grads = assert_matches_dense_loss(maps, asn, anchor_cls)
        assert terms["loc"] == 0.0 and terms["dir"] == 0.0 and terms["cls"] > 0.0
        assert not grads[1].any() and not grads[2].any() and grads[0].any()


class TestDetectionLossAndPostprocess:
    def _setup(self):
        anchors, anchor_cls = generate_anchors(GRID, CFG)
        gt = Box3D(6.0, 0.4, -1.78, 1.6, 3.9, 1.56, 0.0)
        asn = assign_targets(anchors, anchor_cls, [(gt, "Car")], CFG)
        return anchors, anchor_cls, gt, asn

    def test_loss_composition(self):
        anchors, anchor_cls, _, asn = self._setup()
        rng = np.random.default_rng(0)
        h, w = 16, 16
        cls_map = Tensor(rng.normal(0, 0.1, size=(1, 18, h, w)), requires_grad=True)
        box_map = Tensor(rng.normal(0, 0.1, size=(1, 42, h, w)), requires_grad=True)
        dir_map = Tensor(rng.normal(0, 0.1, size=(1, 12, h, w)), requires_grad=True)
        losses = detection_loss(cls_map, box_map, dir_map, asn, anchor_cls, CFG)
        expected = (
            losses["cls"].data + 2.0 * losses["loc"].data + 0.2 * losses["dir"].data
        )
        assert losses["total"].data.item() == pytest.approx(expected.item(), rel=1e-6)
        losses["total"].backward()
        for m in (cls_map, box_map, dir_map):
            assert np.abs(m.grad).max() > 0

    def test_perfect_logits_give_near_zero_loss(self):
        anchors, anchor_cls, gt, asn = self._setup()
        h, w = 16, 16
        a_cell = CFG.anchors_per_cell
        cls = np.full((h * w * a_cell, 3), -40.0)
        box = np.zeros((h * w * a_cell, 7))
        dr = np.zeros((h * w * a_cell, 2))
        pos = np.nonzero(asn.labels == 1)[0]
        cls[pos, anchor_cls[pos]] = 40.0
        box[pos] = asn.reg_targets[pos]
        dr[pos, asn.dir_targets[pos]] = 40.0

        losses = detection_loss(*head_maps(cls, box, dr), asn, anchor_cls, CFG)
        assert losses["total"].data.item() < 1e-6

    def test_postprocess_recovers_planted_box(self):
        anchors, anchor_cls, gt, asn = self._setup()
        h, w = 16, 16
        a_cell = CFG.anchors_per_cell
        cls = np.full((h * w * a_cell, 3), -40.0)
        box = np.zeros((h * w * a_cell, 7))
        dr = np.full((h * w * a_cell, 2), 0.0)
        pos = np.nonzero(asn.labels == 1)[0]
        cls[pos, anchor_cls[pos]] = 5.0
        box[pos] = asn.reg_targets[pos]
        dr[pos, asn.dir_targets[pos]] = 5.0

        dets = postprocess(
            *head_maps(cls, box, dr), anchors, anchor_cls, CFG, score_thr=0.5, nms_thr=0.01,
        )
        assert len(dets) == 1
        d = dets[0]
        assert d.label == "Car"
        assert rotated_iou_bev(d.box, gt) > 0.99
        assert d.box.yaw == pytest.approx(gt.yaw, abs=1e-6)

    def test_postprocess_direction_flip(self):
        """Direction bin 0 flips a decoded positive yaw by pi."""
        anchors, anchor_cls, gt, asn = self._setup()
        h, w = 16, 16
        a_cell = CFG.anchors_per_cell
        cls = np.full((h * w * a_cell, 3), -40.0)
        box = np.zeros((h * w * a_cell, 7))
        dr = np.zeros((h * w * a_cell, 2))
        pos = np.nonzero(asn.labels == 1)[0]
        cls[pos, anchor_cls[pos]] = 5.0
        box[pos] = asn.reg_targets[pos]
        dr[pos, 0] = 5.0  # vote for the "backwards" bin

        dets = postprocess(
            *head_maps(cls, box, dr), anchors, anchor_cls, CFG, score_thr=0.5, nms_thr=0.01,
        )
        assert len(dets) == 1
        assert dets[0].box.yaw == pytest.approx(math.pi - abs(gt.yaw), abs=1e-6) or \
            dets[0].box.yaw == pytest.approx(-math.pi, abs=1e-6) or \
            abs(abs(dets[0].box.yaw - gt.yaw) - math.pi) < 1e-6

    def test_postprocess_empty_below_threshold(self):
        anchors, anchor_cls, _, _ = self._setup()
        h, w = 16, 16
        a_cell = CFG.anchors_per_cell
        zeros = lambda c: Tensor(np.full((1, a_cell * c, h, w), -40.0))
        dets = postprocess(
            zeros(3), zeros(7), zeros(2), anchors, anchor_cls, CFG, score_thr=0.1
        )
        assert dets == []

    def test_postprocess_output_round_trips_through_csv(self, tmp_path):
        anchors, anchor_cls, gt, asn = self._setup()
        h, w = 16, 16
        a_cell = CFG.anchors_per_cell
        rng = np.random.default_rng(3)
        cls = rng.normal(-1.0, 2.0, size=(h * w * a_cell, 3))
        box = rng.normal(0.0, 0.3, size=(h * w * a_cell, 7))
        dr = rng.normal(0.0, 1.0, size=(h * w * a_cell, 2))

        dets = postprocess(
            *head_maps(cls, box, dr, np.float32),
            anchors, anchor_cls, CFG, score_thr=0.5, nms_thr=0.01,
        )
        assert dets
        path = tmp_path / "frame.pred.csv"
        write_predictions(path, dets)
        back = read_predictions(path)
        assert [(d.label, d.score, d.box.as_array().tolist()) for d in back] == [
            (d.label, d.score, d.box.as_array().tolist()) for d in dets
        ]


def detection_rows(dets):
    """Each detection's label, score and box, in order."""
    return [(d.label, d.score, d.box.as_array().tolist()) for d in dets]


def exact_rows(dets):
    """Each detection's label and the bits of its score and box, in order
    (so that -0.0 and 0.0 differ)."""
    return [(d.label, d.score.hex(), [v.hex() for v in d.box.as_array().tolist()])
            for d in dets]


class TestDecodeDetections:
    """`decode_detections` wraps and flips yaws on arrays as the
    per-candidate loop (`postprocess_oracle.loop_decode`) does with
    `pointcloud.wrap_angle`, bit for bit."""

    def test_yaws_at_the_wrap_points(self, tmp_path):
        """Decoded yaws at exactly -pi, 0 and pi and one ulp either side,
        and a few turns away, each with both direction bins, on yaw-0
        anchors 10 m apart that NMS all keeps."""
        marks = [-math.pi, 0.0, math.pi]
        yaws = [float(np.nextafter(m, d)) for m in marks for d in (-np.inf, np.inf)]
        yaws += marks + [-0.0, math.pi / 2, -math.pi / 2, 2 * math.pi, -3 * math.pi, 7.0]
        n = 2 * len(yaws)
        anchors = np.zeros((n, 7))
        anchors[:, 0] = 10.0 * np.arange(n)
        anchors[:, 3:6] = CLASS_SIZES["Car"]
        box = np.zeros((n, 7))
        box[:, 6] = np.repeat(yaws, 2)
        dir_bin = np.tile([0, 1], len(yaws))
        scores = np.linspace(0.9, 0.2, n).astype(np.float32)
        candidates = (np.arange(n), np.arange(n) % 3, scores, box, dir_bin)
        got = decode_detections(candidates, anchors, 0.01)
        assert len(got) == n
        assert exact_rows(got) == exact_rows(loop_decode(candidates, anchors))
        path = tmp_path / "frame.pred.csv"
        write_predictions(path, got)
        assert exact_rows(read_predictions(path)) == exact_rows(got)


def assert_candidates_equal(got, want):
    for g, e in zip(got, want, strict=True):
        assert g.dtype == e.dtype and g.shape == e.shape
        np.testing.assert_array_equal(g, e)


def traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCandidateScoring:
    """`head_candidates` against the whole-map oracle: the same anchors,
    classes, scores, box rows and direction bins, whatever the rows it
    reads and however close to the threshold the logits sit."""

    A_CELL = CFG.anchors_per_cell
    ANCHORS, ANCHOR_CLS = generate_anchors(GRID, CFG)

    @staticmethod
    def _maps(cls, dtype, seed=3):
        rng = np.random.default_rng(seed)
        n = cls.shape[0]
        return head_maps(cls, rng.normal(0.0, 0.3, (n, 7)), rng.normal(0.0, 1.0, (n, 2)), dtype)

    def _assert_matches_oracle(self, maps, score_thr, nms_thr=0.01):
        """`head_candidates` over the whole maps and over tiles of rows,
        and `postprocess`, equal the oracle's, with no warning."""
        data = [m.data for m in maps]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = dense_candidates(*maps, CFG, score_thr)
            assert_candidates_equal(head_candidates(*data, 0, self.A_CELL, score_thr), want)
            tiles = [head_candidates(*(m[:, :, r0:r0 + 5] for m in data), r0, self.A_CELL,
                                     score_thr) for r0 in range(0, 16, 5)]
            assert_candidates_equal([np.concatenate(c) for c in zip(*tiles)], want)
            got = postprocess(*maps, self.ANCHORS, self.ANCHOR_CLS, CFG, score_thr=score_thr,
                              nms_thr=nms_thr)
            assert detection_rows(got) == detection_rows(dense_postprocess(
                *maps, self.ANCHORS, self.ANCHOR_CLS, CFG, score_thr=score_thr, nms_thr=nms_thr))
        return want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("score_thr", [0.0, 1e-9, 2.0**-16, 0.05, 0.1, 0.5, 0.9,
                                           1 - 2.0**-16, 1 - 1e-9, 1.0])
    def test_random_logits(self, dtype, score_thr):
        """Logits spread wide enough that float32 and float64 sigmoids
        saturate at both ends."""
        cls = np.random.default_rng(5).normal(-2.0, 15.0, (16 * 16 * self.A_CELL, 3))
        self._assert_matches_oracle(self._maps(cls, dtype), score_thr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("score_thr", [2.0**-16, 1e-3, 0.1, 0.5, 0.73, 0.999, 1 - 2.0**-16])
    def test_logits_next_to_the_threshold_logit(self, dtype, score_thr):
        """Each anchor's best logit is logit(score_thr) rounded to `dtype`,
        one of its 40 neighbours on either side, or that logit moved by up
        to 2 either way (the prefilter's margin is 1); the other classes
        are far below it or, on every seventh anchor, tie with it."""
        n = 16 * 16 * self.A_CELL
        logit = dtype(math.log(score_thr / (1 - score_thr)))
        near = np.full(81, logit, dtype=dtype)
        for k in range(1, 41):
            near[40 + k:] = np.nextafter(near[40 + k:], dtype(np.inf))
            near[:40 - k + 1] = np.nextafter(near[:40 - k + 1], dtype(-np.inf))
        offsets = np.array([1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.99, 1.01, 2.0])
        values = np.concatenate([near, (logit + np.concatenate([offsets, -offsets])).astype(dtype)])
        assert len(np.unique(near)) == 81
        best = values[np.arange(n) % values.size]
        cls = np.full((n, 3), -40.0, dtype=dtype)
        cls[np.arange(n), np.arange(n) % 3] = best
        tie = np.arange(n) % 7 == 0
        cls[tie, (np.arange(n)[tie] + 1) % 3] = best[tie]
        keep = self._assert_matches_oracle(self._maps(cls, dtype), score_thr)[0]
        assert 0 < keep.size < n

    @pytest.mark.parametrize("dtype,logits", [
        (np.float32, [30.0, 40.0, -5.0]), (np.float32, [-5.0, 20.0, 18.0]),
        (np.float64, [40.0, 50.0, -5.0]), (np.float64, [-5.0, 45.0, 39.0])])
    @pytest.mark.parametrize("score_thr", [0.5, 1.0])
    def test_saturated_tie_keeps_the_first_class(self, dtype, logits, score_thr):
        """Two classes whose sigmoids both round to 1.0: the first of them
        wins, as in the oracle's argmax over sigmoid scores, not the one
        with the larger logit."""
        n = 16 * 16 * self.A_CELL
        cls = np.full((n, 3), -40.0)
        cls[100] = logits
        maps = self._maps(cls, dtype)
        assert np.all(_sigmoid(np.sort(np.array(logits, dtype=dtype))[1:]) == 1.0)
        index, best_cls, best_score, _, _ = self._assert_matches_oracle(maps, score_thr)
        first = int(np.argmax(np.array(logits) > 10))
        assert index.tolist() == [100] and best_cls.tolist() == [first]
        assert best_score.tolist() == [1.0]

    def test_rejects_maps_off_the_anchor_layout(self):
        m = np.zeros((1, 17, 2, 2))
        with pytest.raises(ConfigurationError, match="anchor layout"):
            head_candidates(m, np.zeros((1, 42, 2, 2)), np.zeros((1, 12, 2, 2)), 0, 6, 0.1)


def _perfbench(name, monkeypatch):
    """The perfbench module `name`, loaded from its file and listed in
    `sys.modules` (where dataclasses look up their module) for the test."""
    spec = importlib.util.spec_from_file_location(name, REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


class TestTracedNames:
    """perfbench times the program through the functions named in
    `spans.TARGETS`: a name that is gone, or a `predict` route that goes
    around one, reads as 0 ms in the benchmark while every output holds."""

    def test_every_target_resolves(self, monkeypatch):
        for module, path, span in _perfbench("spans", monkeypatch).TARGETS:
            obj = importlib.import_module(module)
            for part in path.split("."):
                assert hasattr(obj, part), f"{module}.{path} ({span})"
                obj = getattr(obj, part)
            assert callable(obj), f"{module}.{path} ({span})"

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_predict_fires_the_backbone_neck_and_head_spans(self, kind, monkeypatch):
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg")
        pipeline = DetectionPipeline(cfg.grid_spec(), backbone=kind, seed=cfg["run.seed"])
        pipeline.set_mode("eval")
        cloud = make_training_scenes(cfg)[0].cloud
        tracer = _perfbench("spans", monkeypatch).Tracer()
        tracer.install()
        try:
            pipeline.predict(cloud)
        finally:
            tracer.uninstall()
        fired = {tracer.names[i] for i in tracer.arrays()["name"]}
        assert {"model.predict", "backbones.forward", "detector.neck", "detector.head",
                "tensor.conv2d"} <= fired

    def test_nms_counters_see_the_candidates_and_the_kept_boxes(self, kitti_anchors,
                                                               monkeypatch):
        """`spans`' NMS hook counts `len(args[0])` as candidates and
        `len(out)` as kept boxes: a `postprocess` over a KITTI frame's
        planted detections, with the ignored anchors as duplicates, records
        one `bev.nms` call with both counts."""
        anchors, anchor_cls = kitti_anchors
        asn = assign_targets(anchors, anchor_cls, kitti_frame(0), CFG)
        a_cell = CFG.anchors_per_cell
        cls = np.full((anchors.shape[0], len(CLASSES)), -8.0)
        cls[asn.pos_anchor, anchor_cls[asn.pos_anchor]] = 3.0
        ignored = np.flatnonzero(asn.labels == -1)
        cls[ignored, anchor_cls[ignored]] = 0.0
        box = asn.reg_targets
        direction = np.zeros((anchors.shape[0], 2))
        direction[asn.pos_anchor, asn.pos_dir] = 1.0
        h, w = KITTI.height // CFG.feature_stride, KITTI.width // CFG.feature_stride
        maps = [Tensor(m.reshape(h, w, a_cell, -1).transpose(2, 3, 0, 1).reshape(1, -1, h, w))
                for m in (cls, box, direction)]
        candidates = head_candidates(*(m.data for m in maps), 0, a_cell, 0.1)[0].size
        tracer = _perfbench("spans", monkeypatch).Tracer()
        tracer.install()
        try:
            dets = postprocess(*maps, anchors, anchor_cls, CFG, score_thr=0.1, nms_thr=0.01)
        finally:
            tracer.uninstall()
        assert 0 < len(dets) < candidates
        assert tracer.counts[("bev.nms", "setup")] == {
            "calls": 1, "candidates": candidates, "kept": len(dets)}


class _Untimed:
    """The benchmark's measurement context, reduced to running each op."""

    @contextlib.contextmanager
    def item(self):
        yield

    def op(self, tag, label, fn):
        return fn()


@pytest.fixture(scope="module")
def kitti_eval_passes(tmp_path_factory):
    """One kitti-eval pass per benchmark variant at full size: per variant,
    the problems its check finds against `perfbench/reference.json` and the
    frames (detections, labels) that its pass handed to `evaluate_set`."""
    passes = {}
    with pytest.MonkeyPatch.context() as mp:
        workloads = _perfbench("workloads", mp)
        with open(REPO / "perfbench" / "reference.json", encoding="utf-8") as f:
            refs = json.load(f)["full"]["kitti-eval"]
        evaluated = []
        evaluate_set = bev.evaluate_set
        mp.setattr(bev, "evaluate_set",
                   lambda frames, cfg: evaluated.append(frames) or evaluate_set(frames, cfg))
        for variant in range(workloads.VARIANTS):
            wl = workloads.KittiEval(str(REPO), variant, workloads.FULL,
                                     str(tmp_path_factory.mktemp(f"kitti-eval-{variant}")))
            wl.setup()
            wl.run_pass(_Untimed())
            passes[variant] = (wl.check(refs[str(variant)]), evaluated[-1])
    return passes


def test_kitti_eval_matches_its_recorded_reference(kitti_eval_passes):
    """One kitti-eval pass per benchmark variant at full size gives the
    positives per frame, the detections NMS keeps and the AP recorded in
    `perfbench/reference.json`, which the benchmark checks every run
    against: a geometry change that moves them fails here first."""
    problems = {v: p for v, (p, _) in kitti_eval_passes.items()}
    assert not any(problems.values()), {v: p for v, p in problems.items() if p}


def test_kitti_eval_matching_equals_the_per_frame_oracle(kitti_eval_passes):
    """On the 4 frames of each kitti-eval variant, `evaluate_set` (BEV and
    3D, at the default thresholds), `ap_r40` at thresholds 0 and 1 and
    `recall_at_iou` equal the per-frame oracle exactly."""
    for variant, (_, frames) in kitti_eval_passes.items():
        assert len(frames) == 4
        for mode in ("BEV", "3D"):
            cfg = EvalConfig(mode=mode)
            assert bev.evaluate_set(frames, cfg) == eval_oracle.evaluate_set(frames, cfg), variant
        for thr in (0.0, 0.5, 1.0):
            assert bev.recall_at_iou(frames, thr) == eval_oracle.recall_at_iou(frames, thr)
        for thr in (0.0, 1.0):
            for cls in CLASSES:
                assert (bev.ap_r40(frames, cls, thr, "3D")
                        == eval_oracle.ap_r40(frames, cls, thr, "3D")), (variant, cls, thr)


class TestPredict:
    """`predict` runs the network under `no_grad` and handles empty frames."""

    def _pipeline_and_scene(self):
        pipeline = DetectionPipeline(GRID, backbone="dense", seed=0)
        scene = synth_scene(seed=4, n_boxes=2, x_range=GRID.x_range, y_range=GRID.y_range,
                            n_ground=400)
        return pipeline, scene

    @staticmethod
    def _eval_pipeline(kind, grid=GRID, dtype=np.float32, growth=None):
        """A pipeline in eval mode with random BN running statistics, γ and
        β, so that folding batch norm into the convs is far from the
        identity; its parameters and statistics are cast to `dtype`."""
        pipeline = DetectionPipeline(grid, backbone=kind, seed=0, growth=growth)
        r = np.random.default_rng(11)
        for v in pipeline.named_params().values():
            v.data = v.data.astype(dtype)
        for bn in pipeline.bn_list():
            c = bn.running_mean.shape
            bn.running_mean = r.normal(0.0, 0.5, c).astype(dtype)
            bn.running_var = r.uniform(0.25, 4.0, c).astype(dtype)
            bn.gamma.data = r.uniform(0.5, 2.0, c).astype(dtype)
            bn.beta.data = r.normal(0.0, 0.5, c).astype(dtype)
        pipeline.set_mode("eval")
        return pipeline

    @staticmethod
    def _scored_tiles(monkeypatch):
        """The rows of the class, box and direction maps that `predict`
        hands to `head_candidates`, (first row, maps), with what it
        returned for them, for every `predict` after this call."""
        tiles = []
        scored = model.head_candidates

        def spy(cls_map, box_map, dir_map, row0, *args):
            out = scored(cls_map, box_map, dir_map, row0, *args)
            tiles.append((row0, (cls_map, box_map, dir_map), out))
            return out

        monkeypatch.setattr(model, "head_candidates", spy)
        return tiles

    @classmethod
    def _assert_predict_matches_graph(cls, pipeline, cloud, monkeypatch, dtype):
        """The tiles of the head maps that `predict` scores (the fused path,
        under `no_grad`), reassembled, against `forward` with the graph on
        (batch norm, concat and the stacked head conv as in training)."""
        tiles = cls._scored_tiles(monkeypatch)
        pipeline.predict(cloud)
        want = pipeline.forward(cloud, cap=False)
        heights = [maps[0].shape[2] for _, maps, _ in tiles]
        assert [r0 for r0, _, _ in tiles] == np.cumsum([0] + heights[:-1]).tolist()
        got = [np.concatenate(m, axis=2) for m in zip(*(maps for _, maps, _ in tiles))]
        tol = 1e-5 if dtype == np.float32 else 1e-12  # of each map's largest value
        for g, e in zip(got, want, strict=True):
            assert e._backward is not None
            assert g.dtype == e.dtype == dtype and g.shape == e.shape
            np.testing.assert_allclose(g, e.data, rtol=0, atol=tol * np.abs(e.data).max())

    def test_head_maps_match_graph_forward(self, monkeypatch):
        _, scene = self._pipeline_and_scene()
        for kind in ("dense", "baseline"):
            for dtype in (np.float32, np.float64):
                pipeline = self._eval_pipeline(kind, dtype=dtype)
                self._assert_predict_matches_graph(pipeline, scene.cloud, monkeypatch, dtype)

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_float64_statistics_in_a_float32_pipeline(self, monkeypatch, kind):
        """A checkpoint may hold float64 running statistics; the fused path
        keeps the pipeline's float32, as `batch_norm` does."""
        _, scene = self._pipeline_and_scene()
        pipeline = self._eval_pipeline(kind)
        for bn in pipeline.bn_list():
            bn.running_mean = bn.running_mean.astype(np.float64)
            bn.running_var = bn.running_var.astype(np.float64)
        self._assert_predict_matches_graph(pipeline, scene.cloud, monkeypatch, np.float32)

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_head_maps_match_graph_forward_on_kitti_grid(self, monkeypatch, kind):
        grid = GridSpec()
        scene = synth_scene(seed=3000, n_boxes=4, x_range=grid.x_range, y_range=grid.y_range,
                            n_ground=4000)
        pipeline = self._eval_pipeline(kind, grid=grid)
        self._assert_predict_matches_graph(pipeline, scene.cloud, monkeypatch, np.float32)

    @pytest.mark.parametrize("kind,dtype,fixed_growth", [
        ("dense", np.float32, None), ("dense", np.float64, None), ("dense", np.float32, 16),
        ("dense", np.float64, 16), ("baseline", np.float32, None), ("baseline", np.float64, None)])
    @pytest.mark.parametrize("tile_bytes", [1, 60000])
    def test_bands_and_tiles_at_their_edges(self, monkeypatch, kind, dtype, fixed_growth,
                                            tile_bytes):
        """The dense blocks' bands, with their halo rows, and the neck and
        head tiles against the graph path: at `_TILE_BYTES` = 1 every band
        is 2 rows, shorter than the rows a block's layers run ahead of it,
        and every tile 4; at 60000 (scaled by the item size) block 1 and the
        neck each end in a short band or tile. A pillar sits on every row,
        so on the first and last row of every band, of every halo and of
        the grid: a pillar counted in two bands, or in none, fails. Every
        conv, sparse or not, computes each of its output rows exactly once
        per `predict`, with one folded weight per layer for all its bands."""
        monkeypatch.setattr(T, "_TILE_BYTES", tile_bytes * np.dtype(dtype).itemsize // 4)
        tiles = {2: [], 4: []}  # bands of the dense blocks, tiles of the neck
        row_tiles = T.row_tiles

        def spy(rows, row_bytes, multiple=1):
            out = row_tiles(rows, row_bytes, multiple)
            if multiple > 1:
                tiles[multiple].append(out)
            return out

        monkeypatch.setattr(T, "row_tiles", spy)
        scene = synth_scene(seed=4, n_boxes=2, x_range=TALL.x_range, y_range=TALL.y_range,
                            n_ground=300)
        ys = TALL.y_range[0] + (np.arange(TALL.height) + 0.5) * TALL.pillar_size[1]
        rows = [[x, y, -1.0, 0.5] for y in ys for x in (0.2, 4.6, TALL.x_range[1] - 0.2)]
        cloud = PointCloud(np.concatenate([scene.cloud.points, rows]))
        growth = GrowthSchedule("fixed", fixed_growth) if fixed_growth else None
        pipeline = self._eval_pipeline(kind, grid=TALL, dtype=dtype, growth=growth)
        self._assert_predict_matches_graph(pipeline, cloud, monkeypatch, dtype)

        assert set(pipeline.encode(cloud, cap=False).coords[:, 0]) == set(range(TALL.height))
        bands, (neck,) = tiles[2], tiles[4]
        if kind == "dense":  # blocks 1-3 each stream by bands over their whole height
            assert [b[-1][1] for b in bands] == [TALL.height // 2**i for i in range(3)]
        else:
            assert bands == []
        heights = [[b - a for a, b in tiling] for tiling in bands + [neck]]
        if tile_bytes == 1:
            assert all(h == [2] * len(h) for h in heights[:-1]) and set(heights[-1]) == {4}
        else:  # block 1's bands (dense) and the neck's tiles end short
            assert all(h[-1] < h[0] for h in heights[:1] + heights[-1:])

        out_rows = {}  # id(params) -> (params, output rows summed over the calls)
        for name, at in (("conv2d", 1), ("sparse_conv2d", 2)):  # the params' argument
            def counted(*args, op=getattr(T, name), at=at, **kwargs):
                out = op(*args, **kwargs)
                p = args[at]
                out_rows[id(p)] = (p, out_rows.get(id(p), (p, 0))[1] + out.shape[2])
                return out
            monkeypatch.setattr(T, name, counted)
        pipeline.predict(cloud)
        h = TALL.height
        if kind == "dense":  # per block, its layers and transition (block 1's in two parts)
            want = [h] * 5 + [h // 2] * 6 + [h // 4] * 6
        else:  # per block, its entry conv (block 1's sparse) and its other convs
            want = [h // 2] * 4 + [h // 4] * 6 + [h // 8] * 6
        assert sorted(r for _, r in out_rows.values()) == sorted(want + [h // 2])  # and the head

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_streamed_predict_matches_oracle(self, monkeypatch, kind, dtype):
        """`predict` scores each 4-row tile as the head writes it; its
        detections equal the whole-map oracle's over those tiles stacked
        (`predict_head_maps`) in boxes, scores, labels and order, and so do
        `postprocess`'s. At the median best score as the threshold, every
        tile has candidates on its first and last rows."""
        monkeypatch.setattr(T, "_TILE_BYTES", 1)
        scene = synth_scene(seed=4, n_boxes=2, x_range=TALL.x_range, y_range=TALL.y_range,
                            n_ground=300)
        pipeline = self._eval_pipeline(kind, grid=TALL, dtype=dtype)
        maps = predict_head_maps(pipeline, pipeline.encode(scene.cloud, cap=False))
        score_thr = float(np.median(dense_candidates(*maps, CFG, 0.0)[2]))
        args = (pipeline.anchors, pipeline.anchor_cls, CFG)
        want = detection_rows(dense_postprocess(*maps, *args, score_thr=score_thr))
        tiles = self._scored_tiles(monkeypatch)
        assert want and detection_rows(pipeline.predict(scene.cloud, score_thr=score_thr)) == want
        assert detection_rows(postprocess(*maps, *args, score_thr=score_thr)) == want
        assert len(tiles) == TALL.height // 2 // 4
        anchors_per_row = TALL.width // 2 * CFG.anchors_per_cell
        for r0, tile, (index, *_) in tiles:
            assert {r0, r0 + tile[0].shape[2] - 1} <= set((index // anchors_per_row).tolist())

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    @pytest.mark.parametrize("score_thr", [0.0, 1.0])
    def test_thresholds_at_the_ends_of_their_range(self, kind, score_thr):
        """`eval.score_threshold` may be 0 (every anchor is a candidate) or
        1 (only anchors whose sigmoid rounds to 1): `predict` gives the
        oracle's detections at both, without a warning. One anchor slot's
        Car logits are raised so that some saturate."""
        _, scene = self._pipeline_and_scene()
        pipeline = self._eval_pipeline(kind)
        pipeline.head.conv.bias.data[0] += 25.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = detection_rows(pipeline.predict(scene.cloud, score_thr=score_thr))
        maps = predict_head_maps(pipeline, pipeline.encode(scene.cloud, cap=False))
        assert got and got == detection_rows(dense_postprocess(
            *maps, pipeline.anchors, pipeline.anchor_cls, CFG, score_thr=score_thr))

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_predict_never_holds_the_stacked_head_map(self, kind):
        """On a 320 x 320 grid the stacked head map [1, 72, 160, 160]
        (7.0 MB) is large next to one tile of it. `predict`'s traced peak
        is below that of the same tiles written into whole maps
        (`predict_head_maps`) and the oracle `postprocess` by most of the
        map's bytes. Measured (tracemalloc, numpy 2.4): 23.5 against
        30.6 MB on either backbone."""
        grid = GridSpec(x_range=(0.0, 51.2), y_range=(-25.6, 25.6), pillar_size=(0.16, 0.16))
        scene = synth_scene(seed=3000, n_boxes=8, x_range=grid.x_range, y_range=grid.y_range,
                            n_ground=4000)
        pipeline = DetectionPipeline(grid, backbone=kind, seed=0)
        pipeline.set_mode("eval")

        def whole_map():
            maps = predict_head_maps(pipeline, pipeline.encode(scene.cloud, cap=False))
            return maps, dense_postprocess(*maps, pipeline.anchors, pipeline.anchor_cls, CFG)

        (maps, want), whole = traced_peak(whole_map)
        got, streamed = traced_peak(lambda: pipeline.predict(scene.cloud))
        assert detection_rows(got) == detection_rows(want)
        stacked = sum(m.data.nbytes for m in maps)
        assert stacked == 72 * 160 * 160 * 4
        assert streamed <= whole - 0.75 * stacked, f"{streamed / 2**20:.1f} MB"

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_predict_in_train_mode_raises_and_changes_no_state(self, kind):
        """A new pipeline starts in train mode, where batch norm would use
        the frame's statistics and update its running ones."""
        _, scene = self._pipeline_and_scene()
        pipeline = DetectionPipeline(GRID, backbone=kind, seed=0)
        before = {k: v.copy() for k, v in pipeline.state_arrays().items()}
        with pytest.raises(ConfigurationError, match="eval mode"):
            pipeline.predict(scene.cloud)
        pipeline.set_mode("eval")
        pipeline.backbone.bn_list()[-1].mode = "train"
        with pytest.raises(ConfigurationError, match="eval mode"):
            pipeline.predict(scene.cloud)
        for k, v in pipeline.state_arrays().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    @pytest.mark.parametrize("kind,bound_mb", [("dense", 40.0), ("baseline", 40.0)])
    def test_peak_memory_on_the_kitti_grid(self, kind, bound_mb):
        """One `predict` on the KITTI grid builds no full-resolution map it
        reads only once: the dense blocks stream by bands of rows, the neck
        and head run per tile of rows, and each head tile is scored as it
        is written. Measured peaks (tracemalloc, numpy 2.4): 37.4 MB dense
        and 35.9 MB baseline; with the stacked head map both took 53.0,
        with whole-height dense stage buffers dense took 107.4, and with
        whole maps 143.2 and 134.2."""
        grid = GridSpec()
        scene = synth_scene(seed=3000, n_boxes=20, x_range=grid.x_range, y_range=grid.y_range,
                            n_ground=14000)
        pipeline = DetectionPipeline(grid, backbone=kind, seed=0)
        pipeline.set_mode("eval")
        peak = traced_peak(lambda: pipeline.predict(scene.cloud))[1] / 2**20
        assert peak <= bound_mb, f"{kind} predict peaked at {peak:.1f} MB"

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_predict_changes_no_state(self, kind):
        _, scene = self._pipeline_and_scene()
        pipeline = self._eval_pipeline(kind)
        before = {k: v.copy() for k, v in pipeline.state_arrays().items()}
        pipeline.predict(scene.cloud)
        after = pipeline.state_arrays()
        assert before.keys() == after.keys()
        for k in before:
            np.testing.assert_array_equal(after[k], before[k], err_msg=k)
        assert {bn.mode for bn in pipeline.bn_list()} == {"eval"}

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_batch_norm_is_folded_only_in_eval_mode_without_a_graph(self, monkeypatch, kind):
        _, scene = self._pipeline_and_scene()
        pipeline = self._eval_pipeline(kind)
        calls = []
        batch_norm = T.batch_norm
        monkeypatch.setattr(T, "batch_norm", lambda x, p, *a, **k: calls.append(p) or
                            batch_norm(x, p, *a, **k))
        every = [id(bn) for bn in pipeline.bn_list()]
        pipeline.predict(scene.cloud)
        assert [id(p) for p in calls] == [id(pipeline.pfn.bn)]  # the PFN's is not folded
        calls.clear()
        pipeline.forward(scene.cloud, cap=False)
        assert sorted(id(p) for p in calls) == sorted(every)
        calls.clear()
        pipeline.set_mode("train")
        with T.no_grad():
            pipeline.forward(scene.cloud, cap=False)
        assert sorted(id(p) for p in calls) == sorted(every)

    def test_backward_after_predict_unchanged(self):
        pipeline, scene = self._pipeline_and_scene()
        batch = pipeline.encode(scene.cloud, cap=True)
        asn = pipeline.targets_for(scene.boxes)

        def grads():
            pipeline.set_mode("train")
            pipeline.zero_grad()
            pipeline.loss_encoded(batch, asn)["total"].backward()
            return {k: v.grad.copy() for k, v in pipeline.named_params().items()}

        before = grads()
        pipeline.set_mode("eval")
        pipeline.predict(scene.cloud)
        after = grads()
        assert before.keys() == after.keys()
        for k in before:
            np.testing.assert_array_equal(after[k], before[k], err_msg=k)

    def test_frame_without_points_in_range_has_no_detections(self):
        pipeline, scene = self._pipeline_and_scene()
        pipeline.set_mode("eval")
        pts = scene.cloud.points.copy()
        pts[:, 0] -= GRID.x_range[1] + 1.0
        cloud = PointCloud(pts)
        assert pipeline.predict(cloud) == []
        assert pipeline.predict(PointCloud(np.zeros((0, 4)))) == []
        with pytest.raises(InvariantViolation):
            pipeline.forward(cloud)
