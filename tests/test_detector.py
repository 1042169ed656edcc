import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepillars import model
from densepillars import tensor as T
from densepillars.bev import rotated_iou_bev
from densepillars.detector import (
    FPN,
    AnchorConfig,
    AnchorHead,
    NeckSpec,
    assign_targets,
    decode_boxes,
    detection_loss,
    encode_boxes,
    flatten_head_map,
    generate_anchors,
    postprocess,
    sigmoid_focal_loss,
    smooth_l1_sine_loss,
    softmax_cross_entropy,
)
from densepillars.encoder import GridSpec
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

GRID = GridSpec(
    x_range=(0.0, 12.8), y_range=(-6.4, 6.4), pillar_size=(0.4, 0.4)
)  # 32 x 32 pseudo-image, 16 x 16 anchor grid
CFG = AnchorConfig()


class TestNeckAndHead:
    def test_neck_fuses_to_stride2(self):
        neck = FPN(NeckSpec(), seed=0)
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

    def test_neck_rejects_wrong_tap_count(self):
        neck = FPN(NeckSpec(), seed=0)
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
        loss = smooth_l1_sine_loss(pred, target, np.ones(2), beta=beta)
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

        def to_map(flat, c):
            t = flat.reshape(h, w, a_cell, c).transpose(2, 3, 0, 1)
            return Tensor(t.reshape(1, a_cell * c, h, w))

        losses = detection_loss(
            to_map(cls, 3), to_map(box, 7), to_map(dr, 2), asn, anchor_cls, CFG
        )
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

        def to_map(flat, c):
            t = flat.reshape(h, w, a_cell, c).transpose(2, 3, 0, 1)
            return Tensor(t.reshape(1, a_cell * c, h, w))

        dets = postprocess(
            to_map(cls, 3), to_map(box, 7), to_map(dr, 2),
            anchors, anchor_cls, CFG, score_thr=0.5, nms_thr=0.01,
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

        def to_map(flat, c):
            t = flat.reshape(h, w, a_cell, c).transpose(2, 3, 0, 1)
            return Tensor(t.reshape(1, a_cell * c, h, w))

        dets = postprocess(
            to_map(cls, 3), to_map(box, 7), to_map(dr, 2),
            anchors, anchor_cls, CFG, score_thr=0.5, nms_thr=0.01,
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

        def to_map(flat, c):
            t = flat.reshape(h, w, a_cell, c).transpose(2, 3, 0, 1)
            return Tensor(t.reshape(1, a_cell * c, h, w).astype(np.float32))

        dets = postprocess(
            to_map(cls, 3), to_map(box, 7), to_map(dr, 2),
            anchors, anchor_cls, CFG, score_thr=0.5, nms_thr=0.01,
        )
        assert dets
        path = tmp_path / "frame.pred.csv"
        write_predictions(path, dets)
        back = read_predictions(path)
        assert [(d.label, d.score, d.box.as_array().tolist()) for d in back] == [
            (d.label, d.score, d.box.as_array().tolist()) for d in dets
        ]


class TestPredict:
    """`predict` runs the network under `no_grad` and handles empty frames."""

    def _pipeline_and_scene(self):
        pipeline = DetectionPipeline(GRID, backbone="dense", seed=0)
        scene = synth_scene(seed=4, n_boxes=2, x_range=GRID.x_range, y_range=GRID.y_range,
                            n_ground=400)
        return pipeline, scene

    def test_head_maps_match_graph_forward(self, monkeypatch):
        pipeline, scene = self._pipeline_and_scene()
        pipeline.set_mode("eval")
        seen = []
        monkeypatch.setattr(model, "postprocess", lambda *a, **k: seen.append(a[:3]) or [])
        assert pipeline.predict(scene.cloud) == []
        want = pipeline.forward(scene.cloud, cap=False)
        (got,) = seen
        for g, e in zip(got, want):
            assert g._parents == () and g._backward is None
            assert e._backward is not None
            np.testing.assert_allclose(g.data, e.data, rtol=1e-5, atol=1e-5 * np.abs(e.data).max())

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
