import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepillars.bev import (
    EvalConfig,
    _intersection_area,
    ap_r40,
    box_rows,
    evaluate_set,
    iou_3d,
    iou_matrix,
    nms_bev,
    pair_iou,
    r40_from_scored,
    recall_at_iou,
    rotated_iou_bev,
)
from densepillars.pointcloud import Box3D, Detection

AREA_EPS = 1e-9


def bev_box(cx, cy, w, l, yaw=0.0, cz=0.0, h=1.0):
    return Box3D(cx, cy, cz, w, l, h, yaw)


# ---------------------------------------------------------------------------
# scalar oracle: one pair at a time, polygons as lists of tuples


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    x = np.array([p[0] for p in poly])
    y = np.array([p[1] for p in poly])
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clip_polygon(subject, clip) -> list:
    """Sutherland-Hodgman: clip a polygon by a convex CCW polygon."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        a = clip[i]
        b = clip[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]

        def inside(q):
            return ex * (q[1] - a[1]) - ey * (q[0] - a[0]) >= 0.0

        input_pts = output
        output = []
        for j, cur in enumerate(input_pts):
            prev = input_pts[j - 1]
            cur_in, prev_in = inside(cur), inside(prev)
            if cur_in != prev_in:
                dx, dy = cur[0] - prev[0], cur[1] - prev[1]
                denom = ex * dy - ey * dx
                if abs(denom) > 1e-15:
                    t = (ex * (a[1] - prev[1]) - ey * (a[0] - prev[0])) / denom
                    output.append((prev[0] + t * dx, prev[1] + t * dy))
            if cur_in:
                output.append(cur)
    return output


def _oracle_inter(a, b):
    return _polygon_area(
        _clip_polygon([tuple(p) for p in a.bev_corners()], [tuple(p) for p in b.bev_corners()])
    )


def oracle_iou_bev(a, b):
    area_a, area_b = a.w * a.l, b.w * b.l
    if area_a < AREA_EPS or area_b < AREA_EPS:
        return 0.0
    half_diags = (math.hypot(a.w, a.l) + math.hypot(b.w, b.l)) / 2.0
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > half_diags:
        return 0.0
    inter = _oracle_inter(a, b)
    union = area_a + area_b - inter
    if union < AREA_EPS:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def oracle_iou_3d(a, b):
    area_a, area_b = a.w * a.l, b.w * b.l
    if area_a < AREA_EPS or area_b < AREA_EPS:
        return 0.0
    z_lo = max(a.cz - a.h / 2, b.cz - b.h / 2)
    z_hi = min(a.cz + a.h / 2, b.cz + b.h / 2)
    dz = max(0.0, z_hi - z_lo)
    if dz == 0.0:
        return 0.0
    inter = _oracle_inter(a, b) * dz
    union = area_a * a.h + area_b * b.h - inter
    if union < AREA_EPS:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def oracle_r40(scored, n_gt):
    """The 40 x N interpolation loop over (score, is_tp) pairs."""
    scored = sorted(scored, key=lambda sc: -sc[0])
    tp = fp = 0
    precisions, recalls = [], []
    for _, is_tp in scored:
        if is_tp:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n_gt)
    total = 0.0
    for i in range(1, 41):
        r = i / 40.0
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best:
                best = p
        total += best
    return total / 40.0


_coord = st.floats(-3.0, 3.0, allow_nan=False)
_size = st.floats(0.05, 4.0, allow_nan=False)
_yaw = st.floats(-math.pi, math.pi, allow_nan=False)
_boxes = st.builds(
    Box3D, _coord, _coord, st.floats(-1.0, 1.0), _size, _size, _size, _yaw
)


def axis_aligned_iou(a, b):
    """Interval-overlap oracle for yaw-0 boxes."""
    ix = max(
        0.0,
        min(a.cx + a.l / 2, b.cx + b.l / 2) - max(a.cx - a.l / 2, b.cx - b.l / 2),
    )
    iy = max(
        0.0,
        min(a.cy + a.w / 2, b.cy + b.w / 2) - max(a.cy - a.w / 2, b.cy - b.w / 2),
    )
    inter = ix * iy
    return inter / (a.w * a.l + b.w * b.l - inter)


def monte_carlo_iou(a, b, n=2_000_000, seed=0):
    """Rejection-sampling IoU estimate over the joint bounding box."""

    def inside(px, py, box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx, dy = px - box.cx, py - box.cy
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        return (np.abs(lx) <= box.l / 2) & (np.abs(ly) <= box.w / 2)

    corners = np.concatenate([a.bev_corners(), b.bev_corners()])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    rng = np.random.default_rng(seed)
    px = rng.uniform(lo[0], hi[0], n)
    py = rng.uniform(lo[1], hi[1], n)
    in_a = inside(px, py, a)
    in_b = inside(px, py, b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


class TestRotatedIoU:
    def test_identical_boxes(self):
        a = bev_box(3.0, -2.0, 1.6, 3.9, 0.7)
        assert rotated_iou_bev(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxes(self):
        assert rotated_iou_bev(bev_box(0, 0, 1, 1), bev_box(10, 10, 1, 1)) == 0.0

    def test_touching_boxes(self):
        assert rotated_iou_bev(bev_box(0, 0, 1, 1), bev_box(1, 0, 1, 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_half_overlap_squares(self):
        # unit squares offset by half a side: inter 0.5, union 1.5
        v = rotated_iou_bev(bev_box(0, 0, 1, 1), bev_box(0.5, 0, 1, 1))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_coaxial_squares_rotated_45_degrees(self):
        v = rotated_iou_bev(bev_box(0, 0, 1, 1), bev_box(0, 0, 1, 1, math.pi / 4))
        assert v == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_contained_box(self):
        v = rotated_iou_bev(bev_box(0, 0, 2, 2), bev_box(0, 0, 1, 1, 0.3))
        assert v == pytest.approx(0.25, abs=1e-12)

    def test_yaw_90_equals_swapped_extents(self):
        a = bev_box(0, 0, 1.6, 3.9, math.pi / 2)
        b = bev_box(0, 0, 3.9, 1.6, 0.0)
        assert rotated_iou_bev(a, b) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_axis_aligned_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = bev_box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        b = bev_box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
        assert rotated_iou_bev(a, b) == pytest.approx(axis_aligned_iou(a, b), abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = bev_box(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2),
                    rng.uniform(0.5, 2), rng.uniform(-math.pi, math.pi))
        b = bev_box(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2),
                    rng.uniform(0.5, 2), rng.uniform(-math.pi, math.pi))
        assert rotated_iou_bev(a, b) == pytest.approx(rotated_iou_bev(b, a), abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = bev_box(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.8, 2.5),
                        rng.uniform(0.8, 2.5), rng.uniform(-math.pi, math.pi))
            b = bev_box(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.8, 2.5),
                        rng.uniform(0.8, 2.5), rng.uniform(-math.pi, math.pi))
            mc = monte_carlo_iou(a, b, n=400_000, seed=int(rng.integers(1 << 30)))
            assert rotated_iou_bev(a, b) == pytest.approx(mc, abs=5e-3)


class TestBatchedKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_boxes, _boxes), min_size=1, max_size=40))
    def test_matches_scalar_oracle(self, pairs):
        a = box_rows([p for p, _ in pairs])
        b = box_rows([q for _, q in pairs])
        bev = pair_iou(a, b)
        three_d = pair_iou(a, b, "3D")
        for k, (p, q) in enumerate(pairs):
            assert bev[k] == pytest.approx(oracle_iou_bev(p, q), abs=1e-9)
            assert three_d[k] == pytest.approx(oracle_iou_3d(p, q), abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_boxes, min_size=1, max_size=12), st.lists(_boxes, min_size=1, max_size=12))
    def test_matrix_matches_one_pair_calls(self, left, right):
        """Batching never changes a pair's value: equal to the one-pair call."""
        for mode, one in (("BEV", rotated_iou_bev), ("3D", iou_3d)):
            got = iou_matrix(box_rows(left), box_rows(right), mode)
            want = np.array([[one(p, q) for q in right] for p in left])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    CASES = {
        "identical": (bev_box(3.0, -2.0, 1.6, 3.9, 0.7), bev_box(3.0, -2.0, 1.6, 3.9, 0.7), 1.0),
        "shared_edge": (bev_box(0, 0, 1, 1), bev_box(1, 0, 1, 1), 0.0),
        "shared_edge_rotated": (
            bev_box(0, 0, 1.0, 1.6, math.pi / 6),
            bev_box(1.3 * math.cos(math.pi / 6) - 0.3 * math.sin(math.pi / 6),
                    1.3 * math.sin(math.pi / 6) + 0.3 * math.cos(math.pi / 6),
                    2.0, 1.0, math.pi / 6),
            0.0,
        ),
        "square_45_degrees": (
            bev_box(0, 0, 1, 1), bev_box(0, 0, 1, 1, math.pi / 4), 1.0 / math.sqrt(2.0)
        ),
        "contained": (bev_box(0, 0, 2, 2), bev_box(0, 0, 1, 1, 0.3), 0.25),
        "disjoint_in_reach": (bev_box(0, 0, 1, 1), bev_box(1.2, 0.2, 1, 1, 0.1), 0.0),
        "fails_reach_test": (bev_box(0, 0, 1, 1), bev_box(10, 10, 1, 1), 0.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_degenerate_cases(self, case):
        a, b, want = self.CASES[case]
        rows_a, rows_b = box_rows([a]), box_rows([b])
        for mode, oracle in (("BEV", oracle_iou_bev), ("3D", oracle_iou_3d)):
            got = pair_iou(rows_a, rows_b, mode)[0]
            assert got == pytest.approx(want, abs=1e-9)
            assert got == pytest.approx(oracle(a, b), abs=1e-9)
            assert iou_matrix(rows_a, rows_b, mode)[0, 0] == pytest.approx(want, abs=1e-9)

    def test_parallel_edge_crossing_is_dropped(self):
        """Rounding puts the ends of the shared edge on both sides of the clip
        line although the edge is parallel to it: the 1e-15 denominator guard
        drops that crossing instead of dividing by zero."""
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        a = np.array([[0.0, 0.0, 0.0, 1.0, 1.6, 1.0, math.pi / 6]])
        b = np.array([[1.3 * c - 0.3 * s, 1.3 * s + 0.3 * c, 0.0, 2.0, 1.0, 1.0, math.pi / 6]])
        assert _intersection_area(a, b)[0] == pytest.approx(0.0, abs=1e-12)

    def test_reach_test_skips_far_pairs(self):
        near, far = bev_box(0, 0, 1, 1), bev_box(10, 10, 1, 1)
        got = iou_matrix(box_rows([near, far]), box_rows([near]))
        np.testing.assert_array_equal(got, [[1.0], [0.0]])

    def test_empty_inputs(self):
        assert pair_iou(box_rows([]), box_rows([])).shape == (0,)
        assert iou_matrix(box_rows([]), box_rows([bev_box(0, 0, 1, 1)])).shape == (0, 1)
        assert iou_matrix(box_rows([bev_box(0, 0, 1, 1)]), box_rows([])).shape == (1, 0)


class TestIoU3D:
    def test_identical(self):
        a = Box3D(1, 2, -1, 1.6, 3.9, 1.56, 0.4)
        assert iou_3d(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_no_vertical_overlap(self):
        a = Box3D(0, 0, 0.0, 1, 1, 1, 0)
        b = Box3D(0, 0, 2.0, 1, 1, 1, 0)
        assert iou_3d(a, b) == 0.0

    def test_half_height_overlap(self):
        a = Box3D(0, 0, 0.0, 1, 1, 1, 0)
        b = Box3D(0, 0, 0.5, 1, 1, 1, 0)
        # inter = 1 * 0.5, union = 1 + 1 - 0.5
        assert iou_3d(a, b) == pytest.approx(0.5 / 1.5, abs=1e-12)

    def test_reduces_to_bev_for_full_height_overlap(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert iou_3d(a, b) == pytest.approx(rotated_iou_bev(a, b), abs=1e-12)


def det(cx, cy, score, label="Car", w=1.6, l=3.9, yaw=0.0):
    return Detection(Box3D(cx, cy, -1.0, w, l, 1.56, yaw), score, label)


def brute_force_nms(dets, thr):
    """Check every subset ordering-free: replay the greedy rule explicitly."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if dets[j].label == dets[i].label:
                if rotated_iou_bev(dets[i].box, dets[j].box) > thr:
                    ok = False
                    break
        if ok:
            kept.append(i)
    return [dets[i] for i in kept]


class TestNMS:
    def test_keeps_highest_score(self):
        dets = [det(0, 0, 0.4), det(0.1, 0, 0.9)]
        kept = nms_bev(dets, 0.01)
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_different_classes_never_suppress(self):
        dets = [det(0, 0, 0.9, "Car"), det(0, 0, 0.8, "Pedestrian", w=1.6, l=3.9)]
        assert len(nms_bev(dets, 0.01)) == 2

    def test_distant_boxes_all_kept(self):
        dets = [det(0, 0, 0.9), det(20, 0, 0.8), det(40, 0, 0.7)]
        assert len(nms_bev(dets, 0.01)) == 3

    def test_empty(self):
        assert nms_bev([], 0.5) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        dets = [
            det(
                rng.uniform(0, 10),
                rng.uniform(0, 10),
                float(rng.uniform(0, 1)),
                ["Car", "Pedestrian"][int(rng.integers(0, 2))],
                yaw=float(rng.uniform(-math.pi, math.pi)),
            )
            for _ in range(n)
        ]
        thr = float(rng.uniform(0.0, 0.5))
        got = nms_bev(dets, thr)
        want = brute_force_nms(dets, thr)
        assert [(d.score, d.label) for d in got] == [(d.score, d.label) for d in want]


class TestAPR40:
    def _gt(self, cx, cy, cls="Car"):
        return (Box3D(cx, cy, -1.0, 1.6, 3.9, 1.56, 0.0), cls)

    def test_perfect_detection(self):
        frames = [([det(0, 0, 0.9)], [self._gt(0, 0)])]
        assert ap_r40(frames, "Car", 0.7) == pytest.approx(1.0)

    def test_no_detections(self):
        frames = [([], [self._gt(0, 0)])]
        assert ap_r40(frames, "Car", 0.7) == 0.0

    def test_no_ground_truth_returns_none(self):
        frames = [([det(0, 0, 0.9)], [])]
        assert ap_r40(frames, "Car", 0.7) is None

    def test_half_recall(self):
        """One of two ground truths found: precision 1 up to recall 0.5."""
        frames = [([det(0, 0, 0.9)], [self._gt(0, 0), self._gt(30, 0)])]
        assert ap_r40(frames, "Car", 0.7) == pytest.approx(0.5)

    def test_false_positive_after_true_positive(self):
        """TP at score .9 then FP at score .8 with one gt: AP stays 1."""
        frames = [([det(0, 0, 0.9), det(30, 0, 0.8)], [self._gt(0, 0)])]
        assert ap_r40(frames, "Car", 0.7) == pytest.approx(1.0)

    def test_false_positive_before_true_positive(self):
        """FP outranks the TP: precision at full recall is 1/2."""
        frames = [([det(30, 0, 0.9), det(0, 0, 0.8)], [self._gt(0, 0)])]
        assert ap_r40(frames, "Car", 0.7) == pytest.approx(0.5)

    def test_each_gt_matched_once(self):
        """Two detections on one gt: second becomes a false positive."""
        frames = [([det(0, 0, 0.9), det(0.05, 0, 0.8)], [self._gt(0, 0)])]
        # TP then FP with 1 gt: envelope stays 1 at every achieved recall
        assert ap_r40(frames, "Car", 0.7) == pytest.approx(1.0)

    def test_iou_threshold_gates_match(self):
        frames = [([det(0, 0, 0.9, yaw=0.0)], [self._gt(2.0, 0)])]
        loose = ap_r40(frames, "Car", 0.1)
        strict = ap_r40(frames, "Car", 0.7)
        assert loose == pytest.approx(1.0)
        assert strict == 0.0

    def test_accumulates_across_frames(self):
        frames = [
            ([det(0, 0, 0.9)], [self._gt(0, 0)]),
            ([], [self._gt(5, 5)]),
        ]
        assert ap_r40(frames, "Car", 0.7) == pytest.approx(0.5)


class TestR40Interpolation:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([0.1, 0.25, 0.5, 0.5, 0.75, 0.9]), st.booleans()),
                 max_size=60),
        st.integers(0, 70),
    )
    def test_matches_loop_oracle(self, scored, missed):
        n_gt = max(1, sum(t for _, t in scored) + missed)
        got = r40_from_scored([s for s, _ in scored], [t for _, t in scored], n_gt)
        assert got == pytest.approx(oracle_r40(scored, n_gt), abs=1e-12)

    def test_tied_scores_keep_input_order(self):
        # FP then TP at one score: the stable order puts the FP first
        assert r40_from_scored([0.5, 0.5], [False, True], 1) == pytest.approx(0.5)
        assert r40_from_scored([0.5, 0.5], [True, False], 1) == pytest.approx(1.0)

    def test_no_detections(self):
        assert r40_from_scored([], [], 3) == 0.0


class TestRecallAtIoU:
    def _gt(self, cx, cy, cls="Car"):
        return (Box3D(cx, cy, -1.0, 1.6, 3.9, 1.56, 0.0), cls)

    def test_counts_each_gt_once_per_class(self):
        frames = [
            ([det(0, 0, 0.9), det(0.05, 0, 0.8), det(30, 0, 0.7, "Pedestrian")],
             [self._gt(0, 0), self._gt(20, 0), self._gt(30, 0, "Pedestrian")]),
            ([], [self._gt(5, 5)]),
        ]
        assert recall_at_iou(frames, 0.5) == {"Car": (1, 3), "Pedestrian": (1, 1)}

    def test_label_must_match(self):
        frames = [([det(0, 0, 0.9, "Cyclist")], [self._gt(0, 0)])]
        assert recall_at_iou(frames, 0.5) == {"Car": (0, 1)}

    def test_threshold_is_inclusive(self):
        # half-overlap unit squares: IoU exactly 1/3
        gt = (bev_box(0, 0, 1, 1), "Car")
        frames = [([Detection(bev_box(0.5, 0, 1, 1), 0.9, "Car")], [gt])]
        iou = rotated_iou_bev(gt[0], frames[0][0][0].box)
        assert recall_at_iou(frames, iou) == {"Car": (1, 1)}
        assert recall_at_iou(frames, iou + 1e-9) == {"Car": (0, 1)}

    def test_no_ground_truth(self):
        assert recall_at_iou([([det(0, 0, 0.9)], [])], 0.5) == {}


class TestEvaluateSet:
    def test_mean_over_present_classes(self):
        frames = [
            (
                [det(0, 0, 0.9, "Car"), det(5, 5, 0.8, "Pedestrian", w=0.6, l=0.8)],
                [
                    (Box3D(0, 0, -1.0, 1.6, 3.9, 1.56, 0.0), "Car"),
                    (Box3D(5, 5, -0.9, 0.6, 0.8, 1.73, 0.0), "Pedestrian"),
                ],
            )
        ]
        with pytest.warns(UserWarning, match="Cyclist"):
            result = evaluate_set(frames, EvalConfig())
        assert set(result.per_class_ap) == {"Car", "Pedestrian"}
        assert result.mean_ap == pytest.approx(1.0)

    def test_mode_3d_is_stricter(self):
        gt = (Box3D(0, 0, -1.0, 1.6, 3.9, 1.56, 0.0), "Car")
        shifted = Detection(Box3D(0, 0, 0.2, 1.6, 3.9, 1.56, 0.0), 0.9, "Car")
        frames = [([shifted], [gt])]
        bev = ap_r40(frames, "Car", 0.7, mode="BEV")
        three_d = ap_r40(frames, "Car", 0.7, mode="3D")
        assert bev == pytest.approx(1.0)
        assert three_d == 0.0
