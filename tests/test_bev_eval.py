import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepillars import bev
from densepillars.bev import (
    EvalConfig,
    _apart_along_own_axes,
    _intersection_area,
    ap_r40,
    box_rows,
    evaluate_set,
    iou_3d,
    iou_bounds,
    iou_matrix,
    nms_bev,
    pair_iou,
    pairs_in_reach,
    r40_from_scored,
    recall_at_iou,
    rotated_iou_bev,
)
from densepillars.pointcloud import CLASSES, Box3D, Detection
import eval_oracle
from iou_oracle import bev_corners, brute_nms, monte_carlo_iou, oracle_iou_3d, oracle_iou_bev
from postprocess_oracle import nms_detections


def bev_box(cx, cy, w, l, yaw=0.0, cz=0.0, h=1.0):
    return Box3D(cx, cy, cz, w, l, h, yaw)


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


@st.composite
def _touching_pairs(draw):
    """Two boxes whose axis-aligned bounding boxes meet along x or y, or miss
    each other or overlap by a gap from 1e-15 to 1e-6."""
    p, q = draw(_boxes), draw(_boxes)
    axis = draw(st.sampled_from([0, 1]))
    gap = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 3e-9, 1e-6]))
    p_lo, p_hi = bev_corners(p).min(axis=0), bev_corners(p).max(axis=0)
    q_lo, q_hi = bev_corners(q).min(axis=0), bev_corners(q).max(axis=0)
    if draw(st.booleans()):
        shift = p_hi[axis] + gap - q_lo[axis]
    else:
        shift = p_lo[axis] - gap - q_hi[axis]
    moved = {"cx": q.cx + shift} if axis == 0 else {"cy": q.cy + shift}
    return p, dataclasses.replace(q, **moved)


@st.composite
def _apart_along_an_edge(draw):
    """Two boxes whose projections on an edge direction of either meet,
    miss each other or overlap by a gap from 1e-15 to 1e-6; their
    axis-aligned bounding boxes often still overlap."""
    p, q = draw(_boxes), draw(_boxes)
    yaw = draw(st.sampled_from([p.yaw, q.yaw])) + draw(st.sampled_from([0.0, math.pi / 2]))
    u = np.array([math.cos(yaw), math.sin(yaw)])
    gap = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 3e-9, 1e-6]))
    p_proj, q_proj = bev_corners(p) @ u, bev_corners(q) @ u
    if draw(st.booleans()):
        shift = p_proj.max() + gap - q_proj.min()
    else:
        shift = p_proj.min() - gap - q_proj.max()
    return p, dataclasses.replace(q, cx=q.cx + shift * u[0], cy=q.cy + shift * u[1])


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
            mc = monte_carlo_iou(a, b, 400_000,
                                 np.random.default_rng(int(rng.integers(1 << 30))))
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
        "touching_corner": (bev_box(0, 0, 1, 1), bev_box(1, 1, 1, 1), 0.0),
        "touching_vertex_rotated": (
            bev_box(0, 0, 1, 1), bev_box(0.5 + math.sqrt(0.5), 0, 1, 1, math.pi / 4), 0.0
        ),
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

    TOUCHING = ("shared_edge", "shared_edge_rotated", "touching_corner", "touching_vertex_rotated")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pair_finder_keeps_overlapping_and_touching_pairs(self, case):
        a, b, _ = self.CASES[case]
        rows_a, rows_b = box_rows([a]), box_rows([b])
        kept = pairs_in_reach(rows_a, rows_b)[0].size == 1
        if case in self.TOUCHING or _intersection_area(rows_a, rows_b)[0] > 0.0:
            assert kept
        if case in ("disjoint_in_reach", "fails_reach_test"):  # bounding boxes apart
            assert not kept

    @pytest.mark.parametrize("gap", [0.0, 1e-15])
    @pytest.mark.parametrize("axis", ["length", "width"])
    def test_edge_touching_pairs_score_exactly_zero(self, axis, gap):
        """Boxes that share an edge (or miss by 1e-15) at any yaw score 0 in
        BEV and 3D, not the kernel's rounding dust: target assignment
        force-matches on any IoU above 0."""
        yaws = np.linspace(-math.pi, math.pi, 97)
        a = np.zeros((yaws.size, 7))
        a[:, 3:] = 1.6, 3.9, 1.5, 0.0
        a[:, 6] = yaws
        b = a.copy()
        b[:, 3:5] = 0.6, 1.76
        c, s = np.cos(yaws), np.sin(yaws)
        if axis == "length":
            d = (3.9 + 1.76) / 2 + gap
            b[:, 0], b[:, 1] = d * c, d * s
        else:
            d = (1.6 + 0.6) / 2 + gap
            b[:, 0], b[:, 1] = -d * s, d * c
        i, j = pairs_in_reach(a, b)
        assert set(zip(i[i == j], j[i == j])) == {(k, k) for k in range(yaws.size)}
        for mode in ("BEV", "3D"):
            np.testing.assert_array_equal(pair_iou(a, b, mode), 0.0)
            np.testing.assert_array_equal(pair_iou(b, a, mode), 0.0)

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


def _pair_list(i, j):
    return sorted(zip(i.tolist(), j.tolist()))


class TestPairFinder:
    """`pairs_in_reach`: exact, independent of the input order, keyed like a
    filter applied afterwards, and ordered by the second index."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_boxes, max_size=10), st.lists(_boxes, max_size=10),
           st.lists(_touching_pairs(), max_size=6))
    def test_dropped_pairs_have_no_intersection(self, left, right, touching):
        a = box_rows(left + [p for p, _ in touching])
        b = box_rows(right + [q for _, q in touching])
        i, j = pairs_in_reach(a, b)
        assert (np.diff(j) >= 0).all()
        dropped = np.ones((len(a), len(b)), dtype=bool)
        dropped[i, j] = False
        di, dj = np.nonzero(dropped)
        assert (_intersection_area(a[di], b[dj]) == 0.0).all()

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_boxes, max_size=10), st.lists(_apart_along_an_edge(), max_size=6))
    def test_pairs_apart_along_an_edge_have_no_intersection(self, left, apart):
        """Boxes whose bounding boxes meet but whose footprints are parted
        along an edge direction of one of them: the separating-axis test
        drops them, and a dropped pair has zero intersection."""
        a = box_rows(left + [p for p, _ in apart])
        b = box_rows(left + [q for _, q in apart])
        i, j = np.nonzero(np.ones((len(a), len(b)), dtype=bool))
        dropped = _apart_along_own_axes(a[i], b[j])
        assert (_intersection_area(a[i[dropped]], b[j[dropped]]) == 0.0).all()
        kept = set(zip(*(k.tolist() for k in pairs_in_reach(a, b))))
        assert not kept & set(zip(i[dropped].tolist(), j[dropped].tolist()))

    def test_separating_axis_drops_pairs_the_bounding_boxes_keep(self):
        """Two thin boxes at 45 degrees side by side: their bounding boxes
        overlap, their footprints do not."""
        a = box_rows([bev_box(0.0, 0.0, 0.2, 4.0, math.pi / 4)])
        b = box_rows([bev_box(0.5, -0.5, 0.2, 4.0, math.pi / 4)])
        assert _intersection_area(a, b)[0] == 0.0
        assert _apart_along_own_axes(a, b).all()
        assert pairs_in_reach(a, b)[0].size == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_boxes, min_size=1, max_size=16), st.lists(_boxes, min_size=1, max_size=8))
    def test_rows_sorted_by_y_give_the_pairs_of_any_order(self, left, right):
        a, b = box_rows(left), box_rows(right)
        by_y = np.argsort(a[:, 1], kind="stable")
        sorted_i, sorted_j = pairs_in_reach(a[by_y], b)  # no argsort
        for order in (by_y[::-1], np.arange(len(a))):
            i, j = pairs_in_reach(a[order], b)
            assert (np.diff(j) >= 0).all()
            assert _pair_list(order[i], j) == _pair_list(by_y[sorted_i], sorted_j)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_boxes, st.integers(0, 2)), max_size=16),
           st.lists(st.tuples(_boxes, st.integers(0, 2)), max_size=8))
    def test_key_filter_equals_filtering_afterwards(self, left, right):
        a, b = box_rows([p for p, _ in left]), box_rows([q for q, _ in right])
        key_a = np.array([k for _, k in left], dtype=np.int64)
        key_b = np.array([k for _, k in right], dtype=np.int64)
        i, j = pairs_in_reach(a, b)
        same = key_a[i] == key_b[j]
        got_i, got_j = pairs_in_reach(a, b, key_a, key_b)
        np.testing.assert_array_equal(got_i, i[same])
        np.testing.assert_array_equal(got_j, j[same])
        assert (np.diff(got_j) >= 0).all()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_boxes, st.integers(0, 2)), max_size=16), st.booleans())
    def test_pairs_within_one_table_are_the_later_half(self, left, keyed):
        """Without b, the pairs (i, j) of a with itself with i > j, in the
        order of the pairs of a against a copy of itself."""
        a = box_rows([p for p, _ in left])
        key = np.array([k for _, k in left], dtype=np.int64) if keyed else None
        i, j = pairs_in_reach(a, a.copy(), key, key)
        later = i > j
        got_i, got_j = pairs_in_reach(a, key_a=key)
        assert got_i.dtype == got_j.dtype == np.int64
        np.testing.assert_array_equal(got_i, i[later])
        np.testing.assert_array_equal(got_j, j[later])


@st.composite
def _nested(draw):
    """A box, or a footprint below `_AREA_EPS`, and one inside it: the
    same yaw, each extent a fraction from 1e-6 to 1 of the outer one (1 on
    both: identical boxes), the centre moved along the outer box's axes by
    at most the room left."""
    p = draw(st.one_of(_boxes, _specks))
    fw, fl = draw(st.floats(1e-6, 1.0)), draw(st.floats(1e-6, 1.0))
    tw, tl = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    du, dv = tl * (1.0 - fl) * p.l / 2.0, tw * (1.0 - fw) * p.w / 2.0
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    q = dataclasses.replace(p, cx=p.cx + du * c - dv * s, cy=p.cy + du * s + dv * c,
                            w=p.w * fw, l=p.l * fl)
    return (p, q) if draw(st.booleans()) else (q, p)


_specks = st.builds(  # footprints from 1e-14 to 1.6e-9, around `_AREA_EPS`
    Box3D, _coord, _coord, st.floats(-1.0, 1.0), st.floats(1e-7, 4e-5), st.floats(1e-7, 4e-5),
    _size, _yaw
)
_bound_pairs = st.one_of(
    st.tuples(_boxes, _boxes),
    st.tuples(st.one_of(_boxes, _specks), _specks),
    _nested(),
    _touching_pairs(),
    _apart_along_an_edge(),
    st.sampled_from([TestBatchedKernel.CASES[c][:2] for c in TestBatchedKernel.TOUCHING]),
)


class TestIoUBounds:
    """`iou_bounds` encloses the kernel's own BEV IoU, rounding included,
    so that a pair it settles against a threshold is settled as the kernel
    would settle it. Tier-1 turns a RuntimeWarning from the bounds'
    arithmetic into an error."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_bound_pairs, st.one_of(st.just(0.0), st.floats(-80.0, 80.0)),
                              st.one_of(st.just(0.0), st.floats(-80.0, 80.0))),
                    min_size=1, max_size=30))
    def test_bounds_enclose_the_kernel(self, drawn):
        """Any boxes, identical and nested ones, footprints below
        `_AREA_EPS`, touching pairs and pairs apart by 1e-15 to 1e-6, each
        pair moved by up to 80 m (the KITTI range's coordinates)."""
        moved = [tuple(dataclasses.replace(box, cx=box.cx + x, cy=box.cy + y) for box in pair)
                 for pair, x, y in drawn]
        a, b = box_rows([p for p, _ in moved]), box_rows([q for _, q in moved])
        lo, hi = iou_bounds(a, b)
        iou = pair_iou(a, b)
        assert (lo >= 0.0).all() and (hi <= 1.0).all()
        assert (lo <= iou).all(), np.flatnonzero(lo > iou)
        assert (iou <= hi).all(), np.flatnonzero(iou > hi)

    def test_bounds_enclose_the_kernel_on_near_tangent_and_nested_boxes(self):
        """Seeded pairs where the margins matter, up to 80 m out: boxes of
        one yaw side by side along their width axes, overlapping by 1e-16
        to 1e-5 m, so that their inscribed disks are next to tangent and
        the lens formula loses half its digits; and boxes inside boxes, of
        sizes down to footprints below `_AREA_EPS`. Without either margin
        of `iou_bounds`, hundreds of these pairs fall outside."""
        rng = np.random.default_rng(0)
        n = 20_000
        a, b = np.zeros((2, 2 * n, 7))
        a[:, :2] = rng.uniform(-80.0, 80.0, (2 * n, 2))
        a[:, 3] = rng.uniform(0.3, 3.0, 2 * n) * np.repeat([1.0, 3e-5], n)
        a[:, 4] = a[:, 3] * rng.uniform(1.0, 3.0, 2 * n)
        a[:, 6] = rng.uniform(-math.pi, math.pi, 2 * n)
        b[:] = a
        c, s = np.cos(a[:, 6]), np.sin(a[:, 6])
        side, inner = slice(0, n), slice(n, 2 * n)
        b[side, 3] = rng.uniform(0.3, 3.0, n)
        b[side, 4] = b[side, 3] * rng.uniform(1.0, 3.0, n)
        d = (a[side, 3] + b[side, 3]) / 2.0 - 10.0 ** rng.uniform(-16.0, -5.0, n)
        b[side, 0] -= d * s[side]
        b[side, 1] += d * c[side]
        frac = np.where(rng.uniform(size=(n, 1)) < 0.3, 1.0, rng.uniform(0.0, 1.0, (n, 2)))
        b[inner, 3:5] = a[inner, 3:5] * frac
        du, dv = (rng.uniform(-1.0, 1.0, (2, n)) * (1.0 - frac.T) * a[inner, 4:2:-1].T / 2.0)
        b[inner, 0] += du * c[inner] - dv * s[inner]
        b[inner, 1] += du * s[inner] + dv * c[inner]
        lo, hi = iou_bounds(a, b)
        iou = pair_iou(a, b)
        assert (lo <= iou).all(), np.flatnonzero(lo > iou)
        assert (iou <= hi).all(), np.flatnonzero(iou > hi)

    def test_bounds_are_tight_on_identical_nested_and_touching_boxes(self):
        """Not vacuous: identical boxes reach 1, a box in one four times its
        area reaches the area ratio (from above) and holds the lens of the
        inscribed disks, and boxes that only touch or lie apart get an upper
        bound of rounding dust."""
        a = box_rows([bev_box(20.0, -7.0, 1.6, 3.9, 0.7), bev_box(0, 0, 2, 2),
                      bev_box(0, 0, 1, 1), bev_box(0, 0, 1, 1)])
        b = box_rows([bev_box(20.0, -7.0, 1.6, 3.9, 0.7), bev_box(0.3, -0.2, 1, 1),
                      bev_box(1, 0, 1, 1), bev_box(0, 1.5, 1, 1)])
        lo, hi = iou_bounds(a, b)
        disk = math.pi * 0.8**2
        assert hi[0] == 1.0 and lo[0] == pytest.approx(disk / (2 * 1.6 * 3.9 - disk), rel=1e-5)
        assert 0.25 <= hi[1] <= 0.25 + 1e-8
        assert lo[1] == pytest.approx((math.pi / 4) / (5 - math.pi / 4), rel=1e-5)
        assert (hi[2:] < 1e-8).all() and (lo[2:] == 0.0).all()


def _crowd(n, seed):
    """n Car detections of random sizes, yaws and distinct scores, centred
    within 0.5 m of one point: every pair overlaps."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-0.5, 0.5, (n, 2))
    size = rng.uniform([1.4, 3.5], [2.0, 4.5], (n, 2))
    yaw = rng.uniform(-math.pi, math.pi, n)
    return [det(x, y, float(s), w=w, l=l, yaw=float(t))
            for (x, y), (w, l), t, s in zip(xy, size, yaw, rng.permutation(n) / n)]


class TestChunkedOverlap:
    """`pairs_in_reach` runs its exact tests, the overlap kernel its
    clipping and `iou_bounds` its bounds per chunk of `_CHUNK_PAIRS` pairs;
    a row's result never depends on the chunk it falls in."""

    def test_one_pair_chunks_equal_one_whole_chunk(self, monkeypatch):
        rng = np.random.default_rng(0)
        rows = [bev_box(*rng.uniform(-15.0, 15.0, 2), *rng.uniform(0.5, 4.5, 2),
                        rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0))
                for _ in range(300)]
        dets = _crowd(40, 1) + [Detection(b, float(s), "Car" if s > 0.5 else "Pedestrian")
                                for b, s in zip(rows[:100], rng.uniform(0.0, 1.0, 100))]
        a, b = box_rows(rows[:200]), box_rows(rows[200:] + [d.box for d in dets[:40]])
        key_a, key_b = rng.integers(0, 3, len(a)), rng.integers(0, 3, len(b))
        runs = []
        for chunk in (2**62, 1):
            calls = dict.fromkeys(("_clipped_area", "_apart_along_own_axes"), 0)
            with monkeypatch.context() as m:
                m.setattr(bev, "_CHUNK_PAIRS", chunk)
                for name in calls:
                    def spy(*args, name=name, fn=getattr(bev, name)):
                        calls[name] += 1
                        return fn(*args)
                    m.setattr(bev, name, spy)
                i, j = pairs_in_reach(a, b)
                kept = {id(d) for d in nms_detections(dets, 0.01)}
                out = (i, j, *pairs_in_reach(a, b, key_a, key_b), pair_iou(a[i], b[j]),
                       pair_iou(a[i], b[j], "3D"), *iou_bounds(a[i], b[j]),
                       np.array([id(d) in kept for d in dets]))
            runs.append((out, calls))
        (whole, whole_calls), (split, split_calls) = runs
        assert whole[0].size > 200 and 1 < whole[-1].sum() < len(dets)
        for got, want in zip(split, whole, strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        # whole: one exact test per call and class (1 + 3 + 2), one clip per IoU call
        assert whole_calls == {"_clipped_area": 3, "_apart_along_own_axes": 6}
        assert split_calls["_clipped_area"] > whole[0].size
        assert split_calls["_apart_along_own_axes"] > len(b)

    def test_nms_memory_on_crowded_detections(self):
        """500 mutually overlapping detections put 250,000 pairs in reach,
        of which NMS asks for the 124,750 where the later box may be
        suppressed; the time stays quadratic in them, and their memory is a
        few arrays of the pairs' indices, their rows gathered one chunk at
        a time. Measured peak (tracemalloc, numpy 2.4, six seeds):
        7.7-8.7 MB; 20.8 MB when NMS gathered the rows of all pairs at once,
        21.0-22.0 MB when it took both orders of each pair, 34.9-36.0 MB
        when the kernel scored every pair, and 142.9-143.9 MB when the
        kernel and the exact tests ran on all pairs at once."""
        dets = _crowd(500, 0)
        rows = box_rows([d.box for d in dets])
        scores = np.array([d.score for d in dets])
        labels = np.array([d.label for d in dets])
        assert pairs_in_reach(rows, rows)[0].size == 500 * 500
        assert pairs_in_reach(rows, key_a=labels)[0].size == 500 * 499 // 2
        tracemalloc.start()
        try:
            kept = nms_bev(rows, scores, labels, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == 1
        assert peak <= 12 * 2**20, f"{peak / 2**20:.1f} MB"


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


class TestNMS:
    """`nms_bev` on arrays, and through `nms_detections` on `Detection`s
    against the greedy replay `brute_nms`."""

    def test_keeps_highest_score(self):
        dets = [det(0, 0, 0.4), det(0.1, 0, 0.9)]
        kept = nms_detections(dets, 0.01)
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_different_classes_never_suppress(self):
        dets = [det(0, 0, 0.9, "Car"), det(0, 0, 0.8, "Pedestrian", w=1.6, l=3.9)]
        assert len(nms_detections(dets, 0.01)) == 2

    def test_distant_boxes_all_kept(self):
        dets = [det(0, 0, 0.9), det(20, 0, 0.8), det(40, 0, 0.7)]
        assert len(nms_detections(dets, 0.01)) == 3

    def test_empty(self):
        assert nms_detections([], 0.5) == []
        kept = nms_bev(np.zeros((0, 7)), np.zeros(0, np.float32), np.zeros(0, np.int64), 0.5)
        assert kept.dtype == np.int64 and kept.shape == (0,)

    def test_returns_the_kept_indices_by_descending_score_ties_by_index(self):
        """Rows 1 and 3 tie on the top score and lie apart; row 0 overlaps
        row 3, row 2 overlaps row 1 but has another label, row 4 overlaps
        nothing."""
        rows = box_rows([bev_box(0, 0, 2, 4), bev_box(10, 0, 2, 4), bev_box(10, 0.5, 2, 4),
                         bev_box(0, 0.5, 2, 4), bev_box(30, 0, 2, 4)])
        scores = np.array([0.5, 0.9, 0.7, 0.9, 0.1], dtype=np.float32)
        labels = np.array([0, 0, 1, 0, 0])
        np.testing.assert_array_equal(nms_bev(rows, scores, labels, 0.01), [1, 3, 2, 4])
        # 64 boxes 10 m apart on three score levels: all kept, ties in index order
        rows = box_rows([bev_box(10.0 * k, 0, 2, 4) for k in range(64)])
        scores = np.random.default_rng(0).choice([0.1, 0.2, 0.3], 64).astype(np.float32)
        want = [k for level in (0.3, 0.2, 0.1) for k in range(64) if scores[k] == np.float32(level)]
        np.testing.assert_array_equal(nms_bev(rows, scores, np.zeros(64), 0.01), want)

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
        got = nms_detections(dets, thr)
        want = [dets[i] for i in brute_nms(dets, thr)]
        assert [(d.score, d.label) for d in got] == [(d.score, d.label) for d in want]

    @pytest.mark.parametrize("thr", [0.0, 0.01, 0.5, 1.0])
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_crowds_match_brute_force_at_the_ends_of_the_threshold_range(self, thr, seed):
        """Up to 30 boxes of two classes within 1.5 m, some exact copies:
        most pairs overlap, so the bounds settle most of them at each end
        of the range `config` allows."""
        rng = np.random.default_rng(seed)
        dets = []
        for _ in range(int(rng.integers(2, 31))):
            if dets and rng.uniform() < 0.2:
                box, label = dets[int(rng.integers(len(dets)))][:2]
            else:
                label = ["Car", "Pedestrian"][int(rng.integers(0, 2))]
                w, l = rng.uniform([0.5, 0.6], [2.0, 4.5])
                box = Box3D(*rng.uniform(-1.5, 1.5, 2), -1.0, w, l, 1.5,
                            float(rng.uniform(-math.pi, math.pi)))
            dets.append((box, label, float(rng.uniform())))
        dets = [Detection(box, score, label) for box, label, score in dets]
        got = nms_detections(dets, thr)
        assert [id(d) for d in got] == [id(dets[i]) for i in brute_nms(dets, thr)]


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


_near = st.floats(0.0, 4.0, allow_nan=False)
_eval_boxes = st.builds(Box3D, _near, _near, st.floats(-0.5, 0.5), st.floats(0.5, 3.0),
                        st.floats(0.5, 3.0), st.floats(0.5, 2.0), _yaw)


@st.composite
def _eval_frame(draw):
    """Ground truths within a few metres, an exact copy among them at times
    (equal IoUs, ties to the lowest index), and detections of tied scores
    that copy a ground truth (IoU 1) or lie anywhere, of any class."""
    gts = draw(st.lists(st.tuples(_eval_boxes, st.sampled_from(CLASSES)), max_size=5))
    if gts and draw(st.booleans()):
        gts.append(gts[0])
    dets = []
    for _ in range(draw(st.integers(0, 7))):
        if gts and draw(st.booleans()):
            box, label = draw(st.sampled_from(gts))
        else:
            box, label = draw(_eval_boxes), draw(st.sampled_from(CLASSES))
        dets.append(Detection(box, draw(st.sampled_from([0.2, 0.5, 0.5, 0.9])), label))
    return dets, gts


def _evaluated(fn, *args):
    """fn(*args) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


class TestMatchFrames:
    """`evaluate_set`, `ap_r40` and `recall_at_iou` match every frame in one
    keyed search; they equal the per-frame oracle (`eval_oracle`) exactly."""

    @staticmethod
    def _assert_matches_oracle(frames, thresholds):
        for mode in ("BEV", "3D"):
            cfg = EvalConfig(iou_thresholds=thresholds, mode=mode)
            assert _evaluated(evaluate_set, frames, cfg) == _evaluated(
                eval_oracle.evaluate_set, frames, cfg)
            for cls, thr in thresholds.items():
                assert ap_r40(frames, cls, thr, mode) == eval_oracle.ap_r40(frames, cls, thr, mode)
        for thr in set(thresholds.values()):
            assert recall_at_iou(frames, thr) == eval_oracle.recall_at_iou(frames, thr)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_eval_frame(), max_size=4),
           st.dictionaries(st.sampled_from(CLASSES),
                           st.sampled_from([0.0, 0.1, 0.5, 0.7, 1.0]), min_size=1))
    def test_matches_the_per_frame_oracle(self, frames, thresholds):
        self._assert_matches_oracle(frames, thresholds)

    def test_empty_frames_and_frames_without_detections(self):
        gt = (bev_box(0, 0, 1.6, 3.9), "Car")
        for frames in ([], [([], [])], [([], [gt])], [([], [gt]), ([det(0, 0, 0.9)], [])]):
            self._assert_matches_oracle(frames, {"Car": 0.7, "Pedestrian": 0.5})
        with pytest.warns(UserWarning, match="Pedestrian"):
            result = evaluate_set([([], [gt])], EvalConfig({"Car": 0.7, "Pedestrian": 0.5}))
        assert result.per_class_ap == {"Car": 0.0}

    def test_threshold_0_takes_the_first_untaken_ground_truth(self):
        """At 0, a detection that overlaps no untaken ground truth still
        takes one while any is left: the first two of three detections by
        score hit, the one overlapping the taken box and the far one alike."""
        gts = [(bev_box(0, 0, 1.6, 3.9), "Car"), (bev_box(30, 0, 1.6, 3.9), "Car")]
        frames = [([det(0, 0, 0.9), det(0.1, 0, 0.8), det(100, 0, 0.7)], gts)]
        m = bev.match_frames(frames, {"Car": 0.0})["Car"]
        assert m.hits.tolist() == [True, True, False] and (m.n_gt, m.found) == (2, 2)
        assert ap_r40(frames, "Car", 0.0) == 1.0
        assert recall_at_iou(frames, 0.0) == {"Car": (2, 2)}
        self._assert_matches_oracle(frames, {"Car": 0.0})

    def test_threshold_1_needs_an_exact_copy(self):
        gt = bev_box(1, 2, 1.6, 3.9, yaw=0.3)
        frames = [([Detection(gt, 0.5, "Car"), det(1.01, 2, 0.9, yaw=0.3)], [(gt, "Car")])]
        m = bev.match_frames(frames, {"Car": 1.0})["Car"]
        assert m.hits.tolist() == [False, True] and m.scores.tolist() == [0.9, 0.5]
        self._assert_matches_oracle(frames, {"Car": 1.0})

    def test_a_detection_takes_its_best_ground_truth_ties_to_the_lowest_index(self):
        """The first detection reaches both ground truths: it takes the one
        of higher IoU, so the second, which reaches only that one, misses.
        With the two at equal IoU it takes the first listed: the second
        detection, which reaches only the left one, misses unless the right
        one is listed first."""
        a, b = bev_box(0, 0, 2, 4), bev_box(0.5, 0, 2, 4)
        frames = [([Detection(bev_box(0, 0, 2, 4), 0.9, "Car"),
                    Detection(bev_box(-0.3, 0, 2, 4), 0.8, "Car")], [(b, "Car"), (a, "Car")])]
        assert bev.match_frames(frames, {"Car": 0.7})["Car"].hits.tolist() == [True, False]
        self._assert_matches_oracle(frames, {"Car": 0.7})
        left, right = bev_box(-0.5, 0, 2, 4), bev_box(0.5, 0, 2, 4)
        first = bev_box(0, 0, 2, 4)
        iou = iou_matrix(box_rows([first]), box_rows([left, right]))
        assert iou[0, 0] == iou[0, 1] >= 0.7
        for gts, hits in (([left, right], [True, False]), ([right, left], [True, True])):
            frames = [([Detection(first, 0.9, "Car"), Detection(bev_box(-1, 0, 2, 4), 0.8, "Car")],
                       [(g, "Car") for g in gts])]
            assert bev.match_frames(frames, {"Car": 0.7})["Car"].hits.tolist() == hits
            self._assert_matches_oracle(frames, {"Car": 0.7})

    def test_equal_scores_within_and_across_frames(self):
        """Tied scores keep the input order within a frame and the frame
        order across frames, both in the greedy pass and in the ranking."""
        gt = (bev_box(0, 0, 1.6, 3.9), "Car")
        frame = ([det(30, 0, 0.5), det(0, 0, 0.5), det(0.05, 0, 0.5)], [gt, gt])
        frames = [frame, ([det(0, 0, 0.5)], []), frame]
        m = bev.match_frames(frames, {"Car": 0.7})["Car"]
        assert m.hits.tolist() == [False, True, True, False, False, True, True]
        self._assert_matches_oracle(frames, {"Car": 0.7})

    def test_classes_missing_from_the_thresholds_are_left_out(self):
        gts = [(bev_box(0, 0, 1.6, 3.9), "Car"), (bev_box(0, 0, 1.6, 1.8), "Cyclist")]
        frames = [([det(0, 0, 0.9, "Cyclist", l=1.8), det(0, 0, 0.8)], gts)]
        matches = bev.match_frames(frames, {"Car": 0.7})
        assert list(matches) == ["Car"] and matches["Car"].scores.tolist() == [0.8]
        self._assert_matches_oracle(frames, {"Car": 0.7})
