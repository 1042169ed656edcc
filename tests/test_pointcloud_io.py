import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepillars.pointcloud import (
    CLASS_SIZES,
    CLASSES,
    GROUND_Z,
    Box3D,
    Detection,
    FormatError,
    PointCloud,
    read_kitti_bin,
    read_labels,
    read_predictions,
    synth_scene,
    wrap_angle,
    write_kitti_bin,
    write_labels,
    write_predictions,
)
from iou_oracle import bev_corners


class TestWrapAngle:
    def test_identity_in_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)
        assert wrap_angle(-3.0) == pytest.approx(-3.0)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_wraps_large_angles(self):
        assert wrap_angle(2 * math.pi + 0.1) == pytest.approx(0.1)
        assert wrap_angle(-2 * math.pi - 0.1) == pytest.approx(-0.1)

    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi + 1e-12
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


class TestBox3D:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1.0, 1.0, 0.0)

    def test_axis_aligned_corners(self):
        box = Box3D(1.0, 2.0, 0.0, 2.0, 4.0, 1.0, 0.0)
        got = bev_corners(box)
        expected = np.array([[3, 3], [-1, 3], [-1, 1], [3, 1]], dtype=float)
        np.testing.assert_allclose(got, expected)

    def test_corners_ccw(self):
        box = Box3D(0.5, -1.0, 0.0, 1.5, 3.0, 1.0, 0.7)
        pts = bev_corners(box)
        # twice the signed area via the shoelace formula
        area2 = 0.0
        for i in range(4):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % 4]
            area2 += ax * by - bx * ay
        assert area2 > 0
        assert area2 / 2 == pytest.approx(1.5 * 3.0)

    def test_rotation_preserves_side_lengths(self):
        box = Box3D(0, 0, 0, 1.6, 3.9, 1.56, 1.234)
        pts = bev_corners(box)
        d01 = np.linalg.norm(pts[0] - pts[1])
        d12 = np.linalg.norm(pts[1] - pts[2])
        assert d01 == pytest.approx(3.9)
        assert d12 == pytest.approx(1.6)


class TestBinaryIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(57, 4)).astype(np.float32))
        path = tmp_path / "a.bin"
        write_kitti_bin(path, cloud)
        back = read_kitti_bin(path)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "e.bin"
        write_kitti_bin(path, PointCloud(np.zeros((0, 4), np.float32)))
        assert len(read_kitti_bin(path)) == 0

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 23)
        with pytest.raises(FormatError):
            read_kitti_bin(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row, col", [(0, 0), (3, 2), (4, 3)])
    def test_non_finite_point_rejected_with_index(self, tmp_path, bad, row, col):
        pts = np.ones((5, 4), np.float32)
        pts[row, col] = bad
        pts[4, 1] = np.nan  # a later bad point is not the one reported
        path = tmp_path / "nan.bin"
        write_kitti_bin(path, PointCloud(pts))
        with pytest.raises(FormatError, match=rf"nan\.bin: point {row} has a non-finite"):
            read_kitti_bin(path)


class TestLabelIO:
    def test_roundtrip_exact(self, tmp_path):
        boxes = [
            (Box3D(10.125, -3.5, -1.0, 1.6, 3.9, 1.56, 0.7853981633974483), "Car"),
            (Box3D(5.0, 5.0, -0.9, 0.6, 0.8, 1.73, -1.1), "Pedestrian"),
        ]
        path = tmp_path / "l.csv"
        write_labels(path, boxes)
        back = read_labels(path)
        assert len(back) == 2
        for (b, c), (b2, c2) in zip(boxes, back):
            assert c == c2
            np.testing.assert_array_equal(b.as_array(), b2.as_array())

    def test_missing_header(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("Car,1,2,3,1,1,1,0\n")
        with pytest.raises(FormatError):
            read_labels(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("class,cx,cy,cz,w,l,h,yaw\nCar,1,2,3\n")
        with pytest.raises(FormatError, match=":2"):
            read_labels(path)

    def test_unknown_class(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("class,cx,cy,cz,w,l,h,yaw\nTruck,1,2,3,1,1,1,0\n")
        with pytest.raises(FormatError):
            read_labels(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("class,cx,cy,cz,w,l,h,yaw\nCar,1,x,3,1,1,1,0\n")
        with pytest.raises(FormatError):
            read_labels(path)

    def test_nan_centre_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("class,cx,cy,cz,w,l,h,yaw\nCar,1,2,3,1,1,1,0\nCar,nan,2,3,1,1,1,0\n")
        with pytest.raises(FormatError, match=r"l\.csv:3: non-finite"):
            read_labels(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("class,cx,cy,cz,w,l,h,yaw\n\nCar,1,2,3,1,1,1,0\nCar,nan,2,3,1,1,1,0\n")
        with pytest.raises(FormatError, match=r"l\.csv:4: non-finite"):
            read_labels(path)

    def test_zero_width_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("class,cx,cy,cz,w,l,h,yaw\nCar,1,2,3,0,1,1,0\n")
        with pytest.raises(FormatError, match=r"l\.csv:2: box sizes must be positive"):
            read_labels(path)

    def test_inf_yaw_rejected_in_predictions(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("class,cx,cy,cz,w,l,h,yaw,score\nCar,1,2,3,1,1,1,inf,0.5\n")
        with pytest.raises(FormatError, match=r"p\.csv:2: non-finite"):
            read_predictions(path)

    def test_prediction_roundtrip(self, tmp_path):
        dets = [Detection(Box3D(1, 2, -1, 1.6, 3.9, 1.56, 0.25), 0.875, "Car")]
        path = tmp_path / "p.csv"
        write_predictions(path, dets)
        back = read_predictions(path)
        assert back[0].score == 0.875
        assert back[0].label == "Car"
        np.testing.assert_array_equal(back[0].box.as_array(), dets[0].box.as_array())


def _point_in_bev_box(px, py, box):
    """Containment oracle in the box frame, independent of bev_corners."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx, dy = px - box.cx, py - box.cy
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return abs(lx) <= box.l / 2 + 1e-6 and abs(ly) <= box.w / 2 + 1e-6


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(7, 3)
        b = synth_scene(7, 3)
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        assert len(a.boxes) == len(b.boxes)
        for (ba, ca), (bb, cb) in zip(a.boxes, b.boxes):
            assert ca == cb
            np.testing.assert_array_equal(ba.as_array(), bb.as_array())

    def test_different_seeds_differ(self):
        a = synth_scene(1, 3)
        b = synth_scene(2, 3)
        assert a.cloud.points.shape != b.cloud.points.shape or not np.array_equal(
            a.cloud.points, b.cloud.points
        )

    def test_box_count_and_classes(self):
        scene = synth_scene(0, 4)
        assert len(scene.boxes) == 4
        for _, cls in scene.boxes:
            assert cls in CLASSES

    def test_footprints_inside_range(self):
        x_range, y_range = (0.0, 40.0), (-20.0, 20.0)
        scene = synth_scene(11, 5, x_range=x_range, y_range=y_range)
        for box, _ in scene.boxes:
            for px, py in bev_corners(box):
                assert x_range[0] - 1e-9 <= px <= x_range[1] + 1e-9
                assert y_range[0] - 1e-9 <= py <= y_range[1] + 1e-9

    def test_every_box_has_enough_points(self):
        scene = synth_scene(5, 3, noise=0.0)
        pts = scene.cloud.points
        for box, _ in scene.boxes:
            inside = sum(
                1 for x, y in pts[:, :2] if _point_in_bev_box(float(x), float(y), box)
            )
            assert inside >= 30

    def test_boxes_sit_on_ground(self):
        scene = synth_scene(3, 3)
        for box, cls in scene.boxes:
            assert box.cz == pytest.approx(GROUND_Z + CLASS_SIZES[cls][2] / 2)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_class_sizes_match_table(self, seed):
        scene = synth_scene(seed, 2, n_ground=50, n_clutter=0)
        for box, cls in scene.boxes:
            w, l, h = CLASS_SIZES[cls]
            assert (box.w, box.l, box.h) == (w, l, h)
