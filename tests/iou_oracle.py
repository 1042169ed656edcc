"""Rotated-box oracles shared by the tests, independent of the batched kernel
in `densepillars.bev`: a box's BEV corners, a scalar Sutherland-Hodgman IoU
on lists of tuples, one pair at a time, a Monte-Carlo IoU estimate, and a
greedy-NMS replay."""

import math

import numpy as np

AREA_EPS = 1e-9


def bev_corners(box):
    """A `Box3D`'s four BEV corner points, CCW."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hx, hy = box.l / 2.0, box.w / 2.0
    local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.cx, box.cy])


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
        _clip_polygon([tuple(p) for p in bev_corners(a)], [tuple(p) for p in bev_corners(b)])
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


def monte_carlo_iou(a, b, n, rng):
    """Rejection-sampling BEV IoU estimate from `n` points drawn by `rng`
    over the two boxes' joint bounding box."""

    def inside(px, py, box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx, dy = px - box.cx, py - box.cy
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        return (np.abs(lx) <= box.l / 2) & (np.abs(ly) <= box.w / 2)

    corners = np.concatenate([bev_corners(a), bev_corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    px = rng.uniform(lo[0], hi[0], n)
    py = rng.uniform(lo[1], hi[1], n)
    in_a = inside(px, py, a)
    in_b = inside(px, py, b)
    union = np.count_nonzero(in_a | in_b)
    return 0.0 if union == 0 else np.count_nonzero(in_a & in_b) / union


def brute_nms(dets, thr):
    """Indices NMS keeps, by replaying the greedy rule one pair at a time: in
    score order, keep a detection unless a kept one of its class overlaps it
    with BEV IoU above `thr`."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    for i in order:
        if all(
            dets[j].label != dets[i].label
            or oracle_iou_bev(dets[i].box, dets[j].box) <= thr
            for j in kept
        ):
            kept.append(i)
    return kept
