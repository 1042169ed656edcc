"""Point-cloud and label I/O plus synthetic scene generation.

Clouds use the KITTI velodyne binary layout (little-endian float32
x, y, z, reflectance quadruples, no header). Labels live in the lidar
frame as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CLASSES = ("Car", "Pedestrian", "Cyclist")

# (width, length, height) used both for synthetic objects and anchors
CLASS_SIZES = {
    "Car": (1.6, 3.9, 1.56),
    "Pedestrian": (0.6, 0.8, 1.73),
    "Cyclist": (0.6, 1.76, 1.73),
}

GROUND_Z = -1.73

# synthetic scenes: the class of each box is drawn with these weights, and
# each box carries this many surface points
SYNTH_CLASS_MIX = {"Car": 0.5, "Pedestrian": 0.25, "Cyclist": 0.25}
SYNTH_POINTS_PER_BOX = 120

LABEL_HEADER = "class,cx,cy,cz,w,l,h,yaw"
PREDICTION_HEADER = LABEL_HEADER + ",score"


class FormatError(ValueError):
    """A file does not conform to its declared format."""


def wrap_angle(a):
    """Wrap to (-pi, pi]: a float, or an array elementwise with the same
    float64 values, since `np.remainder` rounds and signs as float `%`."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


@dataclass
class PointCloud:
    points: np.ndarray  # [N, 4] float32: x, y, z, reflectance

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32).reshape(-1, 4)

    def __len__(self):
        return self.points.shape[0]


@dataclass
class Box3D:
    cx: float
    cy: float
    cz: float
    w: float  # extent along the box's y' axis
    l: float  # extent along the box's x' axis
    h: float
    yaw: float  # about +z, zero along +x, CCW positive

    def __post_init__(self):
        if self.w <= 0 or self.l <= 0 or self.h <= 0:
            raise ValueError("box sizes must be positive")
        self.yaw = wrap_angle(self.yaw)

    def as_array(self):
        return np.array(
            [self.cx, self.cy, self.cz, self.w, self.l, self.h, self.yaw],
            dtype=np.float64,
        )


@dataclass
class LabeledScene:
    cloud: PointCloud
    boxes: list = field(default_factory=list)  # [(Box3D, class name)]

    def __post_init__(self):
        for _, cls in self.boxes:
            if cls not in CLASSES:
                raise ValueError(f"unknown class {cls!r}")


@dataclass
class Detection:
    box: Box3D
    score: float
    label: str


# ---------------------------------------------------------------------------
# binary cloud I/O


def read_kitti_bin(path) -> PointCloud:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % 16 != 0:
        raise FormatError(f"{path}: length {len(raw)} is not a multiple of 16")
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise FormatError(f"{path}: point {int(np.argmax(bad))} has a non-finite value")
    return PointCloud(pts.copy())


def write_kitti_bin(path, cloud: PointCloud) -> None:
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(cloud.points, dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# label / prediction CSV


def write_labels(path, boxes) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(LABEL_HEADER + "\n")
        for box, cls in boxes:
            f.write(
                f"{cls},{box.cx!r},{box.cy!r},{box.cz!r},"
                f"{box.w!r},{box.l!r},{box.h!r},{box.yaw!r}\n"
            )


def _parse_box_line(line, lineno, path, n_fields):
    parts = line.split(",")
    if len(parts) != n_fields:
        raise FormatError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
    cls = parts[0]
    if cls not in CLASSES:
        raise FormatError(f"{path}:{lineno}: unknown class {cls!r}")
    try:
        vals = [float(v) for v in parts[1:]]
    except ValueError as e:
        raise FormatError(f"{path}:{lineno}: {e}") from None
    if not all(math.isfinite(v) for v in vals):
        raise FormatError(f"{path}:{lineno}: non-finite value in {line!r}")
    if min(vals[3:6]) <= 0:  # w, l, h
        raise FormatError(f"{path}:{lineno}: box sizes must be positive in {line!r}")
    return cls, vals


def _read_box_csv(path, header):
    """(class, values) for each data line of a box CSV that starts with
    `header`; a missing header or a bad line is a FormatError at `path:line`."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [(i, ln.strip()) for i, ln in enumerate(f, start=1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise FormatError(f"{path}:1: missing header {header!r}")
    n_fields = len(header.split(","))
    return [_parse_box_line(ln, i, path, n_fields) for i, ln in lines[1:]]


def read_labels(path):
    return [(Box3D(*v), cls) for cls, v in _read_box_csv(path, LABEL_HEADER)]


def write_predictions(path, dets) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(PREDICTION_HEADER + "\n")
        for d in dets:
            b = d.box
            f.write(
                f"{d.label},{b.cx!r},{b.cy!r},{b.cz!r},"
                f"{b.w!r},{b.l!r},{b.h!r},{b.yaw!r},{d.score!r}\n"
            )


def read_predictions(path):
    return [Detection(Box3D(*v[:7]), v[7], cls)
            for cls, v in _read_box_csv(path, PREDICTION_HEADER)]


# ---------------------------------------------------------------------------
# synthetic scenes


def _sample_on_box_surface(rng, box: Box3D, n: int) -> np.ndarray:
    """Points on the side/top faces of an oriented box, lidar-style."""
    face = rng.integers(0, 5, size=n)  # 4 sides + top
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    x = np.empty(n)
    y = np.empty(n)
    z = np.empty(n)
    hx, hy, hz = box.l / 2, box.w / 2, box.h / 2
    for f, sel in enumerate([face == i for i in range(5)]):
        if f == 0:
            x[sel], y[sel], z[sel] = hx, u[sel] * box.w, v[sel] * box.h
        elif f == 1:
            x[sel], y[sel], z[sel] = -hx, u[sel] * box.w, v[sel] * box.h
        elif f == 2:
            x[sel], y[sel], z[sel] = u[sel] * box.l, hy, v[sel] * box.h
        elif f == 3:
            x[sel], y[sel], z[sel] = u[sel] * box.l, -hy, v[sel] * box.h
        else:
            x[sel], y[sel], z[sel] = u[sel] * box.l, v[sel] * box.w, hz
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    gx = box.cx + c * x - s * y
    gy = box.cy + s * x + c * y
    gz = box.cz + z
    return np.stack([gx, gy, gz], axis=1)


def synth_scene(
    seed: int,
    n_boxes: int,
    noise: float = 0.01,
    x_range=(0.0, 69.12),
    y_range=(-39.68, 39.68),
    n_ground: int = 2000,
    n_clutter: int = 300,
) -> LabeledScene:
    """Deterministic labeled scene: ground plane, clutter, boxes with surface hits.

    Boxes (including their rotated footprints) stay fully inside the x/y
    range; every box carries SYNTH_POINTS_PER_BOX surface points.
    """
    if n_boxes < 0:
        raise ValueError("n_boxes must be >= 0")
    rng = np.random.default_rng(seed)
    names = sorted(SYNTH_CLASS_MIX)
    probs = np.array([SYNTH_CLASS_MIX[c] for c in names], dtype=float)
    probs /= probs.sum()

    boxes = []
    attempts = 0
    while len(boxes) < n_boxes and attempts < 1000 * max(1, n_boxes):
        attempts += 1
        cls = names[int(rng.choice(len(names), p=probs))]
        w, l, h = CLASS_SIZES[cls]
        half_diag = math.hypot(w, l) / 2.0
        lo_x, hi_x = x_range[0] + half_diag, x_range[1] - half_diag
        lo_y, hi_y = y_range[0] + half_diag, y_range[1] - half_diag
        cx = rng.uniform(lo_x, hi_x)
        cy = rng.uniform(lo_y, hi_y)
        yaw = rng.uniform(-math.pi, math.pi)
        cand = Box3D(cx, cy, GROUND_Z + h / 2.0, w, l, h, yaw)
        ok = True
        for other, ocls in boxes:
            ow, ol, _ = CLASS_SIZES[ocls]
            min_dist = half_diag + math.hypot(ow, ol) / 2.0 + 0.5
            if math.hypot(other.cx - cx, other.cy - cy) < min_dist:
                ok = False
                break
        if ok:
            boxes.append((cand, cls))

    chunks = []
    gx = rng.uniform(x_range[0], x_range[1], size=n_ground)
    gy = rng.uniform(y_range[0], y_range[1], size=n_ground)
    gz = np.full(n_ground, GROUND_Z) + rng.normal(0, noise, size=n_ground)
    chunks.append(np.stack([gx, gy, gz], axis=1))
    if n_clutter:
        ux = rng.uniform(x_range[0], x_range[1], size=n_clutter)
        uy = rng.uniform(y_range[0], y_range[1], size=n_clutter)
        uz = rng.uniform(GROUND_Z, 0.5, size=n_clutter)
        chunks.append(np.stack([ux, uy, uz], axis=1))
    for box, _ in boxes:
        xyz = _sample_on_box_surface(rng, box, SYNTH_POINTS_PER_BOX)
        xyz += rng.uniform(-noise, noise, size=xyz.shape)
        chunks.append(xyz)

    xyz = np.concatenate(chunks, axis=0)
    refl = rng.uniform(0.0, 1.0, size=(xyz.shape[0], 1))
    pts = np.concatenate([xyz, refl], axis=1).astype(np.float32)
    return LabeledScene(PointCloud(pts), boxes)
