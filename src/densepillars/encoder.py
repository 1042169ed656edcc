"""Pillarization, feature decoration and the pillar feature network.

The backbones read the pillar features at their cells (`coords`) through
`tensor.sparse_conv2d`, so no pseudo-image is built;
`scatter_to_pseudo_image` stays as the tests' oracle input.

`pillarize` groups points into the paper's fixed [P, S, 4] pillar tensor
(S = `max_points_per_pillar` slots, zero past each pillar's count).
`decorate` keeps only the filled slots, as [N, 9] rows grouped by pillar
(dynamic voxelization, Zhou et al., arXiv 1910.06528), and the PFN runs on
those rows; only its train-mode batch norm still counts the P·S slots."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .pointcloud import PointCloud
from .tensor import ConfigurationError, InvariantViolation, Tensor


@dataclass
class GridSpec:
    x_range: tuple = (0.0, 69.12)
    y_range: tuple = (-39.68, 39.68)
    z_range: tuple = (-3.0, 1.0)
    pillar_size: tuple = (0.16, 0.16)
    max_points_per_pillar: int = 32
    max_pillars: int = 12000
    feature_channels: int = 64

    def __post_init__(self):
        for axis, (lo, hi) in zip("xyz", (self.x_range, self.y_range, self.z_range)):
            if not lo < hi:
                raise ConfigurationError(f"grid {axis}_max {hi} must exceed {axis}_min {lo}")
        px, py = self.pillar_size
        for lo, hi, p in ((*self.x_range, px), (*self.y_range, py)):
            n = (hi - lo) / p
            if abs(n - round(n)) > 1e-6:
                raise ConfigurationError("range extent must be a multiple of pillar size")
        if self.width % 8 or self.height % 8:
            raise ConfigurationError(
                f"grid {self.height}x{self.width} must be divisible by 8 for the backbone"
            )

    @property
    def width(self) -> int:  # cells along x
        return round((self.x_range[1] - self.x_range[0]) / self.pillar_size[0])

    @property
    def height(self) -> int:  # cells along y
        return round((self.y_range[1] - self.y_range[0]) / self.pillar_size[1])


@dataclass
class PillarBatch:
    features: np.ndarray  # [P, max_points, 4] raw xyzr slots, zero past `counts`
    coords: np.ndarray  # [P, 2] int (row = y index, col = x index)
    counts: np.ndarray  # [P]


@dataclass
class PillarRows:
    """The kept points of a PillarBatch as rows grouped by pillar, in slot
    order: pillar i's rows are starts[i] : starts[i] + counts[i]."""

    features: np.ndarray  # [N, 9] decorated
    coords: np.ndarray  # [P, 2]
    counts: np.ndarray  # [P], each at least 1
    starts: np.ndarray  # [P]
    max_points: int  # S, the slots per pillar of the padded layout

    def slot_index(self) -> np.ndarray:
        """[N] position of each row among the P·S slots of the padded layout."""
        offset = np.arange(self.counts.shape[0]) * self.max_points - self.starts
        return np.arange(self.features.shape[0]) + np.repeat(offset, self.counts)


def pillarize(cloud: PointCloud, g: GridSpec, seed: int = 0, cap: bool = True) -> PillarBatch:
    """Group in-range points into pillars of raw xyzr slots.

    Ranges are half-open; overfull pillars are subsampled uniformly with the
    given seed. With `cap` False (inference) all non-empty pillars are kept.
    """
    pts = cloud.points.astype(np.float64)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    keep = (
        (x >= g.x_range[0]) & (x < g.x_range[1])
        & (y >= g.y_range[0]) & (y < g.y_range[1])
        & (z >= g.z_range[0]) & (z < g.z_range[1])
    )
    pts = pts[keep]
    if pts.shape[0] == 0:
        return PillarBatch(
            np.zeros((0, g.max_points_per_pillar, 4), dtype=np.float32),
            np.zeros((0, 2), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    col = np.floor((pts[:, 0] - g.x_range[0]) / g.pillar_size[0]).astype(np.int64)
    row = np.floor((pts[:, 1] - g.y_range[0]) / g.pillar_size[1]).astype(np.int64)
    lin = row * g.width + col

    rng = np.random.default_rng(seed)
    uniq, inverse, counts_all = np.unique(lin, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")  # point indices grouped by pillar

    pillar_ids = np.arange(uniq.shape[0])
    if cap and uniq.shape[0] > g.max_pillars:
        chosen = np.sort(rng.choice(uniq.shape[0], size=g.max_pillars, replace=False))
        pillar_ids = chosen

    s = g.max_points_per_pillar
    starts = np.concatenate([[0], np.cumsum(counts_all)])
    sizes = counts_all[pillar_ids]
    features = np.zeros((pillar_ids.shape[0], s, 4), dtype=np.float32)
    coords = np.stack([uniq[pillar_ids] // g.width, uniq[pillar_ids] % g.width], axis=1)
    counts = np.minimum(sizes, s)

    # One scatter places every point of each kept pillar that is not overfull.
    out_row = np.full(uniq.shape[0], -1, dtype=np.int64)
    out_row[pillar_ids] = np.arange(pillar_ids.shape[0])
    point_pillar = np.repeat(np.arange(uniq.shape[0]), counts_all)  # of each grouped point
    slot = np.arange(point_pillar.shape[0]) - starts[point_pillar]
    fits = (out_row[point_pillar] >= 0) & (counts_all[point_pillar] <= s)
    features[out_row[point_pillar[fits]], slot[fits]] = pts[order[fits]].astype(np.float32)
    # Overfull pillars draw their subsample in pillar order, one draw each.
    overfull = np.flatnonzero(sizes > s)
    for out_i, pid in zip(overfull, pillar_ids[overfull]):
        members = order[starts[pid] : starts[pid + 1]]
        members = members[np.sort(rng.choice(members.shape[0], size=s, replace=False))]
        features[out_i] = pts[members].astype(np.float32)
    return PillarBatch(features, coords, counts)


def decorate(batch: PillarBatch, g: GridSpec) -> PillarRows:
    """The 9 decorated channels of each kept point: raw xyzr, the offset
    from its pillar's point mean, and the x/y offset from its cell centre.
    Empty slots are dropped, not decorated."""
    if batch.features.ndim != 3 or batch.features.shape[2] != 4:
        raise ConfigurationError("decorate expects raw [P, S, 4] pillar features")
    s = batch.features.shape[1]
    counts = batch.counts
    starts = np.cumsum(counts) - counts
    raw = batch.features[np.arange(s)[None, :] < counts[:, None]]  # [N, 4]
    out = np.empty((raw.shape[0], 9), dtype=np.float32)
    out[:, :4] = raw
    if raw.shape[0]:
        xyz = raw[:, :3].astype(np.float64)
        mean = np.add.reduceat(xyz, starts, axis=0) / counts[:, None]  # [P, 3]
        out[:, 4:7] = xyz - np.repeat(mean, counts, axis=0)
        cell_x = g.x_range[0] + (batch.coords[:, 1] + 0.5) * g.pillar_size[0]
        cell_y = g.y_range[0] + (batch.coords[:, 0] + 0.5) * g.pillar_size[1]
        center = np.stack([cell_x, cell_y], axis=1)  # [P, 2]
        out[:, 7:9] = xyz[:, :2] - np.repeat(center, counts, axis=0)
    return PillarRows(out, batch.coords, counts, starts, s)


@dataclass
class PFNWeights:
    weight: Tensor  # [9, feature_channels]
    bn: T.BatchNormParams

    @staticmethod
    def create(g: GridSpec, rng: np.random.Generator):
        c = g.feature_channels
        std = np.sqrt(2.0 / c)
        w = rng.normal(0.0, std, size=(9, c)).astype(np.float32)
        return PFNWeights(Tensor(w, requires_grad=True), T.BatchNormParams.create(c))

    def named_params(self, prefix="pfn"):
        return {
            f"{prefix}.weight": self.weight,
            f"{prefix}.bn.gamma": self.bn.gamma,
            f"{prefix}.bn.beta": self.bn.beta,
        }


def pfn_forward(batch: PillarRows, weights: PFNWeights) -> Tensor:
    """Per-point linear + BN + ReLU, then the max over each pillar's rows
    (PointNet's symmetric function, Qi et al., arXiv 1612.00593).

    Only the kept points are rows. An empty slot of the padded layout would
    map to an exact zero row (the linear map has no bias) that the max never
    reads, so it matters only to the train-mode batch norm, which is told
    the P·S slot positions and normalises over all of them."""
    n = batch.features.shape[0]
    cf = weights.weight.shape[1]
    slots = (batch.counts.shape[0] * batch.max_points, batch.slot_index())
    h = T.linear_map(Tensor(batch.features), weights.weight)  # [N, C_f]
    h = T.batch_norm(T.reshape(h, (n, cf, 1, 1)), weights.bn, relu=True, padded=slots)
    return T.segment_max(T.reshape(h, (n, cf)), batch.starts)


# not called by the pipeline: the tests build the oracle's pseudo-image with
# it, and perfbench/spans.py wraps encoder.scatter_to_pseudo_image by name,
# so tracing fails without the attribute
def scatter_to_pseudo_image(features: Tensor, coords: np.ndarray, g: GridSpec) -> Tensor:
    """Place per-pillar feature vectors at their grid cells; empty cells stay 0."""
    p, c = features.shape
    rows, cols = coords[:, 0], coords[:, 1]
    lin = rows * g.width + cols
    if np.unique(lin).shape[0] != p:
        raise InvariantViolation("duplicate pillar coordinates in scatter")
    out = np.zeros((1, c, g.height, g.width), dtype=features.data.dtype)
    out[0, :, rows, cols] = features.data

    def backward(grad):
        return (grad[0][:, rows, cols].T,)

    return T.make(out, (features,), backward)
