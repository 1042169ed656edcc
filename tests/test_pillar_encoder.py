import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densepillars import tensor as T
from densepillars.encoder import (
    PFN_CHANNELS,
    GridSpec,
    PFNWeights,
    PillarBatch,
    PillarRows,
    decorate,
    pfn_forward,
    pillarize,
    scatter_to_pseudo_image,
)
from densepillars.pointcloud import PointCloud, synth_scene
from densepillars.tensor import ConfigurationError, InvariantViolation, Tensor
from pfn_oracle import padded_decorate, padded_pfn_forward, transposed_pfn_forward

SMALL = GridSpec(
    x_range=(0.0, 3.2),
    y_range=(-1.6, 1.6),
    pillar_size=(0.2, 0.2),
    max_points_per_pillar=4,
    max_pillars=20,
)


def make_cloud(xy, z=-1.0, r=0.5):
    pts = np.array([[x, y, z, r] for x, y in xy], dtype=np.float32)
    return PointCloud(pts)


class TestGridSpec:
    def test_kitti_default_shape(self):
        g = GridSpec()
        assert (g.height, g.width) == (496, 432)

    def test_rejects_non_multiple_extent(self):
        with pytest.raises(ConfigurationError):
            GridSpec(x_range=(0.0, 1.0), pillar_size=(0.3, 0.3), y_range=(0.0, 2.4))

    def test_rejects_non_divisible_by_8(self):
        with pytest.raises(ConfigurationError):
            GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.6), pillar_size=(0.2, 0.2))

    @pytest.mark.parametrize("pillar, size", [
        ((1e8, 1e8), "0x0"), ((float("inf"), float("inf")), "0x0"), ((1e300, 1e300), "0x0"),
        ((1e8, 0.32), "8x0"), ((0.32, float("inf")), "0x8"),
    ])
    def test_rejects_a_grid_with_no_cells(self, pillar, size):
        """A pillar larger than the range passes the extent check with 0
        cells, and 0 is a multiple of 8."""
        with pytest.raises(ConfigurationError, match=f"grid {size} must be a positive multiple"):
            GridSpec(x_range=(0.0, 2.56), y_range=(-1.28, 1.28), pillar_size=pillar)

    def test_rejects_an_extent_of_infinitely_many_pillars(self):
        with pytest.raises(ConfigurationError, match="multiple of pillar size"):
            GridSpec(pillar_size=(1e-310, 1e-310))


class TestPillarize:
    def test_occupancy_matches_brute_force(self):
        rng = np.random.default_rng(0)
        n = 400
        pts = np.stack(
            [
                rng.uniform(-0.5, 3.7, n),
                rng.uniform(-2.0, 2.0, n),
                rng.uniform(-3.5, 1.5, n),
                rng.uniform(0, 1, n),
            ],
            axis=1,
        ).astype(np.float32)
        g = SMALL
        batch = pillarize(PointCloud(pts), g, cap=False)

        oracle = {}
        for x, y, z, _ in pts.astype(np.float64):
            if not (
                g.x_range[0] <= x < g.x_range[1]
                and g.y_range[0] <= y < g.y_range[1]
                and g.z_range[0] <= z < g.z_range[1]
            ):
                continue
            key = (
                int(np.floor((y - g.y_range[0]) / 0.2)),
                int(np.floor((x - g.x_range[0]) / 0.2)),
            )
            oracle[key] = oracle.get(key, 0) + 1

        got = {tuple(c): int(n) for c, n in zip(batch.coords, batch.counts)}
        assert set(got) == set(oracle)
        for key, cnt in oracle.items():
            assert got[key] == min(cnt, g.max_points_per_pillar)

    def test_half_open_boundaries(self):
        cloud = make_cloud([(0.0, 0.0), (3.2, 0.0), (0.2, 0.0)])
        batch = pillarize(cloud, SMALL)
        got = {tuple(c) for c in batch.coords}
        # x = 0 (lower bound) is in; x = 3.2 (upper bound) is out;
        # x = 0.2 (internal boundary) lands in the upper cell
        assert got == {(8, 0), (8, 1)}

    def test_empty_cloud(self):
        batch = pillarize(PointCloud(np.zeros((0, 4), np.float32)), SMALL)
        assert batch.features.shape == (0, SMALL.max_points_per_pillar, 4)
        assert batch.coords.shape == (0, 2)

    def test_overfull_pillar_subsampled_deterministically(self):
        xy = [(0.05 + 0.001 * i, 0.05) for i in range(10)]
        cloud = make_cloud(xy)
        a = pillarize(cloud, SMALL, seed=3)
        b = pillarize(cloud, SMALL, seed=3)
        assert a.counts[0] == SMALL.max_points_per_pillar
        np.testing.assert_array_equal(a.features, b.features)

    def test_max_pillars_cap(self):
        rng = np.random.default_rng(1)
        n = 600
        pts = np.stack(
            [
                rng.uniform(0, 3.2, n),
                rng.uniform(-1.6, 1.6, n),
                np.full(n, -1.0),
                np.zeros(n),
            ],
            axis=1,
        ).astype(np.float32)
        capped = pillarize(PointCloud(pts), SMALL, cap=True)
        full = pillarize(PointCloud(pts), SMALL, cap=False)
        assert capped.features.shape[0] == SMALL.max_pillars
        assert full.features.shape[0] > SMALL.max_pillars

    def test_padded_slots_are_zero(self):
        batch = pillarize(make_cloud([(0.1, 0.1)]), SMALL)
        assert batch.counts[0] == 1
        np.testing.assert_array_equal(batch.features[0, 1:], 0.0)


def loop_pillarize(cloud, g, seed=0, cap=True):
    """The engine's earlier per-pillar loop, kept as the oracle for the
    vectorised `pillarize`: same grouping, same `rng` draws in the same order."""
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
    order = np.argsort(inverse, kind="stable")

    pillar_ids = np.arange(uniq.shape[0])
    if cap and uniq.shape[0] > g.max_pillars:
        pillar_ids = np.sort(rng.choice(uniq.shape[0], size=g.max_pillars, replace=False))

    s = g.max_points_per_pillar
    features = np.zeros((pillar_ids.shape[0], s, 4), dtype=np.float32)
    coords = np.zeros((pillar_ids.shape[0], 2), dtype=np.int64)
    counts = np.zeros(pillar_ids.shape[0], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts_all)])
    for out_i, pid in enumerate(pillar_ids):
        members = order[starts[pid] : starts[pid + 1]]
        if members.shape[0] > s:
            members = members[np.sort(rng.choice(members.shape[0], size=s, replace=False))]
        n = members.shape[0]
        features[out_i, :n] = pts[members].astype(np.float32)
        coords[out_i] = (uniq[pid] // g.width, uniq[pid] % g.width)
        counts[out_i] = n
    return PillarBatch(features, coords, counts)


def _scene(kind, seed):
    """A cloud over SMALL (plus out-of-range points): `sparse` has no overfull
    pillar and fewer pillars than the cap, `overfull` adds clusters of up to
    12 points per cell, `over_cap` adds enough pillars to exceed the cap."""
    rng = np.random.default_rng(seed)
    n = {"sparse": 12, "overfull": 20, "over_cap": 600}[kind]
    parts = [np.stack([rng.uniform(-0.5, 3.7, n), rng.uniform(-2.0, 2.0, n),
                       rng.uniform(-3.5, 1.5, n), rng.uniform(0, 1, n)], axis=1)]
    if kind != "sparse":
        for cx, cy in rng.uniform([0.2, -1.4], [3.0, 1.4], size=(3, 2)):
            m = int(rng.integers(5, 13))
            parts.append(np.stack([cx + rng.uniform(0, 0.05, m), cy + rng.uniform(0, 0.05, m),
                                   np.full(m, -1.0), rng.uniform(0, 1, m)], axis=1))
    return PointCloud(np.concatenate(parts).astype(np.float32))


class TestPillarizeAgainstLoop:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("cap", [True, False])
    @pytest.mark.parametrize("kind", ["sparse", "overfull", "over_cap"])
    def test_bit_identical(self, kind, cap, seed):
        cloud = _scene(kind, seed)
        got = pillarize(cloud, SMALL, seed=seed, cap=cap)
        want = loop_pillarize(cloud, SMALL, seed=seed, cap=cap)
        everything = loop_pillarize(cloud, SMALL, cap=False)
        assert np.any(everything.counts == SMALL.max_points_per_pillar) == (kind != "sparse")
        assert (everything.counts.shape[0] > SMALL.max_pillars) == (kind == "over_cap")
        for name in ("features", "coords", "counts"):
            a, e = getattr(got, name), getattr(want, name)
            assert a.dtype == e.dtype, name
            assert np.array_equal(a, e), name

    def test_kitti_grid_frame(self):
        g = GridSpec()
        rng = np.random.default_rng(11)
        n = 16_000
        pts = np.stack([rng.uniform(-2, 72, n), rng.uniform(-42, 42, n),
                        rng.uniform(-3.5, 1.5, n), rng.uniform(0, 1, n)], axis=1)
        cluster = np.stack([rng.normal(20, 0.05, 400), rng.normal(0, 0.05, 400),
                            np.full(400, -1.0), rng.uniform(0, 1, 400)], axis=1)
        cloud = PointCloud(np.concatenate([pts, cluster]).astype(np.float32))
        for cap in (True, False):
            got, want = pillarize(cloud, g, cap=cap), loop_pillarize(cloud, g, cap=cap)
            assert np.any(want.counts == g.max_points_per_pillar)
            for name in ("features", "coords", "counts"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


def pillar_rows(batch, i):
    """The decorated rows of pillar i."""
    return batch.features[batch.starts[i] : batch.starts[i] + batch.counts[i]]


class TestDecorate:
    def test_channel_layout(self):
        g = SMALL
        cloud = make_cloud([(0.15, 0.05), (0.05, 0.15)], z=-1.0, r=0.3)
        batch = decorate(pillarize(cloud, g), g)
        assert batch.features.shape == (2, 9)
        f = pillar_rows(batch, 0)
        assert batch.counts[0] == 2
        # raw slots pass through
        np.testing.assert_allclose(f[:, 3], 0.3, rtol=1e-6)
        # offsets from the arithmetic mean sum to zero over the pillar's points
        np.testing.assert_allclose(f[:, 4:7].sum(axis=0), 0.0, atol=1e-6)
        # offsets from the cell center: cell (row 8, col 0) is centered at (0.1, 0.1)
        np.testing.assert_allclose(f[:, 7], f[:, 0] - 0.1, atol=1e-6)
        np.testing.assert_allclose(f[:, 8], f[:, 1] - 0.1, atol=1e-6)

    def test_mean_offset_values(self):
        g = SMALL
        cloud = make_cloud([(0.05, 0.05), (0.15, 0.15)])
        batch = decorate(pillarize(cloud, g), g)
        f = pillar_rows(batch, 0)
        np.testing.assert_allclose(np.abs(f[:, 4]), 0.05, atol=1e-6)
        np.testing.assert_allclose(np.abs(f[:, 5]), 0.05, atol=1e-6)
        np.testing.assert_allclose(f[:, 6], 0.0, atol=1e-6)

    def test_padded_slots_stay_zero(self):
        """An empty slot gets no row; in the padded oracle it stays zero."""
        g = SMALL
        raw = pillarize(make_cloud([(0.1, 0.1), (0.9, 0.3), (0.95, 0.35)]), g)
        batch = decorate(raw, g)
        assert batch.features.shape == (3, 9)
        np.testing.assert_array_equal(batch.starts, [0, 1])
        np.testing.assert_array_equal(padded_decorate(raw, g).features[0, 1:], 0.0)

    def test_rejects_already_decorated(self):
        g = SMALL
        batch = decorate(pillarize(make_cloud([(0.1, 0.1)]), g), g)
        with pytest.raises(ConfigurationError):
            decorate(batch, g)

    def test_empty_batch(self):
        batch = decorate(pillarize(PointCloud(np.zeros((0, 4), np.float32)), SMALL), SMALL)
        assert batch.features.shape == (0, 9) and batch.starts.shape == (0,)

    @pytest.mark.parametrize("kind", ["sparse", "overfull", "over_cap"])
    def test_matches_padded_decorate(self, kind):
        raw = pillarize(_scene(kind, 2), SMALL, seed=2)
        got, want = decorate(raw, SMALL), padded_decorate(raw, SMALL)
        mask = np.arange(SMALL.max_points_per_pillar)[None, :] < raw.counts[:, None]
        np.testing.assert_array_equal(got.features, want.features[mask])
        np.testing.assert_array_equal(got.slot_index(), np.flatnonzero(mask))
        assert got.features.dtype == np.float32 and got.max_points == SMALL.max_points_per_pillar


class TestPFN:
    def _eval_weights(self, g, seed=0):
        w = PFNWeights.create(np.random.default_rng(seed))
        w.bn.mode = "eval"
        w.bn.running_mean = np.random.default_rng(1).normal(size=PFN_CHANNELS)
        w.bn.running_var = np.abs(np.random.default_rng(2).normal(size=PFN_CHANNELS)) + 0.5
        return w

    def test_output_shape(self):
        g = SMALL
        cloud = make_cloud([(0.1, 0.1), (0.5, 0.5), (1.1, -0.3)])
        batch = decorate(pillarize(cloud, g), g)
        out = pfn_forward(batch, self._eval_weights(g))
        assert out.shape == (3, PFN_CHANNELS)

    def test_permutation_invariance_bit_exact(self):
        g = SMALL
        cloud = make_cloud([(0.11, 0.11), (0.12, 0.13), (0.09, 0.07)])
        batch = decorate(pillarize(cloud, g), g)
        w = self._eval_weights(g)
        out = pfn_forward(batch, w).data

        perm = np.array([2, 0, 1])
        shuffled = PillarRows(batch.features[perm], batch.coords, batch.counts,
                              batch.starts, batch.max_points)
        out2 = pfn_forward(shuffled, w).data
        np.testing.assert_array_equal(out, out2)

    def _assert_padding_does_not_leak(self, mode):
        """Garbage in the raw batch's empty slots must not change the output."""
        g = SMALL
        raw = pillarize(make_cloud([(0.1, 0.1), (0.9, 0.3)]), g)
        w = self._eval_weights(g)
        w.bn.mode = mode
        out = pfn_forward(decorate(raw, g), w).data
        dirty = PillarBatch(raw.features.copy(), raw.coords, raw.counts)
        dirty.features[:, 1:] = 99.0
        np.testing.assert_array_equal(out, pfn_forward(decorate(dirty, g), w).data)

    def test_padding_does_not_leak(self):
        self._assert_padding_does_not_leak("eval")

    def test_padding_does_not_leak_train_mode(self):
        """Train-mode batch statistics see no empty slot either."""
        self._assert_padding_does_not_leak("train")

    def test_gradient_flows_to_weight(self):
        g = SMALL
        cloud = make_cloud([(0.1, 0.1), (0.7, -0.2)])
        batch = decorate(pillarize(cloud, g), g)
        w = self._eval_weights(g)

        def fn(ts):
            return pfn_forward(batch, PFNWeights(ts[0], w.bn))

        w64 = Tensor(w.weight.data.astype(np.float64), requires_grad=True)
        err = T.grad_check(fn, [w64])
        assert err <= 1e-4


class TestPFNOracle:
    """`pfn_forward` on the kept rows against the padded and the transposed
    [P, S] oracles (`tests/pfn_oracle.py`) on a scene with an overfull
    pillar, a partly filled one, a one-point pillar and a pillar whose first
    two points are the same point."""

    DUP = (1.31, 0.52)

    @classmethod
    def _raw(cls):
        xy = [(0.05, 0.05), (0.11, 0.13), (0.17, 0.02), (0.08, 0.19), (0.12, 0.07),  # overfull
              (0.71, -0.33), (0.75, -0.21), (0.62, -0.38),  # three of four slots
              (2.5, 1.1),  # one point
              cls.DUP, cls.DUP, (1.37, 0.47)]  # a duplicate point first
        pts = np.array([[x, y, -1.0 + 0.1 * i, 0.1 * (i % 5)] for i, (x, y) in enumerate(xy)],
                       dtype=np.float32)
        pts[10, 2:] = pts[9, 2:]
        return pillarize(PointCloud(pts), SMALL, seed=3)

    @staticmethod
    def _weights(mode, dtype, grid=SMALL):
        w = PFNWeights.create(np.random.default_rng(7))
        r = np.random.default_rng(8)
        c = PFN_CHANNELS
        w.weight = Tensor(w.weight.data.astype(dtype), requires_grad=True)
        w.bn = T.BatchNormParams(Tensor(r.uniform(0.5, 1.5, c).astype(dtype), requires_grad=True),
                                 Tensor(r.normal(0.0, 0.3, c).astype(dtype), requires_grad=True),
                                 r.normal(0.0, 0.3, c).astype(dtype),
                                 r.uniform(0.5, 2.0, c).astype(dtype), mode=mode)
        return w

    @classmethod
    def _run(cls, path, mode, dtype, raw=None, grid=SMALL):
        """Output, weight/gamma/beta gradients, upstream gradient and running
        statistics of `pfn_forward` ("rows") or an oracle on the raw batch."""
        raw = cls._raw() if raw is None else raw
        w = cls._weights(mode, dtype, grid)
        if path == "rows":
            out = pfn_forward(decorate(raw, grid), w)
        else:
            forward = {"padded": padded_pfn_forward, "transposed": transposed_pfn_forward}[path]
            out = forward(padded_decorate(raw, grid), w)
        g = np.random.default_rng(9).normal(size=out.shape).astype(dtype)
        out.backward(g)
        grads = (w.weight.grad, w.bn.gamma.grad, w.bn.beta.grad)
        return out.data, grads, g, (w.bn.running_mean, w.bn.running_var)

    @staticmethod
    def _assert_close(got, want, rtol, dtype):
        for name, a, e in zip(("out", "weight", "gamma", "beta"), got, want):
            assert a.shape == e.shape and a.dtype == dtype, name
            err = np.max(np.abs(a - e)) / np.max(np.abs(e))
            assert err <= rtol, f"{name}: relative error {err:.2e} > {rtol:.0e}"

    def test_scene_has_every_pillar_kind(self):
        counts = sorted(self._raw().counts.tolist())
        assert counts == [1, 3, 3, 4]

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_transposed_layout(self, mode, dtype, rtol):
        out, grads, _, _ = self._run("rows", mode, dtype)
        want_out, want_grads, _, _ = self._run("transposed", mode, dtype)
        self._assert_close((out, *grads), (want_out, *want_grads), rtol, dtype)

    @pytest.mark.parametrize("scene", ["small", "desk"])
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_padded_layout(self, mode, dtype, rtol, scene):
        """The float32 forward and running statistics are bit-identical to the
        padded PFN's; the gradients sum fewer zeros and agree to `rtol`."""
        raw, grid = None, SMALL
        if scene == "desk":
            # the desk config's grid with fewer slots, so that pillars overflow
            grid = GridSpec(x_range=(0.0, 20.48), y_range=(-10.24, 10.24),
                            pillar_size=(0.32, 0.32), max_points_per_pillar=16)
            cloud = synth_scene(seed=0, n_boxes=3, x_range=grid.x_range, y_range=grid.y_range).cloud
            raw = pillarize(cloud, grid)
            assert raw.counts.max() == grid.max_points_per_pillar and raw.counts.min() == 1
        out, grads, _, stats = self._run("rows", mode, dtype, raw, grid)
        want_out, want_grads, _, want_stats = self._run("padded", mode, dtype, raw, grid)
        if dtype == np.float32:
            np.testing.assert_array_equal(out, want_out)
        for got, want in zip(stats, want_stats):
            np.testing.assert_array_equal(got, want)
        self._assert_close((out, *grads), (want_out, *want_grads), rtol, dtype)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_duplicate_point_gradient_reaches_lowest_slot(self, monkeypatch, mode):
        """Of two equal rows in a pillar, the max's gradient reaches the first."""
        seen = []
        segment_max = T.segment_max

        def recording(x, *args, **kwargs):
            # only a leaf keeps its gradient: run the max on a leaf copy of x
            leaf = Tensor(x.data, requires_grad=True)
            seen.append(leaf)
            return segment_max(leaf, *args, **kwargs)

        monkeypatch.setattr(T, "segment_max", recording)
        out, _, g, _ = self._run("rows", mode, np.float64)
        batch = decorate(self._raw(), SMALL)
        (h,) = seen
        assert h.shape[0] == batch.counts.sum()  # no row for an empty slot
        f, first = batch.features, batch.starts[batch.counts >= 2]
        r = int(first[np.all(f[first] == f[first + 1], axis=1)][0])
        dup = int(np.flatnonzero(batch.starts == r)[0])
        np.testing.assert_array_equal(h.data[r], h.data[r + 1])
        np.testing.assert_array_equal(h.grad[r + 1], 0.0)
        np.testing.assert_array_equal(h.grad[r : r + batch.counts[dup]].sum(axis=0), g[dup])
        ties = h.data[r] == out[dup]
        assert ties.any()
        np.testing.assert_array_equal(h.grad[r, ties], g[dup, ties])


class TestScatter:
    def test_values_land_at_coords(self):
        g = SMALL
        feats = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        coords = np.array([[0, 0], [3, 5], [15, 15]])
        small = GridSpec(
            x_range=(0.0, 3.2),
            y_range=(-1.6, 1.6),
            pillar_size=(0.2, 0.2),
        )
        img = scatter_to_pseudo_image(feats, coords, small)
        assert img.shape == (1, 4, 16, 16)
        for i, (r, c) in enumerate(coords):
            np.testing.assert_array_equal(img.data[0, :, r, c], feats.data[i])
        assert np.count_nonzero(img.data[0, 0]) <= 3

    def test_duplicate_coords_rejected(self):
        feats = Tensor(np.ones((2, 64), np.float32))
        coords = np.array([[1, 1], [1, 1]])
        with pytest.raises(InvariantViolation):
            scatter_to_pseudo_image(feats, coords, SMALL)

    def test_backward_gathers(self):
        g = SMALL
        feats = Tensor(np.ones((2, 64), np.float32), requires_grad=True)
        coords = np.array([[2, 3], [7, 1]])
        img = scatter_to_pseudo_image(feats, coords, g)
        grad = np.random.default_rng(0).normal(size=img.shape).astype(np.float32)
        img.backward(grad)
        for i, (r, c) in enumerate(coords):
            np.testing.assert_array_equal(feats.grad[i], grad[0, :, r, c])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_scatter_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.integers(1, 10)
        cells = rng.choice(16 * 16, size=p, replace=False)
        coords = np.stack([cells // 16, cells % 16], axis=1)
        feats = Tensor(rng.normal(size=(p, 4)).astype(np.float32))
        small = GridSpec(
            x_range=(0.0, 3.2),
            y_range=(-1.6, 1.6),
            pillar_size=(0.2, 0.2),
        )
        img = scatter_to_pseudo_image(feats, coords, small).data
        back = img[0][:, coords[:, 0], coords[:, 1]].T
        np.testing.assert_array_equal(back, feats.data)
        assert np.abs(img).sum() == pytest.approx(np.abs(feats.data).sum(), rel=1e-6)
