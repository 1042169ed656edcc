import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from densepillars import tensor as T
from densepillars.encoder import scatter_to_pseudo_image
from densepillars.optim import OptimizerState, adamw_step
from densepillars.tensor import ConfigurationError, Tensor, grad_check
from pfn_oracle import max_over_axis, relu

rng = np.random.default_rng(12345)


def rand_t(*shape, dtype=np.float64):
    return Tensor(rng.normal(0.0, 1.0, size=shape).astype(dtype), requires_grad=True)


class TestConv2d:
    def test_identity_1x1(self):
        c = 3
        w = np.zeros((c, c, 1, 1), dtype=np.float32)
        for i in range(c):
            w[i, i, 0, 0] = 1.0
        x = Tensor(rng.normal(size=(1, c, 4, 5)).astype(np.float32))
        out = T.conv2d(x, T.Conv2dParams(Tensor(w)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_field_all_ones(self):
        c_in, val = 2, 1.5
        w = np.ones((1, c_in, 3, 3), dtype=np.float32)
        x = Tensor(np.full((1, c_in, 5, 5), val, dtype=np.float32))
        out = T.conv2d(x, T.Conv2dParams(Tensor(w), padding=1))
        assert out.data[0, 0, 2, 2] == pytest.approx(9 * val * c_in)

    def test_gradcheck(self):
        x = rand_t(1, 2, 5, 5)
        w = rand_t(3, 2, 3, 3)
        b = rand_t(3)
        err = grad_check(
            lambda v: T.conv2d(v[0], T.Conv2dParams(v[1], v[2], stride=1, padding=1)),
            [x, w, b],
        )
        assert err <= 1e-5

    def test_gradcheck_stride2(self):
        err = grad_check(
            lambda v: T.conv2d(v[0], T.Conv2dParams(v[1], None, stride=2, padding=1)),
            [rand_t(1, 2, 6, 6), rand_t(3, 2, 3, 3)],
        )
        assert err <= 1e-5

    def test_channel_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            T.conv2d(rand_t(1, 3, 5, 5), T.Conv2dParams(rand_t(2, 2, 3, 3)))

    def test_nonpositive_output_raises(self):
        with pytest.raises(ConfigurationError):
            T.conv2d(rand_t(1, 2, 2, 2), T.Conv2dParams(rand_t(2, 2, 3, 3)))

    @given(
        h=st.integers(3, 40),
        k=st.sampled_from([1, 3]),
        s=st.sampled_from([1, 2]),
        p=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_output_shape_formula(self, h, k, s, p):
        expected = (h + 2 * p - k) // s + 1
        if expected < 1:
            return
        x = Tensor(np.zeros((1, 1, h, h), dtype=np.float32))
        out = T.conv2d(x, T.Conv2dParams(Tensor(np.zeros((1, 1, k, k), dtype=np.float32)),
                                         stride=s, padding=p))
        assert out.shape == (1, 1, expected, expected)

    def test_linearity(self):
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        p = T.Conv2dParams(w, padding=1)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        y = Tensor(rng.normal(size=(1, 2, 6, 6)))
        a, b = 0.7, -1.3
        combo = Tensor(a * x.data + b * y.data)
        lhs = T.conv2d(combo, p).data
        rhs = a * T.conv2d(x, p).data + b * T.conv2d(y, p).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


class TestConvTranspose2d:
    def test_stride1_identity(self):
        w = np.zeros((2, 2, 1, 1), dtype=np.float32)
        w[0, 0] = w[1, 1] = 1.0
        x = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        out = T.conv_transpose2d(x, Tensor(w), stride=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_stride2_impulse(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        x[0, 0, 1, 2] = 5.0
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = T.conv_transpose2d(Tensor(x), Tensor(w), stride=2)
        assert out.shape == (1, 1, 6, 6)
        np.testing.assert_array_equal(out.data[0, 0, 2:4, 4:6], np.full((2, 2), 5.0))
        assert out.data.sum() == pytest.approx(20.0)

    def test_kernel_not_stride_raises(self):
        with pytest.raises(ConfigurationError):
            T.conv_transpose2d(rand_t(1, 1, 3, 3), rand_t(1, 1, 3, 3), stride=2)

    def test_gradcheck(self):
        err = grad_check(
            lambda v: T.conv_transpose2d(v[0], v[1], stride=2),
            [rand_t(1, 2, 4, 4), rand_t(2, 3, 2, 2)],
        )
        assert err <= 1e-5

    def test_adjoint_of_strided_conv(self):
        # <conv(x), y> == <x, conv_transpose(y)> for kernel == stride
        x = rng.normal(size=(1, 2, 6, 6))
        y = rng.normal(size=(1, 3, 3, 3))
        w = rng.normal(size=(3, 2, 2, 2))  # conv weight [C_out, C_in, k, k]
        cx = T.conv2d(Tensor(x), T.Conv2dParams(Tensor(w), stride=2)).data
        # conv_transpose weight layout is [C_in, C_out, k, k] == same array
        ty = T.conv_transpose2d(Tensor(y), Tensor(w), stride=2).data
        assert np.sum(cx * y) == pytest.approx(np.sum(x * ty), rel=1e-10)


class TestBatchNorm:
    def test_constant_input_zeros(self):
        p = T.BatchNormParams.create(3)
        x = Tensor(np.full((2, 3, 4, 4), 7.0, dtype=np.float32))
        out = T.batch_norm(x, p)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_train_moments(self):
        p = T.BatchNormParams.create(2, dtype=np.float64, eps=1e-12)
        p.gamma.data = np.array([1.5, 0.5])
        p.beta.data = np.array([-1.0, 2.0])
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 2, 8, 8)))
        out = T.batch_norm(x, p).data
        for c in range(2):
            assert out[:, c].mean() == pytest.approx(p.beta.data[c], abs=1e-6)
            assert out[:, c].var() == pytest.approx(p.gamma.data[c] ** 2, abs=1e-6)

    def test_eval_closed_form(self):
        p = T.BatchNormParams.create(1, dtype=np.float64)
        p.mode = "eval"
        p.gamma.data = np.array([2.0])
        p.beta.data = np.array([0.5])
        p.running_mean = np.array([1.0])
        p.running_var = np.array([4.0])
        x = Tensor(np.array([3.0, -1.0]).reshape(1, 1, 1, 2))
        out = T.batch_norm(x, p).data.reshape(-1)
        expect = 2.0 * (np.array([3.0, -1.0]) - 1.0) / np.sqrt(4.0 + p.eps) + 0.5
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_degenerate_batch_raises(self):
        p = T.BatchNormParams.create(1)
        with pytest.raises(ConfigurationError):
            T.batch_norm(Tensor(np.ones((1, 1, 1, 1), dtype=np.float32)), p)

    def test_gradcheck_train(self):
        def f(v):
            p = T.BatchNormParams.create(2, dtype=np.float64)
            p.gamma = v[1]
            p.beta = v[2]
            return T.batch_norm(v[0], p)

        err = grad_check(f, [rand_t(2, 2, 3, 3), rand_t(2), rand_t(2)])
        assert err <= 1e-5


class TestSimpleOps:
    def test_relu_examples(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(Tensor(np.array([-3.0, -0.1]))).data, [0.0, 0.0])

    def test_relu_gradcheck_away_from_zero(self):
        x = Tensor(np.array([1.2, -0.8, 2.5, -3.0]))
        err = grad_check(lambda v: relu(v[0]), [x])
        assert err <= 1e-6

    def test_avg_pool_examples(self):
        c = Tensor(np.full((1, 1, 4, 4), 3.25, dtype=np.float32))
        np.testing.assert_allclose(T.avg_pool2x2(c).data, 3.25)
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert T.avg_pool2x2(x).data.item() == pytest.approx(2.5)

    def test_avg_pool_odd_raises(self):
        with pytest.raises(ConfigurationError):
            T.avg_pool2x2(rand_t(1, 1, 3, 4))

    def test_avg_pool_gradcheck(self):
        err = grad_check(lambda v: T.avg_pool2x2(v[0]), [rand_t(1, 2, 4, 4)])
        assert err <= 1e-6

    def test_concat_examples(self):
        a = rand_t(1, 2, 3, 3)
        b = rand_t(1, 3, 3, 3)
        single = T.channel_concat([a])
        np.testing.assert_array_equal(single.data, a.data)
        cat = T.channel_concat([a, b])
        assert cat.shape[1] == 5
        np.testing.assert_array_equal(cat.data[:, :2], a.data)
        np.testing.assert_array_equal(cat.data[:, 2:], b.data)

    def test_concat_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            T.channel_concat([rand_t(1, 2, 3, 3), rand_t(1, 2, 4, 3)])

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_concat_slice_recovers_inputs(self, channels):
        parts = [Tensor(rng.normal(size=(1, c, 2, 2)).astype(np.float32)) for c in channels]
        cat = T.channel_concat(parts).data
        at = 0
        for p in parts:
            c = p.shape[1]
            np.testing.assert_array_equal(cat[:, at : at + c], p.data)
            at += c

    def test_linear_examples(self):
        x = rand_t(3, 4)
        np.testing.assert_array_equal(T.linear_map(x, Tensor(np.eye(4))).data, x.data)
        out = T.linear_map(x, Tensor(np.zeros((4, 2)))).data
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_linear_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            T.linear_map(rand_t(3, 4), rand_t(5, 2))

    def test_linear_gradcheck(self):
        err = grad_check(lambda v: T.linear_map(v[0], v[1]), [rand_t(4, 5), rand_t(5, 3)])
        assert err <= 1e-7

    def test_max_over_axis_examples(self):
        out = max_over_axis(Tensor(np.array([[1.0, 5.0, 3.0]])), axis=1)
        assert out.data.item() == 5.0

    def test_max_fully_masked_is_zero(self):
        x = Tensor(np.array([[1.0, 5.0], [2.0, 4.0]]))
        mask = np.array([[True, True], [False, False]])
        out = max_over_axis(x, axis=1, mask=mask)
        np.testing.assert_array_equal(out.data, [5.0, 0.0])

    def test_max_gradient_one_hot(self):
        x = Tensor(np.array([[1.0, 5.0, 3.0]]), requires_grad=True)
        out = max_over_axis(x, axis=1)
        out.backward(np.array([2.0]))
        np.testing.assert_array_equal(x.grad, [[0.0, 2.0, 0.0]])
        err = grad_check(
            lambda v: max_over_axis(v[0], 1),
            [Tensor(np.array([[0.3, 2.0, -1.0], [4.0, 1.0, 0.0]]))],
        )
        assert err <= 1e-6

    def test_max_tie_lowest_index(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        out = max_over_axis(x, axis=1)
        out.backward(np.array([1.0]))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])

    def test_max_gradient_skips_masked_slot_equal_to_max(self):
        x = Tensor(np.array([[7.0, 3.0, 7.0], [9.0, 9.0, 1.0]]), requires_grad=True)
        mask = np.array([[False, True, True], [False, False, False]])
        out = max_over_axis(x, axis=1, mask=mask)
        np.testing.assert_array_equal(out.data, [7.0, 0.0])
        out.backward(np.array([2.0, 5.0]))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])


class TestSegmentMax:
    """`segment_max` against `max_over_axis` on the same groups laid out as
    padded slots, and its own edge cases."""

    def test_examples(self):
        x = Tensor(np.array([[1.0, -4.0], [5.0, -2.0], [3.0, -3.0], [-1.0, 7.0]]))
        np.testing.assert_array_equal(T.segment_max(x, [0, 3]).data, [[5.0, -2.0], [-1.0, 7.0]])

    def test_gradient_reaches_first_row_equal_to_max(self):
        x = Tensor(np.array([[2.0], [9.0], [2.0], [4.0], [4.0], [9.0]]), requires_grad=True)
        out = T.segment_max(x, [0, 3])  # the 9.0 of the second group is not the first's max
        np.testing.assert_array_equal(out.data, [[9.0], [9.0]])
        out.backward(np.array([[2.0], [5.0]]))
        np.testing.assert_array_equal(x.grad, [[0.0], [2.0], [0.0], [0.0], [0.0], [5.0]])
        x.grad = None
        T.segment_max(x, [0, 1, 3]).backward(np.array([[1.0], [3.0], [6.0]]))
        np.testing.assert_array_equal(x.grad, [[1.0], [3.0], [0.0], [0.0], [0.0], [6.0]])

    def test_tie_goes_to_lowest_row(self):
        x = Tensor(np.array([[1.0, 3.0], [1.0, 3.0], [0.0, 3.0]]), requires_grad=True)
        T.segment_max(x, [0]).backward(np.array([[4.0, 5.0]]))
        np.testing.assert_array_equal(x.grad, [[4.0, 5.0], [0.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("starts", [[], [1, 2], [0, 2, 2], [0, 5]])
    def test_rejects_groups_that_do_not_split_the_rows(self, starts):
        with pytest.raises(ConfigurationError):
            T.segment_max(rand_t(4, 2), starts)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.integers(0, 10_000))
    def test_matches_masked_max_over_padded_slots(self, counts, seed):
        r = np.random.default_rng(seed)
        counts = np.array(counts)
        rows = r.integers(-3, 4, size=(counts.sum(), 3)).astype(np.float64)  # ties
        starts = np.cumsum(counts) - counts
        mask = np.arange(5)[None, :] < counts[:, None]
        padded = np.full((counts.shape[0], 5, 3), 99.0)
        padded[mask] = rows
        g = r.normal(size=(counts.shape[0], 3))
        x, xp = Tensor(rows, requires_grad=True), Tensor(padded, requires_grad=True)
        out = T.segment_max(x, starts)
        want = max_over_axis(xp, axis=1, mask=mask[:, :, None])
        np.testing.assert_array_equal(out.data, want.data)
        out.backward(g)
        want.backward(g)
        np.testing.assert_array_equal(x.grad, xp.grad[mask])


def reference_conv2d(x, weight, bias, stride, pad, g):
    """Sliding-window/tensordot conv2d, the engine's earlier kernel, kept as
    the oracle: output, dW, db and dx (k*k tensordot loop) for upstream g."""
    n, c_in, h, w = x.shape
    k = weight.shape[2]
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.tensordot(win, weight, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias[None, :, None, None]
    dw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
    db = None if bias is None else g.sum(axis=(0, 2, 3))
    dxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            piece = np.tensordot(g, weight[:, :, i, j], axes=([1], [0]))
            dxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                piece.transpose(0, 3, 1, 2)
            )
    return out, dw, db, dxp[:, :, pad : pad + h, pad : pad + w]


def _conv_against_reference(n, c_in, c_out, h, w, k, stride, pad, with_bias, dtype, rtol):
    r = np.random.default_rng([n, c_in, c_out, h, k, stride, pad])
    x = Tensor(r.normal(size=(n, c_in, h, w)).astype(dtype), requires_grad=True)
    wt = Tensor(r.normal(size=(c_out, c_in, k, k)).astype(dtype), requires_grad=True)
    b = Tensor(r.normal(size=c_out).astype(dtype), requires_grad=True) if with_bias else None
    out = T.conv2d(x, T.Conv2dParams(wt, b, stride, pad))
    g = r.normal(size=out.shape).astype(dtype)
    out.backward(g)
    want = reference_conv2d(x.data, wt.data, None if b is None else b.data, stride, pad, g)
    got = (out.data, wt.grad, None if b is None else b.grad, x.grad)
    for name, a, e in zip(("out", "dW", "db", "dx"), got, want):
        if e is None:
            continue
        assert a.shape == e.shape and a.dtype == dtype, name
        err = np.max(np.abs(a - e)) / np.max(np.abs(e))
        assert err <= rtol, f"{name}: relative error {err:.2e} > {rtol:.0e}"


DTYPE_RTOL = [(np.float64, 1e-12), (np.float32, 1e-5)]


class TestConv2dOracle:
    @pytest.mark.parametrize("dtype,rtol", DTYPE_RTOL)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_grid(self, k, stride, pad, n, dtype, rtol):
        _conv_against_reference(n, 3, 4, 7, 6, k, stride, pad, True, dtype, rtol)

    @pytest.mark.parametrize("dtype,rtol", DTYPE_RTOL)
    def test_head_1x1_with_bias(self, dtype, rtol):
        _conv_against_reference(1, 384, 18, 6, 5, 1, 1, 0, True, dtype, rtol)

    @pytest.mark.parametrize("dtype,rtol", DTYPE_RTOL)
    def test_baseline_stride2_entry(self, dtype, rtol):
        _conv_against_reference(1, 64, 64, 12, 10, 3, 2, 1, False, dtype, rtol)


class TestConv2dRowTiles:
    """Several row tiles and a ragged last one: the tile budget is shrunk to
    `rows` output rows so that small images still split."""

    @pytest.mark.parametrize("dtype,rtol", DTYPE_RTOL)
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_grid(self, monkeypatch, k, stride, pad, rows, dtype, rtol):
        n, c_in, h, w = 2, 3, 11, 6
        w_out = (w + 2 * pad - k) // stride + 1
        row_bytes = n * c_in * k * k * w_out * np.dtype(dtype).itemsize
        monkeypatch.setattr(T, "_TILE_BYTES", rows * row_bytes)
        _conv_against_reference(n, c_in, 4, h, w, k, stride, pad, True, dtype, rtol)


def _pillars(h, w, occupancy, seed, border):
    """Pillar cells of an h x w grid, each cell occupied with probability
    `occupancy`, every border cell too with `border`; in shuffled order."""
    r = np.random.default_rng(seed)
    occ = r.uniform(size=(h, w)) < occupancy
    if border:
        occ[[0, -1], :] = True
        occ[:, [0, -1]] = True
    coords = np.argwhere(occ)
    return coords[r.permutation(len(coords))]


def _sparse_against_dense(coords, h, w, k, stride, pad, dtype, rtol, seed=0):
    """`sparse_conv2d` against `conv2d` of `scatter_to_pseudo_image`: out,
    dF and dW for the same upstream gradient."""
    r = np.random.default_rng(seed)
    c_in, c_out = 3, 4
    f = Tensor(r.normal(size=(len(coords), c_in)).astype(dtype), requires_grad=True)
    wt = Tensor(r.normal(size=(c_out, c_in, k, k)).astype(dtype), requires_grad=True)
    p = T.Conv2dParams(wt, None, stride, pad)
    out = T.sparse_conv2d(f, coords, (h, w), p)
    g = r.normal(size=out.shape).astype(dtype)
    out.backward(g)
    got = [out.data, f.grad, wt.grad]
    f.zero_grad()
    wt.zero_grad()
    want = T.conv2d(scatter_to_pseudo_image(f, coords, SimpleNamespace(height=h, width=w)), p)
    want.backward(g)
    for name, a, e in zip(("out", "dF", "dW"), got, [want.data, f.grad, wt.grad]):
        assert a.shape == e.shape and a.dtype == dtype, name
        err = np.max(np.abs(a - e), initial=0.0)
        assert err <= rtol * np.max(np.abs(e), initial=0.0), f"{name}: error {err:.2e}"
    return out


SPARSE_CASES = [(3, 1, 1), (3, 2, 1), (1, 1, 0)]  # (k, stride, pad) of the backbones


class TestSparseConv2dOracle:
    @pytest.mark.parametrize("dtype,rtol", DTYPE_RTOL)
    @pytest.mark.parametrize("h,w", [(8, 8), (7, 10)])
    @pytest.mark.parametrize("k,stride,pad", SPARSE_CASES)
    def test_border_pillars(self, k, stride, pad, h, w, dtype, rtol):
        """Every border cell holds a pillar, at odd and even coordinates."""
        coords = _pillars(h, w, 0.3, seed=h * w, border=True)
        _sparse_against_dense(coords, h, w, k, stride, pad, dtype, rtol)

    @pytest.mark.parametrize("k,stride,pad", SPARSE_CASES)
    def test_no_pillars(self, k, stride, pad):
        coords = np.zeros((0, 2), dtype=np.int64)
        out = _sparse_against_dense(coords, 6, 6, k, stride, pad, np.float64, 0.0)
        assert not out.data.any()

    @settings(max_examples=30, deadline=None)
    @given(occupancy=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
           case=st.sampled_from(SPARSE_CASES), h=st.integers(1, 9), w=st.integers(1, 9))
    def test_random_occupancy(self, occupancy, seed, case, h, w):
        k, stride, pad = case
        if (h + 2 * pad - k) < 0 or (w + 2 * pad - k) < 0:
            return
        coords = _pillars(h, w, occupancy, seed, border=False)
        _sparse_against_dense(coords, h, w, k, stride, pad, np.float64, 1e-12, seed)

    def test_adds_onto(self):
        """`onto` receives the conv in place and the output's gradient."""
        coords = _pillars(6, 6, 0.5, seed=1, border=True)
        f = rand_t(len(coords), 3)
        p = T.Conv2dParams(rand_t(4, 3, 1, 1))
        base = rand_t(1, 4, 6, 6)
        onto = T.scale(base, 1.0)
        alone = T.sparse_conv2d(f, coords, (6, 6), p).data
        out = T.sparse_conv2d(f, coords, (6, 6), p, onto=onto)
        np.testing.assert_allclose(out.data, base.data + alone, rtol=1e-13)
        g = rng.normal(size=out.shape)
        out.backward(g)
        np.testing.assert_array_equal(base.grad, g)

    def test_duplicate_coordinates_raise(self):
        coords = np.array([[0, 1], [2, 2], [0, 1]])
        with pytest.raises(T.InvariantViolation, match="duplicate"):
            T.sparse_conv2d(rand_t(3, 2), coords, (4, 4), T.Conv2dParams(rand_t(2, 2, 3, 3)))

    @pytest.mark.parametrize("cell", [[4, 0], [0, 4], [-1, 0]])
    def test_coordinates_outside_the_grid_raise(self, cell):
        coords = np.array([[1, 1], cell])
        with pytest.raises(ConfigurationError, match="outside the grid"):
            T.sparse_conv2d(rand_t(2, 2), coords, (4, 4), T.Conv2dParams(rand_t(2, 2, 1, 1)))

    def test_channel_slice_backward_zero_pads(self):
        w = rand_t(3, 5, 1, 1)
        part = T.channel_slice(w, 1, 4)
        np.testing.assert_array_equal(part.data, w.data[:, 1:4])
        g = rng.normal(size=part.shape)
        part.backward(g)
        want = np.zeros(w.shape)
        want[:, 1:4] = g
        np.testing.assert_array_equal(w.grad, want)


def mean_pool(x):
    """`avg_pool2x2` as a mean over the 2x2 window axes, kept as the oracle."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


class TestAvgPoolOracle:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-15), (np.float32, 1e-6)])
    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 6, 4), (1, 5, 8, 14)])
    def test_matches_mean_form(self, shape, dtype, atol):
        x = np.random.default_rng(list(shape)).normal(size=shape).astype(dtype)
        out = T.avg_pool2x2(Tensor(x)).data
        assert out.dtype == dtype
        np.testing.assert_allclose(out, mean_pool(x), rtol=0, atol=atol)

    def test_gradcheck_weighted_batch_of_rectangles(self):
        weights = Tensor(rng.normal(size=(36, 1)))  # the pooled [2, 3, 2, 3] map

        def f(v):
            pooled = T.reshape(T.avg_pool2x2(v[0]), (1, 36))
            return T.reshape(T.linear_map(pooled, weights), (1,))

        assert grad_check(f, [rand_t(2, 3, 4, 6)]) <= 1e-6


class TestNoGrad:
    def _ops(self, x):
        bn = T.BatchNormParams.create(2, dtype=np.float64)
        bn.mode = "eval"
        w = rand_t(3, 2, 3, 3)
        return [
            T.conv2d(x, T.Conv2dParams(w, rand_t(3), 1, 1)),
            T.batch_norm(x, bn),
            relu(x),
            T.segment_max(x, [0]),
            T.add(x, x),
        ]

    def test_results_carry_no_graph(self):
        x = rand_t(1, 2, 4, 4)
        with T.no_grad():
            outs = self._ops(x)
        for out in outs:
            assert out._parents == () and out._backward is None
            assert not out.requires_grad
        for out in self._ops(x):
            assert out._parents and out._backward is not None

    def test_restored_after_exception(self):
        with pytest.raises(ConfigurationError):
            with T.no_grad():
                T.add(rand_t(2), rand_t(3))
        assert relu(rand_t(2))._backward is not None

    def test_restored_after_nesting(self):
        with T.no_grad():
            with T.no_grad():
                pass
            assert relu(rand_t(2))._backward is None
        assert relu(rand_t(2))._backward is not None


class TestGradCheck:
    """`grad_check` of a non-scalar output checks the sum of its entries."""

    def test_catches_a_dropped_entry_gradient(self):
        def drop_last(x):  # identity whose backward loses the last entry's gradient
            def backward(g):
                g = np.array(g)
                g.reshape(-1)[-1] = 0.0
                return (g,)

            return T.make(x.data.copy(), (x,), backward)

        assert grad_check(lambda v: drop_last(v[0]), [rand_t(2, 3)]) > 0.5

    def test_non_scalar_equals_explicit_sum(self):
        def explicit_sum(x):
            def backward(g):
                return (np.broadcast_to(g, x.shape),)

            return T.make(np.sum(x.data).reshape(1), (x,), backward)

        def conv(v):
            return T.conv2d(v[0], T.Conv2dParams(v[1], v[2], 1, 1))

        inputs = [rand_t(1, 2, 5, 5), rand_t(3, 2, 3, 3), rand_t(3)]
        err = grad_check(conv, inputs)
        assert err <= 1e-5
        assert abs(err - grad_check(lambda v: explicit_sum(conv(v)), inputs)) <= 1e-12


class TestInvariants:
    def test_composed_conv_bn_relu_gradcheck(self):
        def f(v):
            p = T.BatchNormParams.create(3, dtype=np.float64)
            p.gamma = v[2]
            p.beta = v[3]
            h = T.conv2d(v[0], T.Conv2dParams(v[1], None, 1, 1))
            return relu(T.batch_norm(h, p))

        err = grad_check(
            f,
            [rand_t(1, 2, 4, 4), rand_t(3, 2, 3, 3),
             Tensor(rng.uniform(0.5, 1.5, 3)), rand_t(3)],
        )
        assert err <= 1e-4

    def test_gradcheck_ten_random_points_conv(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            x = Tensor(r.normal(size=(1, 2, 4, 4)))
            w = Tensor(r.normal(size=(2, 2, 3, 3)))
            err = grad_check(
                lambda v: T.conv2d(v[0], T.Conv2dParams(v[1], None, 1, 1)), [x, w]
            )
            assert err <= 1e-5

    def test_overflow_in_an_op_fails_the_suite(self):
        # pyproject.toml turns RuntimeWarnings raised in the package into errors
        with pytest.raises(RuntimeWarning):
            T.scale(Tensor([1e308]), 1e308)
        p = Tensor(np.ones(2))
        p.grad = np.full(2, 1e200)
        with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
            adamw_step({"p": p}, OptimizerState())


def reference_batch_norm(x: Tensor, p: T.BatchNormParams) -> Tensor:
    """The engine's earlier batch norm, kept as the oracle: backward rebuilds
    x_hat and takes the textbook multi-pass train-mode gradient."""
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    if p.mode == "train":
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        p.running_mean += p.momentum * (mean.astype(p.running_mean.dtype) - p.running_mean)
        p.running_var += p.momentum * (var.astype(p.running_var.dtype) - p.running_var)
    else:
        mean = p.running_mean.astype(x.dtype)
        var = p.running_var.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + np.asarray(p.eps, dtype=x.dtype))
    a = p.gamma.data * inv_std
    out = x.data * a[None, :, None, None]
    out += (p.beta.data - mean * a)[None, :, None, None]

    def x_hat():
        return (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]

    def backward(g):
        xh = x_hat()
        dgamma, dbeta = (g * xh).sum(axis=axes), g.sum(axis=axes)
        if p.mode == "eval":
            return g * a[None, :, None, None], dgamma, dbeta
        gy = g * p.gamma.data[None, :, None, None]
        mean_gy = gy.mean(axis=axes)[None, :, None, None]
        mean_gy_xhat = (gy * xh).mean(axis=axes)[None, :, None, None]
        dx = (gy - mean_gy - xh * mean_gy_xhat) * inv_std[None, :, None, None]
        return dx, dgamma, dbeta

    return T.make(out, (x, p.gamma, p.beta), backward)


class TestBatchNormOracle:
    """`batch_norm(relu=...)` against `relu(reference_batch_norm(.))`: the
    forward and the running statistics bit for bit, the gradients of x,
    gamma and beta to the conv oracle's relative tolerances."""

    @staticmethod
    def _inputs(shape, mode, dtype):
        r = np.random.default_rng([*shape, mode == "train", np.dtype(dtype).itemsize])
        x = r.normal(0.4, 1.3, size=shape).astype(dtype)
        c = shape[1]
        params = (r.uniform(0.5, 1.5, c).astype(dtype), r.normal(0.0, 0.5, c).astype(dtype),
                  r.normal(0.0, 0.3, c).astype(dtype), r.uniform(0.5, 2.0, c).astype(dtype))
        return x, params, r.normal(size=shape).astype(dtype)

    @staticmethod
    def _run(op, x, params, g, mode):
        gamma, beta, mean, var = params
        p = T.BatchNormParams(Tensor(gamma.copy(), requires_grad=True),
                              Tensor(beta.copy(), requires_grad=True),
                              mean.copy(), var.copy(), mode=mode)
        xt = Tensor(x.copy(), requires_grad=True)
        out = op(xt, p)
        out.backward(g)
        return out.data, (p.running_mean, p.running_var), (xt.grad, p.gamma.grad, p.beta.grad)

    @pytest.mark.parametrize("dtype,rtol", DTYPE_RTOL)
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 4), (7 * 4, 6, 1, 1)])  # NCHW and PFN [P*S, C]
    @pytest.mark.parametrize("clamp", [True, False])
    def test_matches_reference(self, clamp, shape, mode, dtype, rtol):
        x, params, g = self._inputs(shape, mode, dtype)
        fused = self._run(lambda t, p: T.batch_norm(t, p, relu=clamp), x, params, g, mode)
        ref = self._run(lambda t, p: relu(reference_batch_norm(t, p)) if clamp
                        else reference_batch_norm(t, p), x, params, g, mode)
        np.testing.assert_array_equal(fused[0], ref[0])
        assert fused[0].dtype == dtype
        for got, want in zip(fused[1], ref[1]):
            np.testing.assert_array_equal(got, want)
        for name, got, want in zip(("dx", "dgamma", "dbeta"), fused[2], ref[2]):
            assert got.shape == want.shape and got.dtype == dtype, name
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= rtol, f"{name}: relative error {err:.2e} > {rtol:.0e}"

    def test_relu_gradient_stops_at_clamped_outputs(self):
        x = Tensor(np.array([-2.0, -1.0, 1.0, 2.0]).reshape(1, 1, 2, 2), requires_grad=True)
        p = T.BatchNormParams.create(1, dtype=np.float64)
        p.mode = "eval"
        out = T.batch_norm(x, p, relu=True)
        np.testing.assert_array_equal(out.data > 0, [[[[False, False], [True, True]]]])
        out.backward(np.ones((1, 1, 2, 2)))
        a = 1.0 / np.sqrt(1.0 + p.eps)
        np.testing.assert_array_equal(x.grad, np.array([0.0, 0.0, a, a]).reshape(1, 1, 2, 2))
        assert p.beta.grad[0] == 2.0

    @pytest.mark.parametrize("dtype,rtol", DTYPE_RTOL)
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_padded_rows_match_the_zero_padded_batch(self, mode, dtype, rtol):
        """`padded=(total, at)` on the rows against the same rows placed among
        zero rows: the forward and running statistics bit for bit, and the
        gradients when the zero rows' outputs get no gradient (as under the
        PFN's max)."""
        total, c = 40, 6
        at = np.sort(np.random.default_rng(3).choice(total, size=9, replace=False))
        x, params, g = self._inputs((total, c, 1, 1), mode, dtype)
        zero_rows = np.ones(total, dtype=bool)
        zero_rows[at] = False
        x[zero_rows] = 0.0
        g[zero_rows] = 0.0
        rows = self._run(lambda t, p: T.batch_norm(t, p, relu=True, padded=(total, at)),
                         x[at], params, g[at], mode)
        full = self._run(lambda t, p: T.batch_norm(t, p, relu=True), x, params, g, mode)
        np.testing.assert_array_equal(rows[0], full[0][at])
        for got, want in zip(rows[1], full[1]):
            np.testing.assert_array_equal(got, want)
        for name, got, want in zip(("dx", "dgamma", "dbeta"), rows[2], (full[2][0][at], *full[2][1:])):
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= rtol, f"{name}: relative error {err:.2e} > {rtol:.0e}"

    def test_padded_rows_need_one_index_each(self):
        p = T.BatchNormParams.create(2)
        x = Tensor(np.ones((3, 2, 1, 1), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            T.batch_norm(x, p, padded=(8, np.array([0, 4])))


class TestAccumulate:
    """`Tensor.backward` sums the gradients ops return: a leaf stores its
    own copy, an intermediate tensor and a constant store none."""

    def test_same_tensor_twice_sums(self):
        x = rand_t(2, 3)
        g = rng.normal(size=(2, 3))
        T.add(x, x).backward(g)
        np.testing.assert_array_equal(x.grad, 2 * g)

    def test_two_parents_get_separate_buffers(self):
        x, y = rand_t(2, 3), rand_t(2, 3)
        g = rng.normal(size=(2, 3))
        T.add(x, y).backward(g)
        assert x.grad is not y.grad
        x.grad += 1.0
        np.testing.assert_array_equal(y.grad, g)

    def test_shared_gradient_is_not_summed_into(self):
        # the inner add hands one array to u and v: summed into it in place,
        # u's second gradient would reach v too (or raise on the read-only seed)
        x, y = rand_t(2, 3), rand_t(2, 3)
        g = rng.normal(size=(2, 3))
        u, v = T.scale(x, 2.0), T.scale(y, 3.0)
        T.add(T.add(u, v), u).backward(g)
        np.testing.assert_array_equal(x.grad, 4 * g)
        np.testing.assert_array_equal(y.grad, 3 * g)

    def test_only_leaves_keep_a_gradient(self):
        x = rand_t(2, 3)
        mid = T.scale(x, 2.0)
        T.scale(mid, 3.0).backward(np.ones((2, 3)))
        assert mid.grad is None
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 6.0))

    def test_constant_parent_gets_no_gradient(self):
        def const(*shape):
            return Tensor(rng.normal(size=shape))

        x, w = const(1, 2, 5, 5), rand_t(3, 2, 3, 3)
        T.conv2d(x, T.Conv2dParams(w, None, 1, 1)).backward(np.ones((1, 3, 5, 5)))
        assert x.grad is None and w.grad is not None

        a, b = const(2, 3), rand_t(2, 3)
        T.add(a, b).backward(np.ones((2, 3)))
        assert a.grad is None and b.grad is not None

        f, lw = const(4, 3), rand_t(3, 2)
        out = T.linear_map(f, lw)
        assert out._backward(np.ones((4, 2)))[0] is None  # not even computed
        out.backward(np.ones((4, 2)))
        assert f.grad is None and lw.grad is not None

    def test_graph_freed_without_the_cycle_collector(self):
        x = rand_t(2, 3)
        out = relu(T.scale(x, 2.0))
        mid = weakref.ref(out._parents[0].data)
        gc.disable()
        try:
            out.backward(np.ones((2, 3)))
            del out
            assert mid() is None
        finally:
            gc.enable()

    def test_scalar_seed_broadcasts(self):
        x = rand_t(1)
        T.scale(x, 3.0).backward(np.array(0.5))
        assert x.grad.shape == (1,) and x.grad[0] == 1.5
