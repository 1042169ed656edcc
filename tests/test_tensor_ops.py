import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from densepillars import tensor as T
from densepillars.tensor import ConfigurationError, Tensor, grad_check

rng = np.random.default_rng(12345)


def rand_t(*shape, dtype=np.float64):
    return Tensor(rng.normal(0.0, 1.0, size=shape).astype(dtype), requires_grad=True)


def total(x):
    flat = T.reshape(x, (1, x.data.size))
    ones = Tensor(np.ones((x.data.size, 1), dtype=x.dtype))
    return T.reshape(T.linear_map(flat, ones), (1,))


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
            lambda v: total(T.conv2d(v[0], T.Conv2dParams(v[1], v[2], stride=1, padding=1))),
            [x, w, b],
        )
        assert err <= 1e-5

    def test_gradcheck_stride2(self):
        err = grad_check(
            lambda v: total(T.conv2d(v[0], T.Conv2dParams(v[1], None, stride=2, padding=1))),
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
            lambda v: total(T.conv_transpose2d(v[0], v[1], stride=2)),
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
            return total(T.batch_norm(v[0], p))

        err = grad_check(f, [rand_t(2, 2, 3, 3), rand_t(2), rand_t(2)])
        assert err <= 1e-5


class TestSimpleOps:
    def test_relu_examples(self):
        out = T.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(T.relu(Tensor(np.array([-3.0, -0.1]))).data, [0.0, 0.0])

    def test_relu_gradcheck_away_from_zero(self):
        x = Tensor(np.array([1.2, -0.8, 2.5, -3.0]))
        err = grad_check(lambda v: total(T.relu(v[0])), [x])
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
        err = grad_check(lambda v: total(T.avg_pool2x2(v[0])), [rand_t(1, 2, 4, 4)])
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
        ident = Tensor(np.eye(4))
        zero_b = Tensor(np.zeros(4))
        np.testing.assert_array_equal(T.linear_map(x, ident, zero_b).data, x.data)
        w0 = Tensor(np.zeros((4, 2)))
        b = Tensor(np.array([1.0, -2.0]))
        out = T.linear_map(x, w0, b).data
        np.testing.assert_array_equal(out, np.tile(b.data, (3, 1)))

    def test_linear_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            T.linear_map(rand_t(3, 4), rand_t(5, 2))

    def test_linear_gradcheck(self):
        err = grad_check(
            lambda v: total(T.linear_map(v[0], v[1], v[2])), [rand_t(4, 5), rand_t(5, 3), rand_t(3)]
        )
        assert err <= 1e-7

    def test_max_over_axis_examples(self):
        out = T.max_over_axis(Tensor(np.array([[1.0, 5.0, 3.0]])), axis=1)
        assert out.data.item() == 5.0

    def test_max_fully_masked_is_zero(self):
        x = Tensor(np.array([[1.0, 5.0], [2.0, 4.0]]))
        mask = np.array([[True, True], [False, False]])
        out = T.max_over_axis(x, axis=1, mask=mask)
        np.testing.assert_array_equal(out.data, [5.0, 0.0])

    def test_max_gradient_one_hot(self):
        x = Tensor(np.array([[1.0, 5.0, 3.0]]), requires_grad=True)
        out = T.max_over_axis(x, axis=1)
        out.backward(np.array([2.0]))
        np.testing.assert_array_equal(x.grad, [[0.0, 2.0, 0.0]])
        err = grad_check(
            lambda v: total(T.max_over_axis(v[0], 1)),
            [Tensor(np.array([[0.3, 2.0, -1.0], [4.0, 1.0, 0.0]]))],
        )
        assert err <= 1e-6

    def test_max_tie_lowest_index(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        out = T.max_over_axis(x, axis=1)
        out.backward(np.array([1.0]))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])


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


class TestNoGrad:
    def _ops(self, x):
        bn = T.BatchNormParams.create(2, dtype=np.float64)
        bn.mode = "eval"
        w = rand_t(3, 2, 3, 3)
        return [
            T.conv2d(x, T.Conv2dParams(w, rand_t(3), 1, 1)),
            T.batch_norm(x, bn),
            T.relu(x),
            T.max_over_axis(x, 3, mask=np.ones(4, dtype=bool)),
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
        assert T.relu(rand_t(2))._backward is not None

    def test_restored_after_nesting(self):
        with T.no_grad():
            with T.no_grad():
                pass
            assert T.relu(rand_t(2))._backward is None
        assert T.relu(rand_t(2))._backward is not None


class TestInvariants:
    def test_composed_conv_bn_relu_gradcheck(self):
        def f(v):
            p = T.BatchNormParams.create(3, dtype=np.float64)
            p.gamma = v[2]
            p.beta = v[3]
            h = T.conv2d(v[0], T.Conv2dParams(v[1], None, 1, 1))
            return total(T.relu(T.batch_norm(h, p)))

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
                lambda v: total(T.conv2d(v[0], T.Conv2dParams(v[1], None, 1, 1))), [x, w]
            )
            assert err <= 1e-5

    def test_finite_check_flag(self):
        T.CHECK_FINITE = True
        try:
            with pytest.raises(T.InvariantViolation):
                T.scale(Tensor(np.array([1e308])), 1e308)
        finally:
            T.CHECK_FINITE = False
