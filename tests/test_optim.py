import math

import numpy as np
import optim_oracle
import pytest

from densepillars import optim
from densepillars.optim import OptimizerState, adamw_step, cosine_lr
from densepillars.tensor import Tensor


def make_param(value):
    t = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    t.grad = np.zeros_like(t.data)
    return t


class TestAdamW:
    def test_zero_grad_pure_decay(self):
        p = make_param([2.0, -3.0])
        state = OptimizerState(lr=0.001, weight_decay=0.01)
        before = p.data.copy()
        adamw_step({"p": p}, state)
        np.testing.assert_allclose(p.data, before * (1 - 0.001 * 0.01), rtol=1e-12)

    def test_single_step_closed_form(self):
        p = make_param(1.0)
        p.grad = np.array(1.0)
        lr, wd = 0.001, 0.01
        b1, b2, eps = optim.BETA1, optim.BETA2, optim.EPS
        state = OptimizerState(lr=lr, weight_decay=wd)
        adamw_step({"p": p}, state)
        m_hat = (1 - b1) * 1.0 / (1 - b1)
        v_hat = (1 - b2) * 1.0 / (1 - b2)
        expected = 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        expected -= lr * wd * expected
        assert p.data.item() == pytest.approx(expected, rel=1e-12)

    def test_identical_params_stay_identical(self):
        state = OptimizerState(lr=0.01, weight_decay=0.01)
        a = make_param([1.0, 2.0])
        b = make_param([1.0, 2.0])
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.normal(size=2)
            a.grad = g.copy()
            b.grad = g.copy()
            adamw_step({"a": a, "b": b}, state)
            np.testing.assert_array_equal(a.data, b.data)

    def test_determinism_across_runs(self):
        def run():
            p = make_param([0.5, -0.5])
            state = OptimizerState(lr=0.01)
            for i in range(10):
                p.grad = np.array([0.1 * i, -0.2])
                adamw_step({"p": p}, state)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestCosineLr:
    def test_start_is_initial_lr(self):
        assert cosine_lr(0, 100, 0.001) == pytest.approx(0.001)

    def test_end_is_eta_min(self):
        assert cosine_lr(100, 100, 0.001, 1e-5) == pytest.approx(1e-5)

    def test_midpoint(self):
        eta0, eta_min = 0.001, 1e-4
        assert cosine_lr(50, 100, eta0, eta_min) == pytest.approx((eta0 + eta_min) / 2)

    def test_past_end_clamps(self):
        assert cosine_lr(150, 100, 0.001, 1e-5) == 1e-5

    def test_monotone_decreasing(self):
        vals = [cosine_lr(t, 50, 0.001) for t in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestSlicedStep:
    """`adamw_step` updates each parameter a slice at a time; params, m and
    v equal those of the whole-array step (`optim_oracle`) bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_whole_array_step(self, dtype):
        rng = np.random.default_rng(7)
        shapes = {"scalar": (), "bias": (5,), "weight": (4, 3, 3, 3),
                  "long": (2 * optim._SLICE + 7,), "wide": (3, optim._SLICE // 2 + 1)}

        def params():
            r = np.random.default_rng(0)
            out = {k: Tensor(r.normal(size=s).astype(dtype), requires_grad=True)
                   for k, s in shapes.items()}
            # a transposed view: not C-contiguous
            out["strided"] = Tensor(r.normal(size=(6, 9)).astype(dtype).T, requires_grad=True)
            return out

        got, want = params(), params()
        s_got = OptimizerState(lr=0.01, weight_decay=0.05)
        s_want = OptimizerState(lr=0.01, weight_decay=0.05)
        for step in range(6):
            for k in got:
                g = (rng.normal(size=got[k].shape) * 10.0 ** rng.integers(-4, 2)).astype(dtype)
                got[k].grad, want[k].grad = g.copy(), g.copy()
            got["bias"].grad = want["bias"].grad = None  # no gradient: pure decay
            s_got.lr = s_want.lr = cosine_lr(step, 6, 0.01)
            adamw_step(got, s_got)
            optim_oracle.adamw_step(want, s_want)
            for k in got:
                assert got[k].data.dtype == dtype
                np.testing.assert_array_equal(got[k].data, want[k].data, err_msg=k)
                np.testing.assert_array_equal(s_got.m[k], s_want.m[k], err_msg=k)
                np.testing.assert_array_equal(s_got.v[k], s_want.v[k], err_msg=k)

    def test_updates_the_parameter_arrays_in_place(self):
        p = make_param(np.arange(2 * optim._SLICE + 3, dtype=np.float64))
        data = p.data
        p.grad = np.ones_like(data)
        adamw_step({"p": p}, OptimizerState(lr=0.1))
        assert p.data is data
        assert (data < np.arange(data.size)).all()
