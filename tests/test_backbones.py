import numpy as np
import pytest

from densepillars import tensor as T
from densepillars.backbones import (
    BaselineBackbone,
    BaselineBackboneSpec,
    ConvBNRelu,
    DenseBackbone,
    DenseBackboneSpec,
    GrowthSchedule,
    build_backbone,
    dense_block_forward,
)
from densepillars.tensor import ConfigurationError, Tensor


def set_eval(backbone):
    for bn in backbone.bn_list():
        bn.mode = "eval"


class TestGrowthSchedule:
    def test_fixed(self):
        g = GrowthSchedule("fixed", 24)
        assert [g.rate(b) for b in (1, 2, 3)] == [24, 24, 24]

    def test_doubling(self):
        g = GrowthSchedule("doubling", 32)
        assert [g.rate(b) for b in (1, 2, 3)] == [32, 64, 128]

    def test_table_matched(self):
        g = GrowthSchedule("table_matched")
        assert [g.rate(b) for b in (1, 2, 3)] == [32, 32, 64]

    def test_rejects_zero_block(self):
        with pytest.raises(ConfigurationError):
            GrowthSchedule().rate(0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            GrowthSchedule("cubic").rate(1)


class TestDenseBlock:
    def test_concat_width(self):
        """Output channels = input + n_layers * growth, concatenated once."""
        rng = np.random.default_rng(0)
        c_in, k, n = 8, 4, 3
        layers = [ConvBNRelu(rng, c_in if i == 0 else k, k, 3, padding=1) for i in range(n)]
        x = Tensor(rng.normal(size=(1, c_in, 6, 6)).astype(np.float32))
        out = dense_block_forward(x, layers)
        assert out.shape == (1, c_in + n * k, 6, 6)

    def test_input_passes_through_unchanged(self):
        rng = np.random.default_rng(1)
        layers = [ConvBNRelu(rng, 8, 4, 3, padding=1)]
        x = Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32))
        out = dense_block_forward(x, layers)
        np.testing.assert_array_equal(out.data[:, :8], x.data)

    def test_feed_forward_chain(self):
        """Each stage sees only the previous stage's output, not the concat."""
        rng = np.random.default_rng(2)
        layers = [
            ConvBNRelu(rng, 8, 4, 3, padding=1),
            ConvBNRelu(rng, 4, 4, 3, padding=1),
        ]
        for layer in layers:
            layer.bn.mode = "eval"
        x = Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32))
        out = dense_block_forward(x, layers)
        h1 = layers[0].forward(x)
        h2 = layers[1].forward(h1)
        np.testing.assert_array_equal(out.data[:, 8:12], h1.data)
        np.testing.assert_array_equal(out.data[:, 12:16], h2.data)


class TestDenseBackbone:
    def test_tap_shapes(self):
        bb = build_backbone("dense", seed=0)
        set_eval(bb)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 64, 32, 24)).astype(np.float32))
        taps = bb.forward(x)
        assert [t.shape for t in taps] == [
            (1, 64, 16, 12),
            (1, 128, 8, 6),
            (1, 256, 4, 3),
        ]

    def test_deterministic_init(self):
        a = DenseBackbone(DenseBackboneSpec(), seed=5)
        b = DenseBackbone(DenseBackboneSpec(), seed=5)
        pa, pb = a.named_params(), b.named_params()
        assert pa.keys() == pb.keys()
        for k in pa:
            np.testing.assert_array_equal(pa[k].data, pb[k].data)

    def test_seed_changes_weights(self):
        a = DenseBackbone(DenseBackboneSpec(), seed=0)
        b = DenseBackbone(DenseBackboneSpec(), seed=1)
        k = "backbone.block1.layer1.conv.weight"
        assert not np.array_equal(a.named_params()[k].data, b.named_params()[k].data)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            DenseBackboneSpec(layers_per_block=(3, 5), transition_out_channels=(64, 128, 256))
        with pytest.raises(ConfigurationError, match="table-matched growth"):
            DenseBackboneSpec(layers_per_block=(1, 1, 1, 1), transition_out_channels=(8,) * 4)
        with pytest.raises(ConfigurationError, match="unknown growth mode"):
            DenseBackboneSpec(growth=GrowthSchedule("bogus"))

    def test_gradients_reach_first_layer(self):
        bb = DenseBackbone(DenseBackboneSpec(), seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 64, 8, 8)).astype(np.float32))
        taps = bb.forward(x)
        flat = T.reshape(taps[-1], (1, taps[-1].data.size))
        ones = Tensor(np.ones((taps[-1].data.size, 1), dtype=np.float32))
        T.linear_map(flat, ones).backward()
        w = bb.named_params()["backbone.block1.layer1.conv.weight"]
        assert w.grad is not None
        assert np.abs(w.grad).max() > 0


class TestBaselineBackbone:
    def test_tap_shapes(self):
        bb = build_backbone("baseline", seed=0)
        set_eval(bb)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 64, 32, 24)).astype(np.float32))
        taps = bb.forward(x)
        assert [t.shape for t in taps] == [
            (1, 64, 16, 12),
            (1, 128, 8, 6),
            (1, 256, 4, 3),
        ]

    def test_layer_counts(self):
        bb = BaselineBackbone(BaselineBackboneSpec(), seed=0)
        assert [len(blk) for blk in bb.blocks] == [4, 6, 6]  # entry + n per block

    def test_drop_in_compatibility(self):
        """Both backbones emit taps with identical shapes for the same input."""
        x = Tensor(np.random.default_rng(0).normal(size=(1, 64, 16, 16)).astype(np.float32))
        dense = build_backbone("dense", seed=0)
        base = build_backbone("baseline", seed=0)
        set_eval(dense)
        set_eval(base)
        for td, tb in zip(dense.forward(x), base.forward(x)):
            assert td.shape == tb.shape


class TestBuildBackbone:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_backbone("resnet")

    def test_growth_is_forwarded(self):
        bb = build_backbone("dense", growth=GrowthSchedule("fixed", 16))
        w = bb.named_params()["backbone.block1.layer1.conv.weight"]
        assert w.shape == (16, 64, 3, 3)
