from pathlib import Path

import numpy as np
import pytest

from densepillars import encoder
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
from densepillars.config import parse_config
from densepillars.detector import detection_loss
from densepillars.encoder import GridSpec, pfn_forward
from densepillars.model import DetectionPipeline
from densepillars.pointcloud import PointCloud, synth_scene
from densepillars.tensor import ConfigurationError, Tensor
from densepillars.train import build_pipeline, make_training_scenes
from backbone_oracle import backbone_forward, pillar_image, pipeline_forward

REPO = Path(__file__).resolve().parents[1]
FIRST_CONV = {"dense": "backbone.block1.layer1.conv.weight",
              "baseline": "backbone.block1.entry.conv.weight"}


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
        taps = bb.forward(*pillar_image(x))
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
        taps = bb.forward(*pillar_image(x))
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
        taps = bb.forward(*pillar_image(x))
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
        for td, tb in zip(dense.forward(*pillar_image(x)), base.forward(*pillar_image(x))):
            assert td.shape == tb.shape


class TestBuildBackbone:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_backbone("resnet")

    def test_growth_is_forwarded(self):
        bb = build_backbone("dense", growth=GrowthSchedule("fixed", 16))
        w = bb.named_params()["backbone.block1.layer1.conv.weight"]
        assert w.shape == (16, 64, 3, 3)


# A 16 x 16 grid; the extra points put pillars on all four borders, at odd
# and even coordinates.
SMALL = GridSpec(x_range=(0.0, 6.4), y_range=(-3.2, 3.2), pillar_size=(0.4, 0.4))
BORDER_POINTS = [[x, y, -1.0, 0.5] for x, y in (
    (0.1, -3.1), (6.3, -3.1), (0.1, 3.1), (6.3, 3.1), (2.1, -3.1), (2.5, 3.1), (0.1, 0.3),
    (6.3, -0.1))]


def _float64_pipeline(kind, mode):
    """A pipeline in float64, with random BN running statistics so that eval
    mode is not the identity."""
    p = DetectionPipeline(SMALL, backbone=kind, seed=3)
    r = np.random.default_rng(7)
    for v in p.named_params().values():
        v.data = v.data.astype(np.float64)
    for bn in p.bn_list():
        bn.running_mean = r.normal(0.0, 0.1, bn.running_mean.shape)
        bn.running_var = r.uniform(0.5, 2.0, bn.running_var.shape)
    p.set_mode(mode)
    return p


def _assert_close(got, want, name, rtol=1e-9):
    """Max error within rtol of the largest value: float64 sums in another
    order, through train-mode batch norm over 2 x 2 maps."""
    assert got.shape == want.shape, name
    err = np.max(np.abs(got - want))
    assert err <= rtol * np.max(np.abs(want)), f"{name}: error {err:.2e}"


class TestSparseFirstLayerOracle:
    """The backbones read the pillars through `sparse_conv2d`; the oracle
    builds the pseudo-image and runs dense convs (`backbone_oracle`)."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_matches_pseudo_image_path(self, kind, mode):
        scene = synth_scene(seed=4, n_boxes=2, x_range=SMALL.x_range, y_range=SMALL.y_range,
                            n_ground=300)
        cloud = PointCloud(np.concatenate([scene.cloud.points, BORDER_POINTS]))
        product, oracle = _float64_pipeline(kind, mode), _float64_pipeline(kind, mode)
        batch = product.encode(cloud)
        rows, cols = batch.coords.T
        assert {0, SMALL.height - 1} <= set(rows) and {0, SMALL.width - 1} <= set(cols)

        got = product.backbone.forward(pfn_forward(batch, product.pfn), batch.coords,
                                       (SMALL.height, SMALL.width))
        want = backbone_forward(oracle.backbone, pfn_forward(batch, oracle.pfn), batch.coords,
                                SMALL)
        for i, (a, b) in enumerate(zip(got, want, strict=True)):
            _assert_close(a.data, b.data, f"tap {i}")

        got_maps = product.forward_encoded(batch)
        want_maps = pipeline_forward(oracle, batch)
        for name, a, b in zip(("cls", "box", "dir"), got_maps, want_maps, strict=True):
            _assert_close(a.data, b.data, f"{name} map")
        assignment = product.targets_for(scene.boxes)
        for p, maps in ((product, got_maps), (oracle, want_maps)):
            p.zero_grad()
            detection_loss(*maps, assignment, p.anchor_cls, p.anchor_cfg)["total"].backward()
        want_grads = oracle.named_params()
        for name, param in product.named_params().items():
            _assert_close(param.grad, want_grads[name].grad, name)


class TestNoPseudoImage:
    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_predict_and_training_step_skip_the_scatter(self, monkeypatch, kind):
        def scatter(*args):
            raise AssertionError("the pseudo-image was built")

        monkeypatch.setattr(encoder, "scatter_to_pseudo_image", scatter)
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg",
                           {"architecture.backbone": kind})
        scene = make_training_scenes(cfg)[0]
        pipeline = build_pipeline(cfg)
        pipeline.set_mode("train")
        loss = pipeline.loss_encoded(pipeline.encode(scene.cloud), pipeline.targets_for(scene.boxes))
        loss["total"].backward()
        assert pipeline.backbone.named_params()[FIRST_CONV[kind]].grad.any()
        pipeline.set_mode("eval")
        pipeline.predict(scene.cloud)
