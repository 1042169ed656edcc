import contextlib
from pathlib import Path

import numpy as np
import pytest

from densepillars import backbones, encoder
from densepillars import tensor as T
from densepillars.backbones import (
    BaselineBackbone,
    BaselineBackboneSpec,
    ConvBNRelu,
    DenseBackbone,
    DenseBackboneSpec,
    GrowthSchedule,
    build_backbone,
)
from densepillars.config import parse_config
from densepillars.detector import detection_loss
from densepillars.encoder import GridSpec, pfn_forward
from densepillars.model import DetectionPipeline
from densepillars.pointcloud import PointCloud, synth_scene
from densepillars.tensor import ConfigurationError, Tensor
from densepillars.train import build_pipeline, make_training_scenes
from graph_oracle import held_backward, record_whole
from backbone_oracle import (
    backbone_forward,
    concat_backbone_forward,
    concat_neck_forward,
    pillar_image,
    pipeline_forward,
    predict_head_maps,
)

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


def _captured_concats(monkeypatch):
    """The outputs of every `T.channel_concat` call from here on."""
    cats, concat = [], T.channel_concat
    monkeypatch.setattr(T, "channel_concat",
                        lambda parts, out=None: cats.append(concat(parts, out=out)) or cats[-1])
    return cats


def _dense_block(rng, c_in, k, n, c_out=6):
    layers = [ConvBNRelu(rng, c_in if i == 0 else k, k, 3, padding=1) for i in range(n)]
    return layers, ConvBNRelu(rng, c_in + n * k, c_out, 1)


class TestDenseBlock:
    """`backbones._whole_block`, the dense block with whole maps: its stages
    and (but for block 1) its input are concatenated once, into one buffer."""

    def test_concat_width(self, monkeypatch):
        """The concat is input + n_layers * growth wide from x, and only the
        stages from the pillars; the tap is the transition's, pooled."""
        rng = np.random.default_rng(0)
        c_in, k, n = 8, 4, 3
        layers, trans = _dense_block(rng, c_in, k, n)
        x = Tensor(rng.normal(size=(1, c_in, 6, 6)).astype(np.float32))
        features, coords, size = pillar_image(x)
        cats = _captured_concats(monkeypatch)
        taps = [backbones._whole_block(layers, trans, x=x),
                backbones._whole_block(layers, trans, pillars=(features, T.PillarPlan(coords, size)))]
        assert [c.shape for c in cats] == [(1, c_in + n * k, 6, 6), (1, n * k, 6, 6)]
        assert [t.shape for t in taps] == [(1, 6, 3, 3)] * 2
        np.testing.assert_allclose(taps[1].data, taps[0].data, rtol=1e-5, atol=1e-6)

    def test_input_passes_through_unchanged(self, monkeypatch):
        rng = np.random.default_rng(1)
        layers, trans = _dense_block(rng, 8, 4, 1)
        x = Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32))
        cats = _captured_concats(monkeypatch)
        backbones._whole_block(layers, trans, x=x)
        np.testing.assert_array_equal(cats[0].data[:, :8], x.data)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_feed_forward_chain(self, monkeypatch, mode):
        """Each stage sees only the previous stage's output, not the concat,
        and writes it into its slice of the concat, which is not copied
        again."""
        rng = np.random.default_rng(2)
        layers, trans = _dense_block(rng, 8, 4, 2)
        stages = []
        for layer in (*layers, trans):
            layer.bn.mode = mode
        for layer in layers:
            def spy(h, out=None, forward=layer.forward):
                stages.append(forward(h, out=out))
                return stages[-1]

            monkeypatch.setattr(layer, "forward", spy)
        x = Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32))
        cats = _captured_concats(monkeypatch)
        backbones._whole_block(layers, trans, x=x)
        assert len(stages) == 2 and len(cats) == 1
        for stage in stages:
            assert np.shares_memory(stage.data, cats[0].data)
        h1 = layers[0].forward(x)
        h2 = layers[1].forward(h1)
        np.testing.assert_array_equal(cats[0].data[:, 8:12], h1.data)
        np.testing.assert_array_equal(cats[0].data[:, 12:16], h2.data)


class TestBlockRoutes:
    """Each dense block runs through `_stream_block` or `_whole_block`, one
    call per block: streamed only in eval mode with no graph."""

    @pytest.mark.parametrize("mode,graph,route", [
        ("eval", False, "_stream_block"),
        ("train", False, "_whole_block"),
        ("train", True, "_whole_block"),
        ("eval", True, "_whole_block")])
    def test_one_route_per_block(self, monkeypatch, mode, graph, route):
        calls = {"_stream_block": 0, "_whole_block": 0}
        for name in calls:
            def count(*args, name=name, block=getattr(backbones, name), **kwargs):
                calls[name] += 1
                return block(*args, **kwargs)

            monkeypatch.setattr(backbones, name, count)
        bb = build_backbone("dense", seed=0)
        for bn in bb.bn_list():
            bn.mode = mode
        x = Tensor(np.random.default_rng(0).normal(size=(1, 64, 16, 16)).astype(np.float32))
        with contextlib.nullcontext() if graph else T.no_grad():
            taps = bb.forward(*pillar_image(x))
        assert len(taps) == 3
        assert calls == {**{name: 0 for name in calls}, route: 3}


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
        for layers, growth, block in (((0, 5, 5), GrowthSchedule(), 1),
                                      ((3, 5, -1), GrowthSchedule(), 3),
                                      ((3, 5, 5), GrowthSchedule("fixed", 0), 1),
                                      ((3, 5, 5), GrowthSchedule("doubling", -4), 1)):
            with pytest.raises(ConfigurationError, match=f"dense block {block} "):
                DenseBackboneSpec(layers_per_block=layers, growth=growth)

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


    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_fused_eval_path_matches_pseudo_image_path(self, kind):
        """The maps whose tiles `predict` scores: batch norm is folded into
        the convs, the blocks stream by bands and the neck and head run per
        tile of rows; the oracle runs the graph ops."""
        scene = synth_scene(seed=4, n_boxes=2, x_range=SMALL.x_range, y_range=SMALL.y_range,
                            n_ground=300)
        cloud = PointCloud(np.concatenate([scene.cloud.points, BORDER_POINTS]))
        product, oracle = _float64_pipeline(kind, "eval"), _float64_pipeline(kind, "eval")
        batch = product.encode(cloud)
        got = predict_head_maps(product, batch)
        want = pipeline_forward(oracle, batch)
        for name, a, b in zip(("cls", "box", "dir"), got, want, strict=True):
            assert a.dtype == np.float64, name
            _assert_close(a.data, b.data, f"{name} map")


class TestSharedBufferOracle:
    """With a graph, the dense blocks and the neck write their stage outputs
    into one shared buffer; the oracle keeps a list of them and copies them
    with `channel_concat` (`backbone_oracle.concat_backbone_forward`)."""

    def test_train_mode_matches_the_concat_path_bit_for_bit(self):
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg",
                           {"architecture.backbone": "dense"})
        scene = make_training_scenes(cfg)[0]
        product, oracle = build_pipeline(cfg), build_pipeline(cfg)
        batch = product.encode(scene.cloud)
        assignment = product.targets_for(scene.boxes)
        size = (product.grid.height, product.grid.width)
        losses = []
        for p, backbone, neck in (
                (product, product.backbone.forward, product.neck.forward),
                (oracle, lambda *a: concat_backbone_forward(oracle.backbone, *a),
                 lambda taps: concat_neck_forward(oracle.neck, taps))):
            p.set_mode("train")
            p.zero_grad()
            taps = backbone(pfn_forward(batch, p.pfn), batch.coords, size)
            maps = p.head.forward(neck(taps))
            loss = detection_loss(*maps, assignment, p.anchor_cls, p.anchor_cfg)["total"]
            loss.backward()
            losses.append(([t.data for t in taps], maps, loss.data))
        (got_taps, got_maps, got_loss), (want_taps, want_maps, want_loss) = losses
        for i, (a, b) in enumerate(zip(got_taps, want_taps, strict=True)):
            np.testing.assert_array_equal(a, b, err_msg=f"tap {i}")
        for name, a, b in zip(("cls", "box", "dir"), got_maps, want_maps, strict=True):
            np.testing.assert_array_equal(a.data, b.data, err_msg=f"{name} map")
        np.testing.assert_array_equal(got_loss, want_loss)
        want_grads = oracle.named_params()
        for name, param in product.named_params().items():
            np.testing.assert_array_equal(param.grad, want_grads[name].grad, err_msg=name)
        assert product.named_params()[FIRST_CONV["dense"]].grad.any()
        for a, b in zip(product.bn_list(), oracle.bn_list(), strict=True):
            np.testing.assert_array_equal(a.running_mean, b.running_mean)
            np.testing.assert_array_equal(a.running_var, b.running_var)


class TestHeldGraphOracle:
    """One desk-grid training step of two samples, swept by the consuming
    `Tensor.backward` with the dense transitions replayed, against the same
    step with the transitions recorded op by op and swept by the held-graph
    sweep (`graph_oracle`)."""

    @staticmethod
    def _step(pipeline, samples, sweep):
        pipeline.set_mode("train")
        pipeline.zero_grad()
        totals = []
        for batch, assignment in samples:
            losses = pipeline.loss_encoded(batch, assignment)
            if sweep is not None:
                sweep(losses["total"], np.array(0.5, dtype=np.float32))
            totals.append(losses["total"].data)
        return totals

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_gradients_and_statistics_equal_the_held_graph(self, monkeypatch, kind):
        """Every parameter gradient is bit for bit the held graph's, and
        the running statistics after forward and backward are those after
        the forward alone: the replay updates them no second time."""
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg",
                           {"architecture.backbone": kind})
        product, held, forward_only = (build_pipeline(cfg) for _ in range(3))
        scenes = make_training_scenes(cfg)[:2]
        samples = [(product.encode(s.cloud, seed=i), product.targets_for(s.boxes))
                   for i, s in enumerate(scenes)]
        got = self._step(product, samples, lambda loss, g: loss.backward(g))
        plain = self._step(forward_only, samples, None)
        with monkeypatch.context() as m:
            m.setattr(T, "recompute", record_whole)
            want = self._step(held, samples, held_backward)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, plain)
        want_grads = held.named_params()
        for name, param in product.named_params().items():
            assert param.grad is not None, name
            np.testing.assert_array_equal(param.grad, want_grads[name].grad, err_msg=name)
        for a, b, c in zip(product.bn_list(), held.bn_list(), forward_only.bn_list(),
                           strict=True):
            for stat in ("running_mean", "running_var"):
                np.testing.assert_array_equal(getattr(a, stat), getattr(b, stat))
                np.testing.assert_array_equal(getattr(a, stat), getattr(c, stat))


class TestTrainModeWithoutGraph:
    """In train mode, a forward under `no_grad` computes the recorded
    forward's taps and updates every batch norm's running statistics once,
    as the recorded forward does."""

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_taps_and_statistics_equal_the_recorded_forward(self, kind):
        cfg = parse_config(REPO / "configs" / "desk_overfit.cfg",
                           {"architecture.backbone": kind})
        scene = make_training_scenes(cfg)[0]
        fresh, recorded, bare = build_pipeline(cfg), build_pipeline(cfg), build_pipeline(cfg)
        batch = recorded.encode(scene.cloud)
        size = (recorded.grid.height, recorded.grid.width)
        taps = []
        for p, graph in ((recorded, True), (bare, False)):
            p.set_mode("train")
            features = pfn_forward(batch, p.pfn)
            with contextlib.nullcontext() if graph else T.no_grad():
                taps.append(p.backbone.forward(features, batch.coords, size))
        assert taps[0][0].requires_grad and not taps[1][0].requires_grad
        for i, (a, b) in enumerate(zip(*taps, strict=True)):
            np.testing.assert_array_equal(a.data, b.data, err_msg=f"tap {i}")
        for a, b in zip(recorded.bn_list(), bare.bn_list(), strict=True):
            np.testing.assert_array_equal(a.running_mean, b.running_mean)
            np.testing.assert_array_equal(a.running_var, b.running_var)
        for a, c in zip(recorded.backbone.bn_list(), fresh.backbone.bn_list(), strict=True):
            assert not np.array_equal(a.running_mean, c.running_mean)
            assert not np.array_equal(a.running_var, c.running_var)


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


class TestPillarPlan:
    """The backbones read the pillars through one `T.PillarPlan` per frame,
    which checks their cells once, on the graph path and the streamed one
    alike; every `sparse_conv2d` of the frame, each band's too, uses it."""

    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    @pytest.mark.parametrize("coords,error,match", [
        ([[0, 1], [3, 2], [0, 1]], T.InvariantViolation, "duplicate"),
        ([[0, 1], [SMALL.height, 2]], ConfigurationError, "outside the grid"),
        ([[0, -1], [3, 2]], ConfigurationError, "outside the grid")])
    def test_bad_cells_raise_on_both_paths(self, kind, graph, coords, error, match):
        backbone = build_backbone(kind)
        for bn in backbone.bn_list():
            bn.mode = "eval"
        features = Tensor(np.ones((len(coords), 64), dtype=np.float32))
        with contextlib.nullcontext() if graph else T.no_grad(), pytest.raises(error, match=match):
            backbone.forward(features, np.array(coords), (SMALL.height, SMALL.width))

    @pytest.mark.parametrize("kind", ["dense", "baseline"])
    def test_one_plan_per_predict(self, monkeypatch, kind):
        monkeypatch.setattr(T, "_TILE_BYTES", 1)  # 2-row bands: many per block
        checks, plans = [], []
        init, sparse_conv2d = T.PillarPlan.__init__, T.sparse_conv2d

        def spy_init(self, coords, size):
            checks.append(self)
            init(self, coords, size)

        monkeypatch.setattr(T.PillarPlan, "__init__", spy_init)
        monkeypatch.setattr(T, "sparse_conv2d", lambda f, plan, *a, **k: plans.append(plan) or
                            sparse_conv2d(f, plan, *a, **k))
        scene = synth_scene(seed=4, n_boxes=2, x_range=SMALL.x_range, y_range=SMALL.y_range,
                            n_ground=300)
        pipeline = _float64_pipeline(kind, "eval")
        pipeline.predict(scene.cloud)
        assert len(checks) == 1
        assert {id(p) for p in plans} == {id(checks[0])}
        if kind == "dense":  # block 1's first layer and its transition's pillar part, per band
            assert len(plans) > SMALL.height // 2
        else:  # the entry conv
            assert len(plans) == 1
