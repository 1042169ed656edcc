import gc
import inspect
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from densepillars.config import SCHEMA, RunConfig, parse_config
from densepillars.detector import postprocess
from densepillars.model import DetectionPipeline
from densepillars.pointcloud import FormatError, LabeledScene, PointCloud
from densepillars.tensor import ConfigurationError, InvariantViolation
from densepillars.train import (
    build_pipeline,
    load_checkpoint,
    make_training_scenes,
    save_checkpoint,
    train,
    training_recall,
)

REPO = Path(__file__).resolve().parents[1]
# tracemalloc bound on one dense desk-config sample's forward and backward
DESK_STEP_BOUND_MB = 19.5


def desk_sample(kind):
    """A train-mode pipeline of the desk config and its first scene,
    encoded, with the scene's target assignment."""
    cfg = parse_config(REPO / "configs" / "desk_overfit.cfg", {"architecture.backbone": kind})
    scene = make_training_scenes(cfg)[0]
    pipeline = build_pipeline(cfg)
    pipeline.set_mode("train")
    return pipeline, pipeline.encode(scene.cloud, seed=0), pipeline.targets_for(scene.boxes)


def graph_array_refs(losses):
    """Weak references to the arrays of every op output in the graph of
    `losses["total"]`, but those of the loss terms, which the dict holds."""
    held = {id(t) for t in losses.values()}
    refs, stack, seen = [], [losses["total"]], set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._backward is not None and id(t) not in held:
                refs.append(weakref.ref(t.data))
            stack.extend(t._parents)
    return refs


TINY = {
    "grid.x_min": "0",
    "grid.x_max": "10.24",
    "grid.y_min": "-5.12",
    "grid.y_max": "5.12",
    "grid.pillar_size": "0.32",
    "train.steps": "3",
    "train.num_scenes": "2",
    "train.batch_size": "1",
    "train.boxes_per_scene": "1",
}


def tiny_config(**extra):
    return parse_config(overrides={**TINY, **extra})


class TestParseConfig:
    def test_defaults_and_provenance(self):
        cfg = parse_config()
        assert cfg["train.steps"] == 500
        assert cfg["architecture.backbone"] == "dense"
        assert all(v == "default" for v in cfg.provenance.values())

    def test_file_overrides_default(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[train]\nsteps = 42\n\n[growth]\nmode = doubling\nk = 16\n")
        cfg = parse_config(str(p))
        assert cfg["train.steps"] == 42
        assert cfg.provenance["train.steps"] == "file"
        assert cfg.provenance["train.lr"] == "default"
        assert cfg.growth_schedule().rate(2) == 32

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[train]\nsteps = 42\n")
        cfg = parse_config(str(p), overrides={"train.steps": "7"})
        assert cfg["train.steps"] == 7
        assert cfg.provenance["train.steps"] == "flag"

    @pytest.mark.parametrize("text", [
        "[train]\nmomentum = 0.9\n",
        "[architecture]\ndownsample = avg_pool\n",
    ], ids=["momentum", "downsample"])
    def test_unknown_key_rejected(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        with pytest.raises(ConfigurationError):
            parse_config(str(p))

    def test_malformed_value_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config(overrides={"train.steps": "many"})

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config(overrides={"train.lr": "-0.5"})
        with pytest.raises(ConfigurationError):
            parse_config(overrides={"eval.mode": "4D"})

    @pytest.mark.parametrize("overrides", [
        {"train.batch_size": 0},
        {"grid.pillar_size": -1.0},
        {"train.steps": 2.5},
        {"grid.pillar_size": True},
    ])
    def test_non_string_override_is_checked(self, overrides):
        with pytest.raises(ConfigurationError):
            parse_config(overrides=overrides)

    def test_numeric_overrides_accepted(self):
        """The int and float overrides the benchmark's smoke sizes pass."""
        overrides = {"run.seed": 3, "grid.x_max": 10.24, "grid.y_min": -5.12,
                     "grid.y_max": 5.12, "train.num_scenes": 2, "train.boxes_per_scene": 2}
        cfg = parse_config(overrides=overrides)
        assert {k: cfg[k] for k in overrides} == overrides
        assert all(cfg.provenance[k] == "flag" for k in overrides)

    def test_malformed_file_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("steps = 42\n")  # key before any section header
        with pytest.raises(ConfigurationError):
            parse_config(str(p))

    def test_inline_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("[train]\nsteps = 42  # short run\n")
        assert parse_config(str(p))["train.steps"] == 42

    def test_grid_spec_construction(self):
        cfg = tiny_config()
        g = cfg.grid_spec()
        assert (g.height, g.width) == (32, 32)

    def test_json_roundtrip(self):
        cfg = tiny_config()
        back = RunConfig.from_json(cfg.to_json())
        assert back.values == cfg.values
        assert set(back.values) == set(SCHEMA)

    def test_json_names_an_unknown_or_missing_key(self):
        values = tiny_config().values
        with pytest.raises(ConfigurationError, match="unknown key 'grid.pilar_size'"):
            RunConfig.from_json(json.dumps({**values, "grid.pilar_size": 0.2}))
        del values["grid.max_pillars"]
        with pytest.raises(ConfigurationError, match="missing key 'grid.max_pillars'"):
            RunConfig.from_json(json.dumps(values))


class TestThresholdDefaults:
    def test_schema_defaults_are_the_inference_defaults(self):
        """`predict(cloud)` scores and suppresses as a default config does."""
        for fn in (DetectionPipeline.predict, postprocess):
            params = inspect.signature(fn).parameters
            assert params["score_thr"].default == SCHEMA["eval.score_threshold"][1] == 0.1
            assert params["nms_thr"].default == SCHEMA["eval.nms_iou"][1] == 0.01


class TestTraining:
    def test_short_run_writes_artifacts(self, tmp_path):
        cfg = tiny_config()
        _, history = train(cfg, str(tmp_path), log=None)
        assert len(history) == 3
        assert (tmp_path / "loss.csv").exists()
        assert (tmp_path / "checkpoint.npz").exists()
        lines = (tmp_path / "loss.csv").read_text().strip().split("\n")
        assert lines[0] == "step,lr,cls,loc,dir,total"
        assert len(lines) == 4

    def test_deterministic_loss_history(self, tmp_path):
        cfg = tiny_config()
        _, h1 = train(cfg, str(tmp_path / "a"), log=None)
        _, h2 = train(cfg, str(tmp_path / "b"), log=None)
        assert h1 == h2
        assert (tmp_path / "a" / "loss.csv").read_text() == (
            tmp_path / "b" / "loss.csv"
        ).read_text()

    def test_seed_changes_trajectory(self, tmp_path):
        _, h1 = train(tiny_config(), str(tmp_path / "a"), log=None)
        _, h2 = train(tiny_config(**{"run.seed": "1"}), str(tmp_path / "b"), log=None)
        assert h1 != h2

    def test_each_sample_graph_is_freed_before_the_next_forward(self, tmp_path, monkeypatch):
        """A sample's graph must not live through the next sample's forward,
        or a step's peak memory holds two graphs. Tensor has no weakref slot,
        so this watches the arrays of each graph's op outputs."""
        loss_encoded = DetectionPipeline.loss_encoded
        graphs = []

        def watched(self, batch, assignment):
            assert all(ref() is None for refs in graphs for ref in refs), \
                "previous graph still alive"
            losses = loss_encoded(self, batch, assignment)
            graphs.append(graph_array_refs(losses))
            return losses

        monkeypatch.setattr(DetectionPipeline, "loss_encoded", watched)
        train(tiny_config(**{"train.batch_size": "2"}), str(tmp_path), log=None)
        assert len(graphs) == 6 and all(graphs)

    def test_backward_frees_the_graph_while_the_loss_dict_is_held(self):
        """One sample's backward frees every activation of its graph by the
        time it returns, without the cycle collector, though the caller still
        holds the loss dict and so the loss terms the graph ends in."""
        pipeline, batch, assignment = desk_sample("dense")
        losses = pipeline.loss_encoded(batch, assignment)
        refs = graph_array_refs(losses)
        assert len(refs) > 50
        gc.disable()
        try:
            losses["total"].backward()
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert alive == 0, f"{alive} of {len(refs)} graph arrays outlive backward"
        assert all(t._parents == () for t in losses.values())
        with pytest.raises(InvariantViolation, match="consumed"):
            losses["cls"].backward()

    def test_one_dense_desk_step_stays_under_its_memory_bound(self):
        """One dense desk-config sample's forward and backward from a fresh
        pipeline (its gradients allocated inside), under tracemalloc. It
        measured 18.8 MB on every desk scene; with the transitions recorded
        op by op it took 20.0 MB, with the graph held to the sweep's end
        24.3 MB, and with both 26.1 MB."""
        pipeline, batch, assignment = desk_sample("dense")
        pipeline.zero_grad()
        tracemalloc.start()
        try:
            pipeline.loss_encoded(batch, assignment)["total"].backward()
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= DESK_STEP_BOUND_MB, f"one dense desk step peaked at {peak:.2f} MB"

    def test_scene_with_no_point_in_the_grid_is_skipped(self, tmp_path):
        """The other scenes train; the skipped scene's boxes count as missed
        in `training_recall`."""
        cfg = tiny_config(**{"train.num_scenes": "3"})
        scenes = make_training_scenes(cfg)
        beyond = scenes[1].cloud.points + np.array([100.0, 0.0, 0.0, 0.0], np.float32)
        scenes[1] = LabeledScene(PointCloud(beyond), scenes[1].boxes)
        logs = []
        pipeline, history = train(cfg, str(tmp_path), scenes=scenes, log=logs.append)
        assert len(history) == 3 and all(np.isfinite(history))
        assert "skipped 1 of 3 training scenes with no point inside the grid" in logs
        boxes = sum(len(s.boxes) for s in scenes)
        assert sum(total for _, total in training_recall(pipeline, scenes, cfg).values()) == boxes
        missed = training_recall(pipeline, scenes[1:2], cfg)
        assert sum(total for _, total in missed.values()) == len(scenes[1].boxes) > 0
        assert all(found == 0 for found, _ in missed.values())

    def test_scenes_are_deterministic(self):
        cfg = tiny_config()
        a = make_training_scenes(cfg)
        b = make_training_scenes(cfg)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.cloud.points, sb.cloud.points)


class TestCheckpoint:
    def test_roundtrip_bit_exact_forward(self, tmp_path):
        cfg = tiny_config()
        pipeline, _ = train(cfg, str(tmp_path), log=None)
        pipeline.set_mode("eval")
        loaded, ckpt_cfg = load_checkpoint(str(tmp_path / "checkpoint.npz"))
        loaded.set_mode("eval")
        assert ckpt_cfg.values == cfg.values

        scene = make_training_scenes(cfg)[0]
        batch = pipeline.encode(scene.cloud, seed=0)
        a = pipeline.forward_encoded(batch)
        b = loaded.forward_encoded(batch)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_holds_only_what_infer_reads(self, tmp_path):
        pipeline, _ = train(tiny_config(), str(tmp_path), log=None)
        with np.load(tmp_path / "checkpoint.npz") as z:
            names = set(z.files)
        state = pipeline.state_arrays()
        assert all(k.startswith(("param/", "bnstat/")) for k in state)
        assert names == {"meta/version", "meta/config", *state}

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = tiny_config()
        pipeline = build_pipeline(cfg)
        path = tmp_path / "ck.npz"
        save_checkpoint(str(path), pipeline, cfg)
        with np.load(str(path)) as z:
            state = {k: z[k] for k in z.files}
        state["meta/version"] = np.array(99)
        np.savez(str(path), **state)
        with pytest.raises(FormatError, match=r"ck\.npz: .*'meta/version' is 99, expected 3"):
            load_checkpoint(str(path))

    def test_fresh_pipeline_differs_from_trained(self, tmp_path):
        cfg = tiny_config()
        train(cfg, str(tmp_path), log=None)
        loaded, _ = load_checkpoint(str(tmp_path / "checkpoint.npz"))
        fresh = build_pipeline(cfg)
        trained_w = loaded.named_params()["head.weight"].data
        fresh_w = fresh.named_params()["head.weight"].data
        assert not np.array_equal(trained_w, fresh_w)


class TestPipeline:
    def test_empty_cloud_raises_invariant(self):
        from densepillars.pointcloud import PointCloud

        cfg = tiny_config()
        pipeline = build_pipeline(cfg)
        cloud = PointCloud(np.zeros((0, 4), np.float32))
        with pytest.raises(InvariantViolation):
            pipeline.forward(cloud)

    def test_head_map_shapes(self):
        cfg = tiny_config()
        pipeline = build_pipeline(cfg)
        scene = make_training_scenes(cfg)[0]
        cls_map, box_map, dir_map = pipeline.forward(scene.cloud)
        assert cls_map.shape == (1, 18, 16, 16)
        assert box_map.shape == (1, 42, 16, 16)
        assert dir_map.shape == (1, 12, 16, 16)

    def test_baseline_backbone_same_head_shapes(self):
        cfg = tiny_config(**{"architecture.backbone": "baseline"})
        pipeline = build_pipeline(cfg)
        scene = make_training_scenes(cfg)[0]
        cls_map, _, _ = pipeline.forward(scene.cloud)
        assert cls_map.shape == (1, 18, 16, 16)
