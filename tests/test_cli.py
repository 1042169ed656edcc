import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from densepillars.backbones import DenseBackboneSpec, GrowthSchedule
from densepillars.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, build_parser, main
from densepillars.config import parse_config
from densepillars.cost import dense_backbone_cost
from densepillars.encoder import GridSpec
from densepillars.pointcloud import (
    CLASSES,
    PREDICTION_HEADER,
    PointCloud,
    write_kitti_bin,
    write_labels,
)
from densepillars.train import make_training_scenes

LOSS_LINE = re.compile(r"loss (\S+) -> (\S+) \(ratio (\S+)\)")
RECALL_LINE = re.compile(r"(\w+) +recall (\d+)/(\d+) = (\S+)")

TINY_CFG = """\
[grid]
x_min = 0
x_max = 10.24
y_min = -5.12
y_max = 5.12
pillar_size = 0.32

[train]
steps = 3
num_scenes = 2
batch_size = 1
boxes_per_scene = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(TINY_CFG)
    return str(p)


class TestAnalyze:
    def test_writes_reports(self, tmp_path, capsys):
        rc = main(["analyze", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "param ratio" in out
        assert "MAC ratio" in out
        for name in ("cost_dense.csv", "cost_baseline.csv"):
            text = (tmp_path / name).read_text()
            assert text.startswith("component,params,macs\n")
            assert len(text.strip().split("\n")) == 5

    def test_prints_growth_sweep(self, tmp_path, capsys):
        assert main(["analyze", "--out-dir", str(tmp_path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        for label in ("fixed k=16", "fixed k=32", "fixed k=64", "table-matched",
                      "doubling k0=32"):
            assert any(line.startswith(label) for line in lines)
        grid = GridSpec()
        k16 = dense_backbone_cost(DenseBackboneSpec(growth=GrowthSchedule("fixed", 16)),
                                  grid.height, grid.width)
        row = next(line for line in lines if line.startswith("fixed k=16"))
        assert row.split()[2] == f"{k16.params:,}"

    def test_growth_flag(self, tmp_path, capsys):
        rc = main(["analyze", "--growth", "doubling:16", "--out-dir", str(tmp_path)])
        assert rc == EXIT_OK
        assert "doubling" in capsys.readouterr().out

    def test_bad_growth_flag_is_config_error(self, tmp_path, capsys):
        rc = main(["analyze", "--growth", "cubic:7", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_config_key_is_config_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[train]\nmomentum = 0.9\n")
        assert main(["analyze", "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("axis,lo,hi", [("x", 10.24, 0), ("y", 5.12, -5.12), ("z", 1, -3)])
    def test_reversed_grid_range_is_config_error(self, tmp_path, capsys, axis, lo, hi):
        p = tmp_path / "bad.cfg"
        p.write_text(f"[grid]\n{axis}_min = {lo}\n{axis}_max = {hi}\n")
        assert main(["analyze", "--config", str(p), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert f"grid {axis}_max" in capsys.readouterr().err
        assert not (tmp_path / "cost_dense.csv").exists()


class TestGradcheck:
    def test_all_ops_pass(self, capsys):
        rc = main(["gradcheck"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        names = {line.split()[0] for line in out.splitlines()[1:]}
        assert names == {
            "linear_map", "conv2d", "conv2d_stride2", "conv2d_1x1_bias", "conv2d_batch2",
            "conv_transpose2d", "batch_norm", "batch_norm_eval", "batch_norm_relu",
            "batch_norm_relu_eval", "avg_pool2x2", "segment_max_padded_bn",
            "conv_bn_relu", "focal", "smooth_l1_sine", "softmax_ce", "detection_loss",
            "sparse_conv2d", "sparse_conv2d_stride2",
        }


def test_readme_cli_block_parses():
    """Every `densepillars ...` command in README's CLI block is accepted by
    the parser, so a renamed or dropped verb or flag fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.strip() for line in block.replace("\\\n", " ").splitlines()
                if line.strip().startswith("densepillars ")]
    assert len(commands) >= 6
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_verbs_reject_flags_they_ignore(capsys):
    """`infer` takes its model from the checkpoint, so `--backbone` there
    is a usage error rather than a flag that is silently dropped."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["infer", "--backbone", "baseline", "--data-dir", "d",
                                   "--checkpoint", "c.npz"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backbone baseline" in capsys.readouterr().err


class TestSynth:
    def test_writes_scene_files(self, tmp_path, tiny_cfg):
        rc = main(
            ["synth", "--config", tiny_cfg, "--num-scenes", "2",
             "--out-dir", str(tmp_path / "data")]
        )
        assert rc == EXIT_OK
        files = sorted(os.listdir(tmp_path / "data"))
        assert files == [
            "scene_0000.bin", "scene_0000.csv", "scene_0001.bin", "scene_0001.csv",
        ]

    def test_deterministic(self, tmp_path, tiny_cfg):
        for d in ("a", "b"):
            main(["synth", "--config", tiny_cfg, "--num-scenes", "1",
                  "--out-dir", str(tmp_path / d)])
        a = (tmp_path / "a" / "scene_0000.bin").read_bytes()
        b = (tmp_path / "b" / "scene_0000.bin").read_bytes()
        assert a == b

    def test_writes_the_training_scenes(self, tmp_path, tiny_cfg):
        assert main(["synth", "--config", tiny_cfg, "--seed", "5", "--num-scenes", "3",
                     "--out-dir", str(tmp_path / "data")]) == EXIT_OK
        cfg = parse_config(tiny_cfg, {"run.seed": "5", "train.num_scenes": "3"})
        (tmp_path / "want").mkdir()
        for i, scene in enumerate(make_training_scenes(cfg)):
            stem = f"scene_{i:04d}"
            write_kitti_bin(str(tmp_path / "want" / f"{stem}.bin"), scene.cloud)
            write_labels(str(tmp_path / "want" / f"{stem}.csv"), scene.boxes)
        assert sorted(os.listdir(tmp_path / "data")) == sorted(os.listdir(tmp_path / "want"))
        for name in os.listdir(tmp_path / "want"):
            assert ((tmp_path / "data" / name).read_bytes()
                    == (tmp_path / "want" / name).read_bytes()), name

    def test_scene_count_defaults_to_the_config(self, tmp_path, tiny_cfg):
        out = tmp_path / "data"
        assert main(["synth", "--config", tiny_cfg, "--out-dir", str(out)]) == EXIT_OK
        assert len(os.listdir(out)) == 2 * 2  # num_scenes = 2: a .bin and a .csv each


class TestTrainInferEvalRoundtrip:
    def test_full_workflow(self, tmp_path, tiny_cfg, capsys):
        data = str(tmp_path / "data")
        run = str(tmp_path / "run")
        preds = str(tmp_path / "preds")

        assert main(["synth", "--config", tiny_cfg, "--num-scenes", "2",
                     "--out-dir", data]) == EXIT_OK
        assert main(["train", "--config", tiny_cfg, "--out-dir", run]) == EXIT_OK
        assert os.path.exists(os.path.join(run, "checkpoint.npz"))
        assert os.path.exists(os.path.join(run, "loss.csv"))

        assert main(["infer", "--config", tiny_cfg, "--data-dir", data,
                     "--out-dir", preds,
                     "--checkpoint", os.path.join(run, "checkpoint.npz")]) == EXIT_OK
        assert sorted(os.listdir(preds)) == [
            "scene_0000.pred.csv", "scene_0001.pred.csv",
        ]

        capsys.readouterr()
        assert main(["eval", "--config", tiny_cfg, "--data-dir", data,
                     "--pred-dir", preds]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mAP" in out
        assert "AP(R40)" in out

    def test_train_reports_loss_ratio_and_recall(self, tmp_path, tiny_cfg, capsys):
        assert main(["train", "--config", tiny_cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        totals = np.loadtxt(tmp_path / "loss.csv", delimiter=",", skiprows=1)[:, 5]
        (loss,) = [m for m in map(LOSS_LINE.fullmatch, lines) if m]
        first, last, ratio = map(float, loss.groups())
        assert first == pytest.approx(totals[0], abs=1e-3)
        assert last == pytest.approx(totals[-1], abs=1e-3)
        assert ratio == pytest.approx(totals[-1] / totals[0], abs=1e-4)
        recall = [m.groups() for m in map(RECALL_LINE.fullmatch, lines) if m]
        assert {cls for cls, *_ in recall} <= set(CLASSES)
        assert sum(int(total) for _, _, total, _ in recall) == 2  # 2 scenes, 1 box each
        for _, found, total, value in recall:
            assert int(found) <= int(total) and value == f"{int(found) / int(total):.2f}"

    def test_infer_without_clouds_is_io_error(self, tmp_path, tiny_cfg):
        run = str(tmp_path / "run")
        main(["train", "--config", tiny_cfg, "--out-dir", run])
        rc = main(["infer", "--config", tiny_cfg,
                   "--data-dir", str(tmp_path / "nowhere"),
                   "--out-dir", str(tmp_path / "p"),
                   "--checkpoint", os.path.join(run, "checkpoint.npz")])
        assert rc == EXIT_IO

    def test_infer_frame_out_of_range_writes_header_only(self, tmp_path, tiny_cfg):
        run = str(tmp_path / "run")
        data = tmp_path / "data"
        data.mkdir()
        main(["train", "--config", tiny_cfg, "--out-dir", run])
        behind_and_beyond = np.array([[-5.0, 0.0, -1.0, 0.5], [30.0, 2.0, -1.0, 0.1]])
        write_kitti_bin(str(data / "far.bin"), PointCloud(behind_and_beyond))
        rc = main(["infer", "--config", tiny_cfg, "--data-dir", str(data),
                   "--out-dir", str(tmp_path / "p"),
                   "--checkpoint", os.path.join(run, "checkpoint.npz")])
        assert rc == EXIT_OK
        assert (tmp_path / "p" / "far.pred.csv").read_text() == PREDICTION_HEADER + "\n"

    def test_infer_non_finite_point_is_io_error(self, tmp_path, tiny_cfg, capsys):
        run = str(tmp_path / "run")
        data = tmp_path / "data"
        data.mkdir()
        main(["train", "--config", tiny_cfg, "--out-dir", run])
        pts = np.array([[1.0, 0.0, -1.0, 0.5], [2.0, np.inf, -1.0, 0.1]])
        write_kitti_bin(str(data / "bad.bin"), PointCloud(pts))
        rc = main(["infer", "--config", tiny_cfg, "--data-dir", str(data),
                   "--out-dir", str(tmp_path / "p"),
                   "--checkpoint", os.path.join(run, "checkpoint.npz")])
        assert rc == EXIT_IO
        assert "bad.bin: point 1 has a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("key, edit", [
        ("param/head.cls.weight", None),
        ("bnstat/0/mean", lambda a: a[:-1]),
        ("meta/config", None),
        ("meta/version", None),
        ("meta/version", lambda a: np.array(1)),
        ("meta/config", lambda a: np.frombuffer(b'{"run.seed": ', dtype=np.uint8)),
        ("meta/config", lambda a: np.frombuffer(b"\xff\xfe", dtype=np.uint8)),
        ("meta/config", lambda a: np.frombuffer(b"[1, 2]", dtype=np.uint8)),
        ("meta/config", lambda a: np.frombuffer(json.dumps(
            {**json.loads(bytes(a)), "grid.pillar_size": "abc"}).encode(), dtype=np.uint8)),
        ("meta/config", lambda a: np.frombuffer(json.dumps(
            {**json.loads(bytes(a)), "grid.pilar_size": 0.2}).encode(), dtype=np.uint8)),
        ("meta/config", lambda a: np.frombuffer(json.dumps(
            {k: v for k, v in json.loads(bytes(a)).items() if k != "grid.max_pillars"}
        ).encode(), dtype=np.uint8)),
        ("meta/config", lambda a: np.frombuffer(json.dumps(
            {**json.loads(bytes(a)), "architecture.downsample": "avg_pool"}).encode(),
            dtype=np.uint8)),
        ("meta/step", lambda a: np.array(3)),
        ("opt_m/head.cls.weight", lambda a: np.zeros((18, 384, 1, 1), dtype=np.float32)),
        ("param/bogus", lambda a: np.zeros(3, dtype=np.float32)),
    ])
    def test_infer_damaged_checkpoint_is_io_error(self, tmp_path, tiny_cfg, capsys,
                                                  key, edit):
        run = tmp_path / "run"
        main(["train", "--config", tiny_cfg, "--out-dir", str(run)])
        with np.load(run / "checkpoint.npz") as z:
            state = {k: z[k] for k in z.files}
        if edit is None:
            del state[key]
        else:
            state[key] = edit(state.get(key))
        np.savez(run / "damaged.npz", **state)
        rc = main(["infer", "--config", tiny_cfg, "--data-dir", str(tmp_path),
                   "--out-dir", str(tmp_path / "p"),
                   "--checkpoint", str(run / "damaged.npz")])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert "damaged.npz: checkpoint" in err and repr(key) in err

    @pytest.mark.parametrize("unreadable", [
        lambda ckpt: b"class,cx,cy\n",
        lambda ckpt: ckpt[:100_000],
        lambda ckpt: b"",
    ], ids=["text", "truncated", "empty"])
    def test_infer_unreadable_checkpoint_is_io_error(self, tmp_path, tiny_cfg, capsys,
                                                     unreadable):
        run = tmp_path / "run"
        main(["train", "--config", tiny_cfg, "--out-dir", str(run)])
        bad = run / "bad.npz"
        bad.write_bytes(unreadable((run / "checkpoint.npz").read_bytes()))
        rc = main(["infer", "--config", tiny_cfg, "--data-dir", str(tmp_path),
                   "--out-dir", str(tmp_path / "p"), "--checkpoint", str(bad)])
        assert rc == EXIT_IO
        assert f"{bad}: not a readable checkpoint" in capsys.readouterr().err

    def test_infer_bare_npy_checkpoint_is_io_error(self, tmp_path, tiny_cfg, capsys):
        bare = tmp_path / "a.npy"
        np.save(bare, np.zeros(3, dtype=np.float32))
        rc = main(["infer", "--config", tiny_cfg, "--data-dir", str(tmp_path),
                   "--out-dir", str(tmp_path / "p"), "--checkpoint", str(bare)])
        assert rc == EXIT_IO
        assert f"{bare}: not a readable checkpoint" in capsys.readouterr().err

    def test_infer_missing_checkpoint_is_io_error(self, tmp_path, tiny_cfg):
        rc = main(["infer", "--config", tiny_cfg, "--data-dir", str(tmp_path),
                   "--out-dir", str(tmp_path / "p"),
                   "--checkpoint", str(tmp_path / "missing.npz")])
        assert rc == EXIT_IO

    def test_eval_without_labels_is_io_error(self, tmp_path, tiny_cfg):
        rc = main(["eval", "--config", tiny_cfg,
                   "--data-dir", str(tmp_path / "nowhere"),
                   "--pred-dir", str(tmp_path)])
        assert rc == EXIT_IO

    def test_eval_missing_pred_dir_is_io_error(self, tmp_path, tiny_cfg, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "scene_0000.csv").write_text(
            "class,cx,cy,cz,w,l,h,yaw\nCar,1,0,-1,1.6,3.9,1.56,0\n"
        )
        nowhere = tmp_path / "nowhere"
        rc = main(["eval", "--config", tiny_cfg, "--data-dir", str(data),
                   "--pred-dir", str(nowhere)])
        assert rc == EXIT_IO
        assert f"--pred-dir {nowhere} is not a directory" in capsys.readouterr().err
        # a frame file missing from an existing directory is a frame with no detections
        nowhere.mkdir()
        rc = main(["eval", "--config", tiny_cfg, "--data-dir", str(data),
                   "--pred-dir", str(nowhere)])
        assert rc == EXIT_OK
        assert re.search(r"^Car +AP\(R40\) = 0\.0000$", capsys.readouterr().out, re.M)

    def test_eval_corrupt_prediction_file_is_io_error(self, tmp_path, tiny_cfg):
        data = tmp_path / "data"
        preds = tmp_path / "preds"
        data.mkdir()
        preds.mkdir()
        (data / "scene_0000.csv").write_text(
            "class,cx,cy,cz,w,l,h,yaw\nCar,1,0,-1,1.6,3.9,1.56,0\n"
        )
        (preds / "scene_0000.pred.csv").write_text("not,a,prediction,file\n")
        rc = main(["eval", "--config", tiny_cfg, "--data-dir", str(data),
                   "--pred-dir", str(preds)])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("label_row, pred_row, bad_file", [
        ("Car,nan,0,-1,1.6,3.9,1.56,0", "Car,1,0,-1,1.6,3.9,1.56,0,0.9", "scene_0000.csv:2"),
        ("Car,1,0,-1,1.6,3.9,1.56,0", "Car,1,0,-1,1.6,3.9,1.56,inf,0.9",
         "scene_0000.pred.csv:2"),
    ])
    def test_eval_non_finite_value_is_io_error(self, tmp_path, tiny_cfg, capsys,
                                               label_row, pred_row, bad_file):
        data = tmp_path / "data"
        preds = tmp_path / "preds"
        data.mkdir()
        preds.mkdir()
        (data / "scene_0000.csv").write_text(f"class,cx,cy,cz,w,l,h,yaw\n{label_row}\n")
        (preds / "scene_0000.pred.csv").write_text(f"{PREDICTION_HEADER}\n{pred_row}\n")
        rc = main(["eval", "--config", tiny_cfg, "--data-dir", str(data),
                   "--pred-dir", str(preds)])
        assert rc == EXIT_IO
        assert bad_file in capsys.readouterr().err


class TestLossCsvDeterminism:
    def test_two_train_runs_identical(self, tmp_path, tiny_cfg):
        for d in ("a", "b"):
            main(["train", "--config", tiny_cfg, "--out-dir", str(tmp_path / d)])
        a = (tmp_path / "a" / "loss.csv").read_text()
        b = (tmp_path / "b" / "loss.csv").read_text()
        assert a == b

    def test_checkpoint_forward_matches_after_reload(self, tmp_path, tiny_cfg):
        from densepillars.train import load_checkpoint, make_training_scenes

        run = str(tmp_path / "run")
        main(["train", "--config", tiny_cfg, "--out-dir", run])
        p1, cfg = load_checkpoint(os.path.join(run, "checkpoint.npz"))
        p2, _ = load_checkpoint(os.path.join(run, "checkpoint.npz"))
        p1.set_mode("eval")
        p2.set_mode("eval")
        scene = make_training_scenes(cfg)[0]
        for ta, tb in zip(p1.forward(scene.cloud), p2.forward(scene.cloud)):
            np.testing.assert_array_equal(ta.data, tb.data)
