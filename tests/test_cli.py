import os

import numpy as np
import pytest

from densepillars.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from densepillars.pointcloud import PREDICTION_HEADER, PointCloud, write_kitti_bin

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


class TestGradcheck:
    def test_all_ops_pass(self, capsys):
        rc = main(["gradcheck"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for op in ("conv2d", "conv2d_1x1_bias", "conv2d_batch2", "conv_transpose2d",
                   "batch_norm", "batch_norm_eval", "max_over_axis_masked", "conv_bn_relu"):
            assert op in out


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
        p1, _, cfg = load_checkpoint(os.path.join(run, "checkpoint.npz"))
        p2, _, _ = load_checkpoint(os.path.join(run, "checkpoint.npz"))
        p1.set_mode("eval")
        p2.set_mode("eval")
        scene = make_training_scenes(cfg)[0]
        for ta, tb in zip(p1.forward(scene.cloud), p2.forward(scene.cloud)):
            np.testing.assert_array_equal(ta.data, tb.data)
