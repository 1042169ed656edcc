"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/test_run.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk-train", "kitti-infer", "kitti-eval")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def bench(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=600,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    line = result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_workloads_are_the_declared_ones():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


def test_second_seed_gives_other_inputs_and_passes_checks():
    """Seeds 1 and 33 share a recorded variant; seed 2 does not."""
    observed = {}
    for seed in ("1", "33", "2"):
        result_line(bench(ROOT, "--workload", "kitti-eval", "--seed", seed,
                          "--seconds", "0.1", "--smoke"))
        with open(os.path.join(HERE, "out", f"kitti-eval-seed{seed}-trace0.json")) as f:
            observed[seed] = json.load(f)["observed"]
    assert observed["1"] == observed["33"]
    assert observed["1"] != observed["2"]


def test_wrong_output_fails_the_run(tmp_path):
    """A reference that disagrees with the program makes the run exit 1."""
    root = tmp_path / "checkout"
    shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(".git", "out", "__pycache__"))
    ref_path = root / "perfbench" / "reference.json"
    refs = json.loads(ref_path.read_text())
    refs["smoke"]["kitti-eval"]["5"]["kept"][0] += 1
    ref_path.write_text(json.dumps(refs))
    proc = bench(root, "--workload", "kitti-eval", "--seed", "5", "--seconds", "0.1", "--smoke")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench(tmp_path, "--workload", "desk-train", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_the_program_and_nests_spans():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import spans
        from densepillars import bev, detector, pointcloud

        originals = {name: getattr(bev, name) for name in ("rotated_iou_bev", "nms_bev")}
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert bev.rotated_iou_bev is not originals["rotated_iou_bev"]
            box = pointcloud.Box3D(0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0)
            far = pointcloud.Box3D(9.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0)
            dets = [pointcloud.Detection(b, s, "Car") for b, s in ((box, 0.9), (far, 0.8))]
            kept = detector.nms_bev(dets, 0.01)
        finally:
            tracer.uninstall()
        assert {name: getattr(bev, name) for name in originals} == originals
        assert len(kept) == 2
        arr = tracer.arrays()
        names = [tracer.names[i] for i in arr["name"]]
        assert names == ["bev.nms", "bev.iou"]  # one IoU: the second box against the first
        assert arr["parent"].tolist() == [-1, 0]
        assert arr["self"][0] == pytest.approx(arr["duration"][0] - arr["duration"][1])
        assert tracer.counts[("bev.nms", "setup")] == {"calls": 1, "candidates": 2, "kept": 2}
        assert tracer.counts[("bev.iou", "setup")] == {"calls": 1, "nonzero": 0}
    finally:
        del sys.path[:2]
