"""Span tracing around the public functions of the densepillars modules.

Tracing is installed from outside the program: each target function is
replaced, at the attribute through which the program calls it, by a wrapper
that records one span per call (name, start, end, parent span, item id and
backbone tag). Uninstalling restores the original attributes, so an untraced
item runs exactly the program's own code. Spans stay in memory in flat
arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute path, span name). A function imported by name into
# another module is wrapped at every attribute the program calls it through.
TARGETS = (
    ("densepillars.pointcloud", "read_kitti_bin", "pointcloud.read_bin"),
    ("densepillars.pointcloud", "read_labels", "pointcloud.csv"),
    ("densepillars.pointcloud", "read_predictions", "pointcloud.csv"),
    ("densepillars.pointcloud", "write_labels", "pointcloud.csv"),
    ("densepillars.pointcloud", "write_predictions", "pointcloud.csv"),
    ("densepillars.encoder", "pillarize", "encoder.pillarize"),
    ("densepillars.encoder", "decorate", "encoder.decorate"),
    ("densepillars.encoder", "pfn_forward", "encoder.pfn"),
    ("densepillars.encoder", "scatter_to_pseudo_image", "encoder.scatter"),
    ("densepillars.tensor", "conv2d", "tensor.conv2d"),
    ("densepillars.tensor", "conv_transpose2d", "tensor.conv_transpose2d"),
    ("densepillars.tensor", "batch_norm", "tensor.batch_norm"),
    ("densepillars.tensor", "Tensor.backward", "train.backward"),
    ("densepillars.backbones", "DenseBackbone.forward", "backbones.forward"),
    ("densepillars.backbones", "BaselineBackbone.forward", "backbones.forward"),
    ("densepillars.detector", "FPN.forward", "detector.neck"),
    ("densepillars.detector", "AnchorHead.forward", "detector.head"),
    ("densepillars.model", "detection_loss", "detector.loss"),
    ("densepillars.model", "assign_targets", "detector.assign"),
    ("densepillars.detector", "assign_targets", "detector.assign"),
    ("densepillars.model", "postprocess", "detector.postprocess"),
    ("densepillars.detector", "postprocess", "detector.postprocess"),
    ("densepillars.detector", "rotated_iou_bev", "bev.iou"),
    ("densepillars.bev", "rotated_iou_bev", "bev.iou"),
    ("densepillars.bev", "iou_3d", "bev.iou"),
    ("densepillars.detector", "nms_bev", "bev.nms"),
    ("densepillars.bev", "nms_bev", "bev.nms"),
    ("densepillars.bev", "evaluate_set", "bev.evaluate"),
    ("densepillars.model", "DetectionPipeline.loss_encoded", "train.forward"),
    ("densepillars.model", "DetectionPipeline.predict", "model.predict"),
    ("densepillars.optim", "adamw_step", "optim.adamw"),
)


def _owner(module_name, path):
    obj = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.tags = [""]
        self.tag = 0  # index into self.tags: backbone of the current op
        self.item = -1  # current item id; -1 outside timed items
        self.phase = "setup"  # setup | item | pass (a per-pass op outside items)
        self._stack = []
        self._next_id = 0
        self.span_id = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.item_id = array("q")
        self.tag_id = array("i")
        self.start = array("d")
        self.end = array("d")
        # (span name, phase) -> {counter: summed value}, filled by the
        # per-target hooks below
        self.counts = {}
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            return
        for module_name, path, span in TARGETS:
            owner, attr = _owner(module_name, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def set_tag(self, tag):
        if tag not in self.tags:
            self.tags.append(tag)
        self.tag = self.tags.index(tag)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span):
        nid = self._name_id(span)
        hook = HOOKS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            stack = self._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_id.append(sid)
                self.name.append(nid)
                self.parent.append(parent)
                self.item_id.append(self.item)
                self.tag_id.append(self.tag)
                self.start.append(t0)
                self.end.append(t1)
            if hook is not None:
                hook(self.counts.setdefault((span, self.phase), {}), args, out)
            return out

        return traced

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Spans ordered by span id, with inclusive and self durations."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        sid = np.frombuffer(self.span_id, dtype=np.int64)[order]
        out = {
            "span_id": sid,
            "name": np.frombuffer(self.name, dtype=np.int32)[order],
            "parent": np.frombuffer(self.parent, dtype=np.int64)[order],
            "item": np.frombuffer(self.item_id, dtype=np.int64)[order],
            "tag": np.frombuffer(self.tag_id, dtype=np.int32)[order],
            "start": np.frombuffer(self.start, dtype=np.float64)[order],
            "end": np.frombuffer(self.end, dtype=np.float64)[order],
        }
        dur = out["end"] - out["start"]
        # span ids are dense from 0, so a parent id indexes the sorted arrays
        child = np.zeros_like(dur)
        has_parent = out["parent"] >= 0
        np.add.at(child, out["parent"][has_parent], dur[has_parent])
        out["duration"] = dur
        out["self"] = dur - child
        return out

    def save(self, path):
        arrs = self.arrays()
        np.savez(path, names=np.array(self.names), tags=np.array(self.tags), **arrs)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _pillarize_hook(counts, args, out):
    cloud, grid = args[0], args[1]
    pts = cloud.points.astype(np.float64)  # pillarize compares in float64
    in_range = (
        (pts[:, 0] >= grid.x_range[0]) & (pts[:, 0] < grid.x_range[1])
        & (pts[:, 1] >= grid.y_range[0]) & (pts[:, 1] < grid.y_range[1])
        & (pts[:, 2] >= grid.z_range[0]) & (pts[:, 2] < grid.z_range[1])
    )
    _add(counts, "calls", 1)
    _add(counts, "points", pts.shape[0])
    _add(counts, "points_in_range", int(in_range.sum()))
    _add(counts, "pillars", out.features.shape[0])
    _add(counts, "occupancy", out.features.shape[0] / (grid.height * grid.width))


def _assign_hook(counts, args, out):
    _add(counts, "calls", 1)
    _add(counts, "positives", out.num_positives)


def _nms_hook(counts, args, out):
    _add(counts, "calls", 1)
    _add(counts, "candidates", len(args[0]))
    _add(counts, "kept", len(out))


def _iou_hook(counts, args, out):
    _add(counts, "calls", 1)
    _add(counts, "nonzero", out > 0.0)


HOOKS = {
    "encoder.pillarize": _pillarize_hook,
    "detector.assign": _assign_hook,
    "bev.nms": _nms_hook,
    "bev.iou": _iou_hook,
}
