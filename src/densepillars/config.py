"""Run configuration: section/key files with typed validation and provenance."""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field

from .backbones import GrowthSchedule
from .bev import EvalConfig
from .encoder import GridSpec
from .tensor import ConfigurationError


def _positive(x):
    return x > 0


def _non_negative(x):
    return x >= 0


def _in_unit(x):
    return 0.0 <= x <= 1.0


# section.key -> (type, default, validator or allowed values)
SCHEMA = {
    "run.seed": (int, 0, _non_negative),
    "architecture.backbone": (str, "dense", ("dense", "baseline")),
    "architecture.downsample": (str, "avg_pool", ("avg_pool", "strided_conv")),
    "growth.mode": (str, "table_matched", ("fixed", "doubling", "table_matched")),
    "growth.k": (int, 32, _positive),
    "grid.x_min": (float, 0.0, None),
    "grid.x_max": (float, 69.12, None),
    "grid.y_min": (float, -39.68, None),
    "grid.y_max": (float, 39.68, None),
    "grid.z_min": (float, -3.0, None),
    "grid.z_max": (float, 1.0, None),
    "grid.pillar_size": (float, 0.16, _positive),
    "grid.max_points_per_pillar": (int, 32, _positive),
    "grid.max_pillars": (int, 12000, _positive),
    "train.steps": (int, 500, _positive),
    "train.lr": (float, 0.001, _positive),
    "train.eta_min": (float, 0.0, _non_negative),
    "train.weight_decay": (float, 0.01, _non_negative),
    "train.batch_size": (int, 2, _positive),
    "train.num_scenes": (int, 8, _positive),
    "train.boxes_per_scene": (int, 3, _positive),
    "eval.score_threshold": (float, 0.1, _in_unit),
    "eval.nms_iou": (float, 0.01, _in_unit),
    "eval.iou_car": (float, 0.7, _in_unit),
    "eval.iou_pedestrian": (float, 0.5, _in_unit),
    "eval.iou_cyclist": (float, 0.5, _in_unit),
    "eval.mode": (str, "BEV", ("BEV", "3D")),
    "paths.out_dir": (str, ".", None),
    "paths.data_dir": (str, ".", None),
}


def _convert(key, raw):
    typ, _, check = SCHEMA[key]
    try:
        if typ is int:
            val = int(raw)
        elif typ is float:
            val = float(raw)
        else:
            val = str(raw)
    except ValueError:
        raise ConfigurationError(f"malformed value for {key}: {raw!r}") from None
    if check is not None:
        ok = val in check if isinstance(check, tuple) else check(val)
        if not ok:
            raise ConfigurationError(f"out-of-range value for {key}: {raw!r}")
    return val


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def grid_spec(self) -> GridSpec:
        v = self.values
        return GridSpec(
            x_range=(v["grid.x_min"], v["grid.x_max"]),
            y_range=(v["grid.y_min"], v["grid.y_max"]),
            z_range=(v["grid.z_min"], v["grid.z_max"]),
            pillar_size=(v["grid.pillar_size"], v["grid.pillar_size"]),
            max_points_per_pillar=v["grid.max_points_per_pillar"],
            max_pillars=v["grid.max_pillars"],
        )

    def growth_schedule(self) -> GrowthSchedule:
        return GrowthSchedule(self.values["growth.mode"], self.values["growth.k"])

    def eval_config(self) -> EvalConfig:
        v = self.values
        return EvalConfig(
            iou_thresholds={
                "Car": v["eval.iou_car"],
                "Pedestrian": v["eval.iou_pedestrian"],
                "Cyclist": v["eval.iou_cyclist"],
            },
            mode=v["eval.mode"],
        )

    def to_json(self) -> str:
        return json.dumps(self.values, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValueError(f"expected a JSON object, got {type(values).__name__}")
        cfg = RunConfig()
        for key in SCHEMA:
            cfg.values[key] = values.get(key, SCHEMA[key][1])
            cfg.provenance[key] = "checkpoint"
        return cfg


def parse_config(path=None, overrides=None) -> RunConfig:
    """Resolve defaults, then the config file, then flag overrides."""
    cfg = RunConfig()
    for key, (_, default, _) in SCHEMA.items():
        cfg.values[key] = default
        cfg.provenance[key] = "default"

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path, "r", encoding="utf-8") as f:
                parser.read_file(f)
        except configparser.Error as e:
            raise ConfigurationError(f"{path}: {e}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                full = f"{section}.{key}"
                if full not in SCHEMA:
                    raise ConfigurationError(f"{path}: unknown key {full!r}")
                cfg.values[full] = _convert(full, raw)
                cfg.provenance[full] = "file"

    for key, raw in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigurationError(f"unknown key {key!r}")
        cfg.values[key] = _convert(key, raw) if isinstance(raw, str) else raw
        cfg.provenance[key] = "flag"
    return cfg
