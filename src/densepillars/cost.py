"""Analytic parameter and multiply-accumulate counting for every pipeline
component. One MAC is reported as one FLOP; batch-norm, activation, and
pooling element counts go to a separate column instead of the headline."""

from __future__ import annotations

from dataclasses import dataclass

from .backbones import BaselineBackboneSpec, DenseBackboneSpec
from .detector import NECK_IN_CHANNELS, NECK_OUT_CHANNELS, NECK_STRIDES, AnchorConfig
from .encoder import PFN_CHANNELS, GridSpec
from .pointcloud import CLASSES
from .tensor import ConfigurationError


def _conv(c_in, c_out, k, h_out, w_out, bias=False):
    weights = c_out * c_in * k * k
    params = weights + (c_out if bias else 0)
    macs = weights * h_out * w_out
    return params, macs


def _bn(c, h, w):
    return 2 * c, c * h * w  # params, element ops


@dataclass
class ComponentCost:
    component: str
    params: int
    macs: int
    elem_ops: int = 0


@dataclass
class CostReport:
    rows: list

    @property
    def totals(self):
        return (
            sum(r.params for r in self.rows),
            sum(r.macs for r in self.rows),
        )

    def row(self, component):
        for r in self.rows:
            if r.component == component:
                return r
        raise KeyError(component)

    def render_table(self):
        lines = [f"{'component':<22}{'params':>14}{'MACs':>16}{'elem ops':>14}"]
        for r in self.rows:
            lines.append(
                f"{r.component:<22}{r.params:>14,}{r.macs:>16,}{r.elem_ops:>14,}"
            )
        p, m = self.totals
        lines.append(f"{'total':<22}{p:>14,}{m:>16,}")
        return "\n".join(lines)

    def to_csv(self):
        out = ["component,params,macs"]
        out += [f"{r.component},{r.params},{r.macs}" for r in self.rows]
        return "\n".join(out) + "\n"


def encoder_cost(grid: GridSpec) -> ComponentCost:
    c = PFN_CHANNELS
    lin = 9 * c
    bn_p = 2 * c
    slots = grid.max_pillars * grid.max_points_per_pillar
    return ComponentCost("encoder", lin + bn_p, lin * slots, 2 * c * slots)


def dense_backbone_cost(spec: DenseBackboneSpec, h: int, w: int) -> ComponentCost:
    params = 0
    macs = 0
    elem = 0
    c_in = PFN_CHANNELS
    for b in range(1, spec.n_blocks + 1):
        if h % 2 or w % 2:
            raise ConfigurationError("resolution not divisible by 2 at every block")
        k = spec.growth.rate(b)
        n = spec.layers_per_block[b - 1]
        for i in range(n):
            p, m = _conv(c_in if i == 0 else k, k, 3, h, w)
            bp, be = _bn(k, h, w)
            params += p + bp
            macs += m
            elem += be + k * h * w  # bn + relu
        concat_c = c_in + n * k
        c_out = spec.transition_out_channels[b - 1]
        p, m = _conv(concat_c, c_out, 1, h, w)
        bp, be = _bn(c_out, h, w)
        params += p + bp
        macs += m
        elem += be + c_out * h * w
        h, w = h // 2, w // 2
        elem += c_out * h * w * 4  # average pooling reads
        c_in = c_out
    return ComponentCost("backbone", params, macs, elem)


def baseline_backbone_cost(spec: BaselineBackboneSpec, h: int, w: int) -> ComponentCost:
    params = 0
    macs = 0
    elem = 0
    c_in = PFN_CHANNELS
    for b in range(spec.n_blocks):
        if h % 2 or w % 2:
            raise ConfigurationError("resolution not divisible by 2 at every block")
        h, w = h // 2, w // 2
        c = spec.channels[b]
        for i in range(spec.layers_per_block[b] + 1):
            p, m = _conv(c_in if i == 0 else c, c, 3, h, w)
            bp, be = _bn(c, h, w)
            params += p + bp
            macs += m
            elem += be + c * h * w
            c_in = c
    return ComponentCost("backbone", params, macs, elem)


def neck_cost(tap_sizes) -> ComponentCost:
    params = 0
    macs = 0
    elem = 0
    for c_in, stride, c_out, (th, tw) in zip(
        NECK_IN_CHANNELS, NECK_STRIDES, NECK_OUT_CHANNELS, tap_sizes
    ):
        w_count = c_in * c_out * stride * stride
        params += w_count + 2 * c_out
        macs += w_count * th * tw
        elem += 3 * c_out * th * stride * tw * stride  # bn + relu at output res
    return ComponentCost("neck", params, macs, elem)


def head_cost(h: int, w: int) -> ComponentCost:
    """One 1x1 conv with bias over the neck's output, whose outputs stack
    the class, box and direction maps of each anchor of a cell."""
    c_out = AnchorConfig.anchors_per_cell * (len(CLASSES) + 7 + 2)
    params, macs = _conv(sum(NECK_OUT_CHANNELS), c_out, 1, h, w, bias=True)
    return ComponentCost("head", params, macs, 0)


def backbone_tap_sizes(h: int, w: int):
    """Sizes of the three taps every backbone emits, at strides 2, 4 and 8."""
    return [(h >> b, w >> b) for b in (1, 2, 3)]


def pipeline_report(grid: GridSpec, backbone_spec) -> CostReport:
    """Four-row report for one backbone choice at the grid's input shape."""
    h, w = grid.height, grid.width
    if isinstance(backbone_spec, DenseBackboneSpec):
        backbone = dense_backbone_cost(backbone_spec, h, w)
    elif isinstance(backbone_spec, BaselineBackboneSpec):
        backbone = baseline_backbone_cost(backbone_spec, h, w)
    else:
        raise ConfigurationError("unknown backbone spec type")
    taps = backbone_tap_sizes(h, w)
    rows = [
        encoder_cost(grid),
        backbone,
        neck_cost(taps),
        head_cost(h // 2, w // 2),
    ]
    return CostReport(rows)


def comparison_report(grid: GridSpec, dense_spec: DenseBackboneSpec,
                      baseline_spec: BaselineBackboneSpec):
    """Reports for both backbones plus dense/baseline ratios."""
    dense = pipeline_report(grid, dense_spec)
    base = pipeline_report(grid, baseline_spec)
    d = dense.row("backbone")
    b = base.row("backbone")
    ratios = {
        "param_ratio": b.params / d.params,
        "mac_ratio": b.macs / d.macs,
    }
    return dense, base, ratios
