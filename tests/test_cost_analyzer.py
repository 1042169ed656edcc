import numpy as np
import pytest

from densepillars.backbones import (
    BaselineBackbone,
    BaselineBackboneSpec,
    DenseBackbone,
    DenseBackboneSpec,
    GrowthSchedule,
    build_backbone,
)
from densepillars.cost import (
    backbone_tap_sizes,
    baseline_backbone_cost,
    comparison_report,
    dense_backbone_cost,
    encoder_cost,
    head_cost,
    neck_cost,
    pipeline_report,
)
from densepillars.detector import FPN, AnchorHead
from densepillars.encoder import GridSpec, PFNWeights
from densepillars.tensor import ConfigurationError
from cost_oracle import runtime_param_count

KITTI = GridSpec()  # 496 x 432 pseudo-image


class TestComponentCounts:
    def test_encoder_params(self):
        c = encoder_cost(KITTI)
        # 9 -> 64 linear (no bias) plus batch-norm scale and shift
        assert c.params == 9 * 64 + 2 * 64 == 704

    def test_encoder_macs(self):
        c = encoder_cost(KITTI)
        assert c.macs == 9 * 64 * 12000 * 32

    def test_head_params(self):
        c = head_cost(248, 216)
        # 1x1 convs with bias: 6*(3 + 7 + 2) = 72 output channels total
        assert c.params == 384 * 72 + 72 == 27_720

    def test_head_macs(self):
        c = head_cost(248, 216)
        assert c.macs == 384 * 72 * 248 * 216

    def test_neck_params(self):
        c = neck_cost(backbone_tap_sizes(496, 432))
        expected = (
            64 * 128 * 1 + 2 * 128
            + 128 * 128 * 4 + 2 * 128
            + 256 * 128 * 16 + 2 * 128
        )
        assert c.params == expected == 598_784

    def test_neck_macs(self):
        c = neck_cost(backbone_tap_sizes(496, 432))
        expected = (
            64 * 128 * 1 * 248 * 216
            + 128 * 128 * 4 * 124 * 108
            + 256 * 128 * 16 * 62 * 54
        )
        assert c.macs == expected

    def test_tap_sizes(self):
        assert backbone_tap_sizes(496, 432) == [(248, 216), (124, 108), (62, 54)]

    def test_odd_resolution_rejected(self):
        with pytest.raises(ConfigurationError):
            dense_backbone_cost(DenseBackboneSpec(), 6, 7)


class TestBackboneTableValues:
    """Headline numbers for the two backbones on the full-size grid."""

    def test_dense_params(self):
        c = dense_backbone_cost(DenseBackboneSpec(), 496, 432)
        assert c.params == 468_992
        assert c.params / 1e6 == pytest.approx(0.47, rel=0.03)

    def test_dense_macs(self):
        c = dense_backbone_cost(DenseBackboneSpec(), 496, 432)
        assert c.macs == 19_089_063_936
        assert c.macs / 1e9 == pytest.approx(19.09, rel=0.05)

    def test_baseline_params(self):
        c = baseline_backbone_cost(BaselineBackboneSpec(), 496, 432)
        assert c.params == 4_207_616
        assert c.params / 1e6 == pytest.approx(4.2, rel=0.03)

    def test_baseline_macs(self):
        c = baseline_backbone_cost(BaselineBackboneSpec(), 496, 432)
        assert c.macs == 29_620_961_280
        assert c.macs / 1e9 == pytest.approx(29.62, rel=0.05)

    def test_ratios(self):
        _, _, ratios = comparison_report(KITTI, DenseBackboneSpec(), BaselineBackboneSpec())
        assert 8.5 <= ratios["param_ratio"] <= 9.5
        assert 1.45 <= ratios["mac_ratio"] <= 1.6


class TestGrowthScheduleOrdering:
    def _params(self, growth):
        return dense_backbone_cost(DenseBackboneSpec(growth=growth), 496, 432).params

    def test_fixed_below_table_below_doubling(self):
        fixed = self._params(GrowthSchedule("fixed", 32))
        table = self._params(GrowthSchedule("table_matched"))
        doubling = self._params(GrowthSchedule("doubling", 32))
        assert fixed < table < doubling

    def test_fixed_monotone_in_rate(self):
        ps = [self._params(GrowthSchedule("fixed", k)) for k in (8, 16, 32, 64)]
        assert ps == sorted(ps)
        assert len(set(ps)) == 4

    def test_doubling_32_magnitude(self):
        p = self._params(GrowthSchedule("doubling", 32))
        assert p / 1e6 == pytest.approx(1.21, rel=0.05)


class TestRuntimeAgreement:
    """Analytic counts must equal the parameters a live network allocates."""

    def test_dense_backbone(self):
        spec = DenseBackboneSpec()
        bb = DenseBackbone(spec, seed=0)
        assert runtime_param_count(bb.named_params()) == dense_backbone_cost(
            spec, 496, 432
        ).params

    def test_baseline_backbone(self):
        spec = BaselineBackboneSpec()
        bb = BaselineBackbone(spec, seed=0)
        assert runtime_param_count(bb.named_params()) == baseline_backbone_cost(
            spec, 496, 432
        ).params

    def test_neck(self):
        neck = FPN(seed=0)
        analytic = neck_cost(backbone_tap_sizes(496, 432))
        assert runtime_param_count(neck.named_params()) == analytic.params

    def test_head(self):
        head = AnchorHead(seed=0)
        analytic = head_cost(248, 216)
        assert runtime_param_count(head.named_params()) == analytic.params

    def test_encoder(self):
        w = PFNWeights.create(np.random.default_rng(0))
        assert runtime_param_count(w.named_params()) == encoder_cost(KITTI).params

    def test_random_dense_variants(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            spec = DenseBackboneSpec(growth=GrowthSchedule("fixed", int(rng.integers(4, 48))))
            bb = DenseBackbone(spec, seed=0)
            assert runtime_param_count(bb.named_params()) == dense_backbone_cost(
                spec, 496, 432
            ).params


class TestReportFormat:
    def test_rows_and_totals(self):
        report = pipeline_report(KITTI, DenseBackboneSpec())
        assert [r.component for r in report.rows] == [
            "encoder",
            "backbone",
            "neck",
            "head",
        ]
        p, m = report.totals
        assert p == sum(r.params for r in report.rows)
        assert m == sum(r.macs for r in report.rows)

    def test_row_lookup(self):
        report = pipeline_report(KITTI, DenseBackboneSpec())
        assert report.row("neck").params == 598_784
        with pytest.raises(KeyError):
            report.row("bogus")

    def test_csv_roundtrip(self):
        report = pipeline_report(KITTI, DenseBackboneSpec())
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "component,params,macs"
        assert len(lines) == 5
        name, p, m = lines[2].split(",")
        assert name == "backbone"
        assert int(p) == report.row("backbone").params
        assert int(m) == report.row("backbone").macs

    def test_table_mentions_totals(self):
        text = pipeline_report(KITTI, DenseBackboneSpec()).render_table()
        assert "total" in text
        assert "backbone" in text

    def test_element_ops_not_in_headline(self):
        report = pipeline_report(KITTI, DenseBackboneSpec())
        assert report.row("backbone").elem_ops > 0
        _, macs = report.totals
        assert macs == sum(r.macs for r in report.rows)

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(ConfigurationError):
            pipeline_report(KITTI, object())


class TestBuilderConsistency:
    def test_build_backbone_matches_cost_for_growth(self):
        for mode, k in (("fixed", 16), ("doubling", 16), ("table_matched", 32)):
            g = GrowthSchedule(mode, k)
            bb = build_backbone("dense", growth=g)
            assert runtime_param_count(bb.named_params()) == dense_backbone_cost(
                DenseBackboneSpec(growth=g), 496, 432
            ).params
