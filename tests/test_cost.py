from __future__ import annotations

import json
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from refta.backends import TokenUsage
from refta.cost import CostModel, api_cost, cost_report, local_cost, round_dollars


def _usage(inp, out):
    return TokenUsage(inp, out, "backend-reported")


STANDARD = CostModel(input_rate="1.25", output_rate="10.0")


class TestApiCost:
    def test_zero(self):
        assert api_cost(_usage(0, 0), STANDARD) == 0

    def test_unit_definition(self):
        model = CostModel(input_rate="1.25", output_rate="10.0")
        assert api_cost(_usage(1_000_000, 0), model) == Decimal("1.25")

    def test_observed_token_mix(self):
        # 23k input + 191k output at 1.25/10 per million:
        # 0.02875 + 1.91 = 1.93875, reported as 1.9388
        cost = api_cost(_usage(23_000, 191_000), STANDARD)
        assert cost == Decimal("1.93875")
        assert round_dollars(cost) == pytest.approx(1.9388, abs=1e-6)

    @given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9))
    def test_linear_in_token_counts(self, a, b, c):
        base = api_cost(_usage(a, c), STANDARD)
        more = api_cost(_usage(a + b, c), STANDARD)
        assert more - base == Decimal(b) * STANDARD.input_rate / Decimal(1_000_000)


class TestLocalCost:
    def test_hourly_plus_power(self):
        model = CostModel(input_rate=0, output_rate=0,
                          fixed_hourly="0.50", power_rate="0.10", power_kw="0.3")
        # 18 minutes at $0.50/h plus 0.3 kW at $0.10/kWh:
        # 0.3h*0.5 + 0.3h*0.3*0.1 = 0.159
        cost = local_cost(18 * 60, model)
        assert cost == Decimal("0.159")

    def test_zero_minutes(self):
        model = CostModel(input_rate=0, output_rate=0, fixed_hourly="0.50")
        assert local_cost(0, model) == 0

    def test_cloud_hourly_only(self):
        model = CostModel(input_rate=0, output_rate=0, fixed_hourly="0.79")
        assert local_cost(3600, model) == Decimal("0.79")

    def test_requires_hourly_rate(self):
        with pytest.raises(ValueError):
            local_cost(60, STANDARD)


class TestCostModelValidation:
    def test_negative_rate(self):
        with pytest.raises(ValueError):
            CostModel(input_rate="-1", output_rate="0")

    def test_discount_range(self):
        with pytest.raises(ValueError):
            CostModel(input_rate="1", output_rate="1", batching_discount="1.5")

    def test_power_kw_without_power_rate(self):
        with pytest.raises(ValueError, match="power_rate"):
            CostModel(input_rate="1", output_rate="1", fixed_hourly="0.5", power_kw="0.3")

    @pytest.mark.parametrize("settings", [
        {"input_rate": "abc"},
        {"input_rate": "nan"},
        {"output_rate": "inf"},
        {"output_rate": -1},
        {"fixed_hourly": "-5"},
        {"fixed_hourly": "0.5", "power_rate": "0.1", "power_kw": "-0.3"},
        {"fixed_hourly": "0.5", "power_rate": "0.1"},
        {"power_rate": "0.1", "power_kw": "0.3"},
    ], ids=["not-a-number", "nan", "inf", "negative-rate", "negative-hourly",
            "negative-power", "power-rate-alone", "power-without-hourly"])
    def test_refused(self, settings):
        with pytest.raises(ValueError):
            CostModel(**{"input_rate": "1", "output_rate": "1", **settings})


def _write_manifest(tmp_path, segments=100, input_tokens=23_000,
                    output_tokens=191_000, wall_ms=18 * 60 * 1000):
    tmp_path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "run_id": "cost-run",
        "counts": {"segments": segments, "succeeded": segments, "failed": 0},
        "tokens": {"input": input_tokens, "output": output_tokens},
        "wall_time_ms": wall_ms,
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path


class TestCostReport:
    def test_batched_is_half(self, tmp_path):
        run = _write_manifest(tmp_path)
        report = cost_report(run, STANDARD)
        assert report.api_cost_batched == report.api_cost * Decimal("0.5")

    def test_per_100_identity_at_100_segments(self, tmp_path):
        run = _write_manifest(tmp_path, segments=100)
        report = cost_report(run, STANDARD)
        assert report.per_100_segments["api_cost"] == round_dollars(report.api_cost)

    def test_per_100_scales_with_count(self, tmp_path):
        a = cost_report(_write_manifest(tmp_path / "a", segments=100), STANDARD)
        b = cost_report(_write_manifest(tmp_path / "b", segments=200), STANDARD)
        assert a.api_cost == b.api_cost
        assert a.per_100_segments["api_cost"] == pytest.approx(
            2 * b.per_100_segments["api_cost"], abs=1e-4
        )

    def test_batched_ratio_in_observed_band(self, tmp_path):
        # with the observed token mix and a $0.20 local figure, the batched
        # api cost (0.9694) lands inside the 3x-6x band; the unbatched direct
        # cost (1.9388) works out to ~9.7x, a consequence of computing the
        # formula instead of echoing the published per-100 quote
        model = CostModel(input_rate="1.25", output_rate="10.0",
                          fixed_hourly="0.6667", power_rate=None)
        run = _write_manifest(tmp_path, wall_ms=18 * 60 * 1000)
        report = cost_report(run, model)
        assert float(report.local_cost) == pytest.approx(0.20, abs=1e-4)
        assert 3.0 <= report.api_batched_to_local_ratio <= 6.0
        assert report.api_to_local_ratio == pytest.approx(9.69, abs=0.05)

    def test_writes_costs_json(self, tmp_path):
        run = _write_manifest(tmp_path)
        cost_report(run, STANDARD)
        data = json.loads((run / "costs.json").read_text())
        assert data["api_cost"] == pytest.approx(1.9388)
        assert data["api_cost_batched"] == pytest.approx(0.9694)

    def test_missing_manifest(self, tmp_path):
        from refta.errors import ReftaError

        with pytest.raises(ReftaError):
            cost_report(tmp_path, STANDARD)
