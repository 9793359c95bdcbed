"""Token-based cost accounting for API and local serving.

All currency arithmetic runs on :class:`decimal.Decimal`, so accumulation is
exact; reports round to 4 decimal places at the edge. Rates are dollars per
million tokens, which conveniently equals micro-dollars per token.

Worked example with the default-style rates $1.25/M input and $10/M output:
23,000 input plus 191,000 output tokens cost
``23000*1.25/1e6 + 191000*10/1e6 = 1.9388`` dollars unbatched (a published
per-100-sentence quote of $1.16 for that same token mix does not follow from
those rates; this reporter always computes the direct formula). The batched
figure applies the configured discount multiplier, 0.5 by default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from decimal import Decimal
from pathlib import Path

from refta.artifacts import write_json
from refta.backends import TokenUsage
from refta.pipeline import read_manifest

MILLION = Decimal(1_000_000)
_QUANT = Decimal("0.0001")


def as_money(value) -> Decimal:
    """Exact Decimal from int, str or float (via repr, not binary expansion);
    ``ValueError`` for anything that is not a finite number."""
    try:
        money = value if isinstance(value, Decimal) else Decimal(str(value))
        if money.is_finite():
            return money
    except ArithmeticError:  # decimal.InvalidOperation: not a number at all
        pass
    raise ValueError(f"not a finite number: {value!r}")


@dataclass(frozen=True)
class CostModel:
    """Every value is a non-negative number. The power term takes ``power_kw``
    and ``power_rate`` together, and both need ``fixed_hourly``."""

    input_rate: Decimal  # dollars per 1M input tokens
    output_rate: Decimal  # dollars per 1M output tokens
    batching_discount: Decimal = Decimal("0.5")
    fixed_hourly: Decimal | None = None  # dollars per hour of wall time
    power_rate: Decimal | None = None  # dollars per kWh
    power_kw: Decimal | None = None  # measured draw while serving

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            value = as_money(value)
            if value < 0:
                raise ValueError(f"{f.name} must be non-negative, not {value}")
            object.__setattr__(self, f.name, value)
        if not 0 < self.batching_discount <= 1:
            raise ValueError("batching_discount must be in (0, 1]")
        if (self.power_kw is None) != (self.power_rate is None):
            raise ValueError("power_kw and power_rate need each other")
        if self.power_kw is not None and self.fixed_hourly is None:
            raise ValueError("power_kw and power_rate need fixed_hourly")


def api_cost(usage: TokenUsage, model: CostModel) -> Decimal:
    """Dollars for the given token totals: linear in both counts, exact."""
    return (
        Decimal(usage.input_tokens) * model.input_rate
        + Decimal(usage.output_tokens) * model.output_rate
    ) / MILLION


def local_cost(wall_seconds, model: CostModel) -> Decimal:
    """Dollars for local serving: hourly amortization plus optional power."""
    if model.fixed_hourly is None:
        raise ValueError("local_cost requires fixed_hourly in the cost model")
    hours = as_money(wall_seconds) / Decimal(3600)
    total = hours * model.fixed_hourly
    if model.power_kw is not None:
        total += hours * model.power_kw * model.power_rate
    return total


def round_dollars(value: Decimal) -> float:
    return float(value.quantize(_QUANT))


@dataclass(frozen=True)
class CostReport:
    run_id: str
    n_segments: int
    input_tokens: int
    output_tokens: int
    api_cost: Decimal
    api_cost_batched: Decimal
    local_cost: Decimal | None
    api_to_local_ratio: float | None
    api_batched_to_local_ratio: float | None
    per_100_segments: dict

    def to_dict(self) -> dict:
        """Every field, each ``Decimal`` rounded by ``round_dollars``."""
        return {f.name: round_dollars(v) if isinstance(v := getattr(self, f.name), Decimal)
                else v for f in fields(self)}

    def summary_lines(self) -> list[str]:
        lines = [
            f"run {self.run_id}: {self.n_segments} segments, "
            f"{self.input_tokens} input / {self.output_tokens} output tokens",
            f"  api cost:          ${round_dollars(self.api_cost):.4f}"
            f"  (batched ${round_dollars(self.api_cost_batched):.4f})",
        ]
        if self.local_cost is not None:
            lines.append(f"  local cost:        ${round_dollars(self.local_cost):.4f}")
            if self.api_to_local_ratio is not None:
                lines.append(
                    f"  api/local ratio:   {self.api_to_local_ratio:.2f}x "
                    f"({self.api_batched_to_local_ratio:.2f}x batched)"
                )
        per = self.per_100_segments
        lines.append(
            f"  per 100 segments:  ${per['api_cost']:.4f} api"
            + (f", ${per['local_cost']:.4f} local" if per.get("local_cost") is not None else "")
        )
        return lines


def cost_report(run_dir, model: CostModel) -> CostReport:
    """Aggregate a run's token usage into cost figures; emits ``costs.json``."""
    run_dir = Path(run_dir)
    manifest = read_manifest(run_dir)
    tokens = manifest.get("tokens") or {}
    n_segments = (manifest.get("counts") or {}).get("segments", 0)
    usage = TokenUsage(
        int(tokens.get("input", 0)), int(tokens.get("output", 0)), "backend-reported"
    )

    api = api_cost(usage, model)
    batched = api * model.batching_discount
    local = None
    ratio = None
    batched_ratio = None
    if model.fixed_hourly is not None:
        wall_ms = as_money(manifest.get("wall_time_ms", 0))
        local = local_cost(wall_ms / Decimal(1000), model)
        if local > 0:
            ratio = float(api / local)
            batched_ratio = float(batched / local)

    scale = (Decimal(100) / Decimal(n_segments)) if n_segments else Decimal(0)
    per_100 = {
        "api_cost": round_dollars(api * scale),
        "api_cost_batched": round_dollars(batched * scale),
        "local_cost": round_dollars(local * scale) if local is not None else None,
        "input_tokens": float(Decimal(usage.input_tokens) * scale),
        "output_tokens": float(Decimal(usage.output_tokens) * scale),
    }

    report = CostReport(
        run_id=manifest.get("run_id", run_dir.name),
        n_segments=n_segments,
        input_tokens=usage.input_tokens,
        output_tokens=usage.output_tokens,
        api_cost=api,
        api_cost_batched=batched,
        local_cost=local,
        api_to_local_ratio=ratio,
        api_batched_to_local_ratio=batched_ratio,
        per_100_segments=per_100,
    )
    write_json(run_dir / "costs.json", report.to_dict())
    return report
