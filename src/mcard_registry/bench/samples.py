"""Latency samples, aggregate reports, CSV/summary emission, and report
comparison.

Percentiles use the nearest-rank definition; std is the population standard
deviation (which makes std = 0 for a single sample); aggregates exclude
errored samples but the report carries their count. Ratio confidence
intervals come from the delta-method normal approximation, so their
half-width shrinks as 1/sqrt(n).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from ..errors import FileIoError

TARGETS = ("rest", "native_mcp", "layered_mcp")

COMPONENTS = ("connection_setup_ms", "sse_handshake_ms", "server_processing_ms", "total_ms")

Z_95 = 1.959963984540054


@dataclass
class LatencySample:
    target: str
    operation: str
    sample_idx: int
    connection_setup_ms: float
    sse_handshake_ms: float
    server_processing_ms: float
    total_ms: float
    db_time_ms: float | None = None
    payload_bytes: int = 0

    @classmethod
    def from_jsonable(cls, obj: dict) -> "LatencySample":
        return cls(**obj)


CSV_COLUMNS = tuple(f.name for f in fields(LatencySample))


@dataclass
class RunResult:
    config: dict
    samples: list[LatencySample]
    errors: list[dict] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, obj: dict) -> "RunResult":
        return cls(
            config=obj["config"],
            samples=[LatencySample.from_jsonable(s) for s in obj["samples"]],
            errors=list(obj.get("errors", [])),
        )


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    if not sorted_values:
        raise ValueError("no values")
    rank = math.ceil(percentile / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def describe(values: list[float]) -> dict:
    if not values:
        raise ValueError("cannot describe an empty series")
    ordered = sorted(values)
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(variance)
    return {
        "mean": mean,
        "std": std,
        "mean_ci95_half_width": Z_95 * std / math.sqrt(n),
        "p50": nearest_rank(ordered, 50),
        "p95": nearest_rank(ordered, 95),
        "min": ordered[0],
        "max": ordered[-1],
    }


def build_report(result: RunResult) -> dict:
    """BenchmarkReport: per-component and total statistics plus config echo."""
    samples = result.samples
    if not samples:
        raise ValueError("a report needs at least one successful sample")
    report: dict[str, Any] = {
        "config": dict(result.config),
        "n": len(samples),
        "error_count": len(result.errors),
        "components": {name: describe([getattr(s, name) for s in samples])
                       for name in COMPONENTS},
        "payload_bytes": describe([float(s.payload_bytes) for s in samples]),
    }
    db_values = [s.db_time_ms for s in samples if s.db_time_ms is not None]
    if db_values:
        report["db_time_ms"] = describe(db_values)
    return report


def samples_to_csv(samples: list[LatencySample]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for s in samples:
        cells = []
        for col in CSV_COLUMNS:
            value = getattr(s, col)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(f"{value:.6f}")
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_report(result: RunResult, fmt: str, path: str | None) -> str:
    if fmt == "csv":
        text = samples_to_csv(result.samples)
    elif fmt == "summary-json":
        text = json.dumps(build_report(result), indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FileIoError(f"cannot write report to {path}: {exc}") from exc
    return text


def _mean_total(report: dict) -> tuple[float, float, int]:
    stats = report["components"]["total_ms"]
    return stats["mean"], stats["std"], report["n"]


def ratio_with_ci(numerator: dict, denominator: dict) -> dict:
    """Delta-method CI for a ratio of independent sample means."""
    mean_a, std_a, n_a = _mean_total(numerator)
    mean_b, std_b, n_b = _mean_total(denominator)
    ratio = mean_a / mean_b
    rel_var = (std_a ** 2 / n_a) / mean_a ** 2 + (std_b ** 2 / n_b) / mean_b ** 2
    half_width = Z_95 * ratio * math.sqrt(rel_var)
    return {"ratio": ratio, "ci95_low": ratio - half_width, "ci95_high": ratio + half_width}


def compare_reports(named_reports: list[tuple[str, dict]]) -> list[dict]:
    """Pairwise mean-total ratios, each later report over each earlier one."""
    rows = []
    for j in range(1, len(named_reports)):
        for i in range(j):
            name_j, report_j = named_reports[j]
            name_i, report_i = named_reports[i]
            row = {"pair": f"{name_j}/{name_i}"}
            row.update(ratio_with_ci(report_j, report_i))
            rows.append(row)
    return rows


def comparison_table(rows: list[dict]) -> str:
    header = f"{'pair':<32} {'ratio':>9} {'ci95_low':>9} {'ci95_high':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['pair']:<32} {row['ratio']:>9.3f} "
            f"{row['ci95_low']:>9.3f} {row['ci95_high']:>9.3f}"
        )
    return "\n".join(lines) + "\n"
