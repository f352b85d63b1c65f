"""Comparison reports: summary tables, selection histograms, latency quartiles.

Everything here is derived from RunStats, which is itself a pure aggregation
of the per-frame log, so any number shown can be recomputed from the CSVs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import write_csv_rows

POLICY_LABELS = {
    "qlearning": "Q-learning",
    "adaptive_q": "Adaptive Q-learning",
    "greedy3": "Greedy-3",
    "bandit": "Epsilon-Greedy Bandit",
    "random": "Random",
    "round_robin": "Round-Robin",
    "latency_greedy": "Latency-Greedy",
}

CAMERA_COMPARE_ORDER = ("qlearning", "greedy3", "bandit", "adaptive_q", "random")
SERVER_COMPARE_ORDER = ("round_robin", "latency_greedy", "qlearning", "adaptive_q")


@dataclass(frozen=True)
class SummaryRow:
    policy: str
    avg_quality: float
    avg_recon_s: float
    avg_total_s: float
    reliability_pct: float


@dataclass
class ReportBundle:
    rows: list[SummaryRow]
    subset_distribution: dict[str, dict[str, int]]
    server_distribution: dict[str, dict[int, int]]
    latency_quartiles: dict[str, tuple[float, float, float, float, float]]


_PERCENTS = np.array([0.0, 25.0, 50.0, 75.0, 100.0])


def five_number_summary(values) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max); quartiles via ``np.percentile``'s linear interpolation.

    ``values`` is a sequence of finite floats >= 0, such as a run's total
    latencies; an ``array("d")`` is read in place. Any other value raises
    ``ValueError``. On this domain the interpolation's ``b - a`` of two
    neighbours cannot overflow.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    if not 0.0 <= arr.min() <= arr.max() < np.inf:
        raise ValueError("five_number_summary needs finite values >= 0")
    return tuple(float(v) for v in np.percentile(arr, _PERCENTS))


def histogram_shares(histogram) -> dict:
    """Histogram counts as percentages; shares of a nonempty histogram sum to 100."""
    total = sum(histogram.values())
    if total == 0:
        return {}
    return {key: 100.0 * count / total for key, count in sorted(histogram.items())}


def build_report(named_stats) -> ReportBundle:
    """Assemble a bundle from (policy name, RunStats) pairs."""
    rows = []
    subsets = {}
    servers = {}
    quartiles = {}
    for name, stats in named_stats:
        rows.append(SummaryRow(
            policy=name,
            avg_quality=stats.avg_quality,
            avg_recon_s=stats.avg_recon_s,
            avg_total_s=stats.avg_total_s,
            reliability_pct=stats.reliability_pct,
        ))
        subsets[name] = dict(sorted(stats.camera_subset_histogram.items()))
        servers[name] = dict(sorted(stats.server_histogram.items()))
        quartiles[name] = five_number_summary(stats.total_latencies)
    return ReportBundle(
        rows=rows,
        subset_distribution=subsets,
        server_distribution=servers,
        latency_quartiles=quartiles,
    )


# Rendering precision: quality 0 decimals, latency 2, reliability 2.
_TABLE_COLUMNS = (
    ("Policy", "{}"),
    ("Avg PQ", "{:.0f}"),
    ("Avg Recon Lat. (s)", "{:.2f}"),
    ("Avg Total Lat. (s)", "{:.2f}"),
    ("Reliability (%)", "{:.2f}"),
)


def render_summary_table(bundle: ReportBundle) -> str:
    """Aligned plain-text summary table."""
    body = []
    for row in bundle.rows:
        values = (POLICY_LABELS.get(row.policy, row.policy), row.avg_quality, row.avg_recon_s,
                  row.avg_total_s, row.reliability_pct)
        body.append([fmt.format(value) for (_name, fmt), value in zip(_TABLE_COLUMNS, values)])
    headers = [name for name, _fmt in _TABLE_COLUMNS]
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def bundle_to_dict(bundle: ReportBundle) -> dict:
    return {
        "summary": [
            {
                "policy": row.policy,
                "avg_quality": row.avg_quality,
                "avg_recon_latency_s": row.avg_recon_s,
                "avg_total_latency_s": row.avg_total_s,
                "reliability_pct": row.reliability_pct,
            }
            for row in bundle.rows
        ],
        "subset_distribution": bundle.subset_distribution,
        "server_distribution": {
            name: {str(k): v for k, v in hist.items()}
            for name, hist in bundle.server_distribution.items()
        },
        "latency_quartiles": {
            name: {"min": q[0], "q1": q[1], "median": q[2], "q3": q[3], "max": q[4]}
            for name, q in bundle.latency_quartiles.items()
        },
    }


def write_report(bundle: ReportBundle, out_dir) -> list[Path]:
    """Write the rendered table, the JSON bundle, and per-policy histogram CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    table_path = out / "comparison.txt"
    table_path.write_text(render_summary_table(bundle))
    written.append(table_path)

    json_path = out / "comparison.json"
    json_path.write_text(json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n")
    written.append(json_path)

    for suffix, key, distribution in (("subsets", "mask", bundle.subset_distribution),
                                      ("servers", "server", bundle.server_distribution)):
        for name, hist in distribution.items():
            path = out / f"{name}_{suffix}.csv"
            shares = histogram_shares(hist)
            write_csv_rows(path, [key, "count", "share_pct"], [
                map(str, hist), map(str, hist.values()), (f"{shares[k]:.6f}" for k in hist)])
            written.append(path)
    return written
