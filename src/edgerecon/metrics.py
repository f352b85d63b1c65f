"""Score functions, the per-frame reliability predicate, and run statistics.

Quality is measured in matching points per view, latency in seconds. Both
scores are normalized into [0, 1]; a frame is reliable only if the quality
floor and both latency budgets hold simultaneously.

An episode's per-frame results are kept as columns in a FrameLog.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

from .csvio import format_cells, read_csv_rows, write_csv_rows
from .errors import ConfigError, Real, TraceFormatError, TraceSchemaError, check_fields, setting
from .masks import bitstring


@dataclass(frozen=True)
class Thresholds:
    """Reliability bounds: quality floor plus total and reconstruction latency budgets."""

    theta: float = setting(Real("(0, inf)"), 400.0)
    phi_total_s: float = setting(Real("(0, inf)"), 3.0)
    phi_recon_s: float = setting(Real("(0, phi_total_s]"), 1.0)

    def validate(self, section: str = "thresholds") -> None:
        check_fields(self, section)

    __post_init__ = validate


@dataclass(frozen=True)
class RewardWeights:
    """Mixing weights for the camera agent's quality and latency scores."""

    w1: float = setting(Real("[0, 1]"), 0.5)
    w2: float = setting(Real("[0, 1]"), 0.5)

    def validate(self, section: str = "weights") -> None:
        check_fields(self, section)
        if abs(self.w1 + self.w2 - 1.0) > 1e-9:
            raise ConfigError(f"{section}.w1 + {section}.w2 must equal 1, got {self.w1 + self.w2}")

    __post_init__ = validate


def quality_score(quality: float, threshold: float) -> float:
    """Quality normalized against the acceptance floor, capped at 1."""
    if threshold <= 0:
        raise ValueError(f"quality threshold must be > 0, got {threshold}")
    return min(1.0, quality / threshold)


def latency_score(latency_s: float, budget_s: float) -> float:
    """Remaining share of the latency budget, floored at 0."""
    if budget_s <= 0:
        raise ValueError(f"latency budget must be > 0, got {budget_s}")
    return max(0.0, 1.0 - latency_s / budget_s)


def camera_reward(outcome, thresholds: Thresholds, weights: RewardWeights) -> float:
    """Weighted sum of the quality score and the reconstruction-latency score.

    Only the reconstruction delay enters the latency term; transmission time
    is deliberately ignored because the camera choice should not be punished
    for network conditions it cannot influence.
    """
    s_q = quality_score(outcome.quality, thresholds.theta)
    s_l = latency_score(outcome.recon_latency_s, thresholds.phi_recon_s)
    return weights.w1 * s_q + weights.w2 * s_l


def server_reward(outcome, thresholds: Thresholds) -> float:
    """Latency score of the end-to-end delay; quality plays no role here."""
    return latency_score(outcome.total_latency_s, thresholds.phi_total_s)


def reliability(quality: float, total_latency_s: float, recon_latency_s: float,
                thresholds: Thresholds) -> int:
    """1 iff quality >= theta, total latency <= phi_total, recon latency <= phi_recon."""
    ok = (
        quality >= thresholds.theta
        and total_latency_s <= thresholds.phi_total_s
        and recon_latency_s <= thresholds.phi_recon_s
    )
    return 1 if ok else 0


@dataclass(frozen=True)
class FrameOutcome:
    quality: float
    tx_latency_s: float
    recon_latency_s: float
    total_latency_s: float
    effective_mask: int
    reliable: int


@dataclass(eq=False)
class FrameLog:
    """One episode's per-frame results as columns, in frame order.

    Masks are integers (see the ``masks`` module); the effective mask of frame t is
    ``masks[t] & availability[t]``. The epsilon/alpha columns hold what the
    policies exposed, NaN where a policy has no such attribute.
    """

    n_cameras: int
    availability: list[int]
    masks: list[int] = field(default_factory=list)
    servers: list[int] = field(default_factory=list)
    quality: list[float] = field(default_factory=list)
    tx_s: list[float] = field(default_factory=list)
    recon_s: list[float] = field(default_factory=list)
    total_s: list[float] = field(default_factory=list)
    reliable: list[int] = field(default_factory=list)
    camera_reward: list[float] = field(default_factory=list)
    server_reward: list[float] = field(default_factory=list)
    camera_epsilon: list = field(default_factory=list)
    camera_alpha: list = field(default_factory=list)
    server_epsilon: list = field(default_factory=list)
    server_alpha: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.masks)

    def mask_strings(self) -> list[str]:
        """The selected mask of every frame as its bitstring."""
        n = self.n_cameras
        names = {mask: bitstring(mask, n) for mask in set(self.masks)}
        return [names[mask] for mask in self.masks]


class RunStats:
    """Streaming aggregate over per-frame records: counts, sums and histograms.

    The only per-frame values kept are the total latencies, as an array of
    doubles, which the reports need for their quartiles.
    """

    def __init__(self):
        self.frames = 0
        self.reliable_frames = 0
        self.quality_sum = 0.0
        self.tx_sum = 0.0
        self.recon_sum = 0.0
        self.total_sum = 0.0
        self.camera_subset_histogram: Counter[str] = Counter()
        self.server_histogram: Counter[int] = Counter()
        self.camera_reward_sum = 0.0
        self.server_reward_sum = 0.0
        self.total_latencies = array("d")

    def add(self, record) -> None:
        """Count one frame.

        ``record`` has the frame's ``outcome`` (a FrameOutcome), its ``mask``
        as a bitstring, and its ``server``, ``camera_reward`` and ``server_reward``.
        """
        out = record.outcome
        self.frames += 1
        self.reliable_frames += out.reliable
        self.quality_sum += out.quality
        self.tx_sum += out.tx_latency_s
        self.recon_sum += out.recon_latency_s
        self.total_sum += out.total_latency_s
        self.camera_subset_histogram[record.mask] += 1
        self.server_histogram[record.server] += 1
        self.camera_reward_sum += record.camera_reward
        self.server_reward_sum += record.server_reward
        self.total_latencies.append(out.total_latency_s)

    @classmethod
    def from_log(cls, log: FrameLog) -> "RunStats":
        """The stats that add() would accumulate over every frame of the log.

        Sums run left to right from 0.0, as add() does, so the floats match.
        The total latencies are copied into an array rather than kept as the
        log's list: holding one column of float objects after the rest of the
        log is freed leaves the allocator's memory sparse, which slowed the
        episodes that followed.
        """
        stats = cls()
        stats.frames = len(log)
        stats.reliable_frames = sum(log.reliable)
        stats.quality_sum = reduce(operator.add, log.quality, 0.0)
        stats.tx_sum = reduce(operator.add, log.tx_s, 0.0)
        stats.recon_sum = reduce(operator.add, log.recon_s, 0.0)
        stats.total_sum = reduce(operator.add, log.total_s, 0.0)
        n = log.n_cameras
        stats.camera_subset_histogram = Counter(
            {bitstring(mask, n): count for mask, count in Counter(log.masks).items()})
        stats.server_histogram = Counter(log.servers)
        stats.camera_reward_sum = reduce(operator.add, log.camera_reward, 0.0)
        stats.server_reward_sum = reduce(operator.add, log.server_reward, 0.0)
        stats.total_latencies = array("d", log.total_s)
        return stats

    @property
    def reliability_pct(self) -> float:
        return 100.0 * self.reliable_frames / self.frames if self.frames else 0.0

    @property
    def avg_quality(self) -> float:
        return self.quality_sum / self.frames if self.frames else 0.0

    @property
    def avg_tx_s(self) -> float:
        return self.tx_sum / self.frames if self.frames else 0.0

    @property
    def avg_recon_s(self) -> float:
        return self.recon_sum / self.frames if self.frames else 0.0

    @property
    def avg_total_s(self) -> float:
        return self.total_sum / self.frames if self.frames else 0.0

    def to_summary(self) -> dict:
        return {
            "frames": self.frames,
            "reliable_frames": self.reliable_frames,
            "reliability_pct": self.reliability_pct,
            "avg_quality": self.avg_quality,
            "avg_tx_latency_s": self.avg_tx_s,
            "avg_recon_latency_s": self.avg_recon_s,
            "avg_total_latency_s": self.avg_total_s,
            "avg_camera_reward": self.camera_reward_sum / self.frames if self.frames else 0.0,
            "avg_server_reward": self.server_reward_sum / self.frames if self.frames else 0.0,
            "camera_subset_histogram": dict(sorted(self.camera_subset_histogram.items())),
            "server_histogram": {str(k): v for k, v in sorted(self.server_histogram.items())},
        }


FRAME_LOG_HEADER = (
    "frame", "mask", "server", "quality",
    "tx_s", "recon_s", "total_s", "reward_cam", "reward_srv", "reliable",
)


def _repr_float(value) -> str:
    return repr(float(value))


def write_frame_log(log: FrameLog, path) -> None:
    """Write the per-frame CSV log; float cells use repr so reloads are lossless.

    ``recon_s`` is a per-(server, views) table value and ``reward_cam`` is
    constant per (server, views) whenever quality is capped, so both repeat
    a few values, whose reprs are formatted once, as are the server and
    reliable cells. The other float columns rarely repeat a value.
    """
    write_csv_rows(path, FRAME_LOG_HEADER, (
        map(str, range(len(log))), log.mask_strings(), format_cells(log.servers, str),
        map(repr, map(float, log.quality)), map(repr, map(float, log.tx_s)),
        format_cells(log.recon_s, _repr_float), map(repr, map(float, log.total_s)),
        format_cells(log.camera_reward, _repr_float), map(repr, map(float, log.server_reward)),
        format_cells(log.reliable, str),
    ))


def _frame_log_rows(path):
    """Yield each row of a per-frame CSV log as typed cells, in FRAME_LOG_HEADER order. A row
    without exactly the header's columns is a TraceSchemaError, a cell that does not parse a
    TraceFormatError; both give the line."""
    with closing(read_csv_rows(path)) as reader:
        header = next(reader, None)
        if header is None or tuple(header) != FRAME_LOG_HEADER:
            raise TraceFormatError(f"unexpected frame log header: {header}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(FRAME_LOG_HEADER):
                raise TraceSchemaError(f"{path}: line {lineno} has {len(row)} columns, "
                                       f"expected {len(FRAME_LOG_HEADER)}")
            frame, mask, server, *floats, reliable = row
            try:
                cells = (int(frame), mask, int(server), *map(float, floats), int(reliable))
            except ValueError as exc:
                raise TraceFormatError(str(exc), line=lineno) from exc
            yield cells


def read_frame_log(path) -> list[dict]:
    """Parse a per-frame CSV log back into typed row dicts, keyed by FRAME_LOG_HEADER."""
    return [dict(zip(FRAME_LOG_HEADER, row)) for row in _frame_log_rows(path)]


def recount_reliability(path) -> tuple[int, int]:
    """Second-pass recount of (reliable frames, total frames) from a frame log."""
    flags = [row[-1] for row in _frame_log_rows(path)]
    return sum(flags), len(flags)


def write_summary(stats: RunStats, path) -> None:
    Path(path).write_text(json.dumps(stats.to_summary(), indent=2, sort_keys=True) + "\n")
