"""Score functions, the per-frame reliability predicate, and run statistics.

Quality is measured in matching points per view, latency in seconds. Both
scores are normalized into [0, 1]; a frame is reliable only if the quality
floor and both latency budgets hold simultaneously.

An episode's per-frame results are kept as columns in a FrameLog; records
and outcomes are built from them only when someone reads a frame.
"""

from __future__ import annotations

import csv
import json
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

from .errors import ConfigError, TraceFormatError, require_finite
from .masks import Mask, mask_from_int, mask_to_str


@dataclass(frozen=True)
class Thresholds:
    """Reliability bounds: quality floor plus total and reconstruction latency budgets."""

    theta: float = 400.0
    phi_total_s: float = 3.0
    phi_recon_s: float = 1.0

    def __post_init__(self):
        for name in ("theta", "phi_total_s", "phi_recon_s"):
            require_finite(f"thresholds.{name}", getattr(self, name))
        if self.theta <= 0:
            raise ConfigError(f"theta must be > 0, got {self.theta}")
        if self.phi_total_s <= 0:
            raise ConfigError(f"phi_total_s must be > 0, got {self.phi_total_s}")
        if self.phi_recon_s <= 0:
            raise ConfigError(f"phi_recon_s must be > 0, got {self.phi_recon_s}")
        if self.phi_recon_s > self.phi_total_s:
            raise ConfigError(
                f"phi_recon_s ({self.phi_recon_s}) must not exceed phi_total_s ({self.phi_total_s})"
            )


@dataclass(frozen=True)
class RewardWeights:
    """Mixing weights for the camera agent's quality and latency scores."""

    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self):
        require_finite("weights.w1", self.w1)
        require_finite("weights.w2", self.w2)
        if not (0.0 <= self.w1 <= 1.0 and 0.0 <= self.w2 <= 1.0):
            raise ConfigError(f"w1 and w2 must lie in [0, 1], got ({self.w1}, {self.w2})")
        if abs(self.w1 + self.w2 - 1.0) > 1e-9:
            raise ConfigError(f"w1 + w2 must equal 1, got {self.w1 + self.w2}")


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
    effective_mask: Mask
    reliable: int


@dataclass(frozen=True)
class FrameRecord:
    frame: int
    mask: Mask
    server: int
    outcome: FrameOutcome
    camera_reward: float
    server_reward: float
    camera_epsilon: float
    camera_alpha: float
    server_epsilon: float
    server_alpha: float


@dataclass(eq=False)
class FrameLog(Sequence):
    """One episode's per-frame results as columns, in frame order.

    Masks are integers (see the ``masks`` module); the effective mask of frame t is
    ``masks[t] & availability[t]``. The epsilon/alpha columns hold what the
    policies exposed, NaN where a policy has no such attribute. Indexing,
    slicing and iteration build FrameRecord views on demand.
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

    def __getitem__(self, index):
        frames = range(len(self.masks))[index]
        if isinstance(index, slice):
            return [self._record(frame) for frame in frames]
        return self._record(frames)

    def __iter__(self):
        return map(self._record, range(len(self.masks)))

    def _record(self, t: int) -> FrameRecord:
        n = self.n_cameras
        mask = self.masks[t]
        return FrameRecord(
            frame=t,
            mask=mask_from_int(mask, n),
            server=self.servers[t],
            outcome=FrameOutcome(
                quality=self.quality[t],
                tx_latency_s=self.tx_s[t],
                recon_latency_s=self.recon_s[t],
                total_latency_s=self.total_s[t],
                effective_mask=mask_from_int(mask & self.availability[t], n),
                reliable=self.reliable[t],
            ),
            camera_reward=self.camera_reward[t],
            server_reward=self.server_reward[t],
            camera_epsilon=float(self.camera_epsilon[t]),
            camera_alpha=float(self.camera_alpha[t]),
            server_epsilon=float(self.server_epsilon[t]),
            server_alpha=float(self.server_alpha[t]),
        )

    def mask_strings(self) -> list[str]:
        """The selected mask of every frame as its bitstring."""
        width = f"0{self.n_cameras}b"
        names = {mask: format(mask, width) for mask in set(self.masks)}
        return [names[mask] for mask in self.masks]


class RunStats:
    """Streaming aggregate over per-frame records.

    Counts and means are order-insensitive and merging is associative, so
    stats for replicated runs can be combined freely.
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
        self.camera_rewards: list[float] = []
        self.server_rewards: list[float] = []
        self.total_latencies: list[float] = []

    def add(self, record) -> None:
        out = record.outcome
        self.frames += 1
        self.reliable_frames += out.reliable
        self.quality_sum += out.quality
        self.tx_sum += out.tx_latency_s
        self.recon_sum += out.recon_latency_s
        self.total_sum += out.total_latency_s
        self.camera_subset_histogram[mask_to_str(record.mask)] += 1
        self.server_histogram[record.server] += 1
        self.camera_rewards.append(record.camera_reward)
        self.server_rewards.append(record.server_reward)
        self.total_latencies.append(out.total_latency_s)

    @classmethod
    def from_log(cls, log: FrameLog) -> "RunStats":
        """The stats that add() would accumulate over every frame of the log.

        Sums run left to right from 0.0, as add() does, so the floats match.
        """
        stats = cls()
        stats.frames = len(log)
        stats.reliable_frames = sum(log.reliable)
        stats.quality_sum = reduce(operator.add, log.quality, 0.0)
        stats.tx_sum = reduce(operator.add, log.tx_s, 0.0)
        stats.recon_sum = reduce(operator.add, log.recon_s, 0.0)
        stats.total_sum = reduce(operator.add, log.total_s, 0.0)
        stats.camera_subset_histogram = Counter(log.mask_strings())
        stats.server_histogram = Counter(log.servers)
        stats.camera_rewards = list(log.camera_reward)
        stats.server_rewards = list(log.server_reward)
        stats.total_latencies = list(log.total_s)
        return stats

    def merge(self, other: "RunStats") -> "RunStats":
        merged = RunStats()
        for src in (self, other):
            merged.frames += src.frames
            merged.reliable_frames += src.reliable_frames
            merged.quality_sum += src.quality_sum
            merged.tx_sum += src.tx_sum
            merged.recon_sum += src.recon_sum
            merged.total_sum += src.total_sum
            merged.camera_subset_histogram.update(src.camera_subset_histogram)
            merged.server_histogram.update(src.server_histogram)
            merged.camera_rewards.extend(src.camera_rewards)
            merged.server_rewards.extend(src.server_rewards)
            merged.total_latencies.extend(src.total_latencies)
        return merged

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
            "avg_camera_reward": (sum(self.camera_rewards) / self.frames) if self.frames else 0.0,
            "avg_server_reward": (sum(self.server_rewards) / self.frames) if self.frames else 0.0,
            "camera_subset_histogram": dict(sorted(self.camera_subset_histogram.items())),
            "server_histogram": {str(k): v for k, v in sorted(self.server_histogram.items())},
        }


FRAME_LOG_HEADER = (
    "frame", "mask", "server", "quality",
    "tx_s", "recon_s", "total_s", "reward_cam", "reward_srv", "reliable",
)


def _frame_log_columns(records) -> tuple:
    """The FRAME_LOG_HEADER columns of a FrameLog or of any sequence of records."""
    if isinstance(records, FrameLog):
        return (range(len(records)), records.mask_strings(), records.servers,
                records.quality, records.tx_s, records.recon_s, records.total_s,
                records.camera_reward, records.server_reward, records.reliable)
    records = list(records)
    outcomes = [rec.outcome for rec in records]
    return ([rec.frame for rec in records],
            [mask_to_str(rec.mask) for rec in records],
            [rec.server for rec in records],
            [out.quality for out in outcomes],
            [out.tx_latency_s for out in outcomes],
            [out.recon_latency_s for out in outcomes],
            [out.total_latency_s for out in outcomes],
            [rec.camera_reward for rec in records],
            [rec.server_reward for rec in records],
            [out.reliable for out in outcomes])


def write_frame_log(records, path) -> None:
    """Write the per-frame CSV log; float cells use repr so reloads are lossless."""
    (frames, masks, servers, quality, tx_s, recon_s, total_s,
     reward_cam, reward_srv, reliable) = _frame_log_columns(records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_LOG_HEADER)
        writer.writerows(zip(
            frames, masks, servers,
            *(map(repr, map(float, col)) for col in (quality, tx_s, recon_s, total_s,
                                                     reward_cam, reward_srv)),
            reliable,
        ))


def read_frame_log(path) -> list[dict]:
    """Parse a per-frame CSV log back into typed row dicts."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != FRAME_LOG_HEADER:
            raise TraceFormatError(f"unexpected frame log header: {reader.fieldnames}", line=1)
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append({
                    "frame": int(row["frame"]),
                    "mask": row["mask"],
                    "server": int(row["server"]),
                    "quality": float(row["quality"]),
                    "tx_s": float(row["tx_s"]),
                    "recon_s": float(row["recon_s"]),
                    "total_s": float(row["total_s"]),
                    "reward_cam": float(row["reward_cam"]),
                    "reward_srv": float(row["reward_srv"]),
                    "reliable": int(row["reliable"]),
                })
            except (TypeError, ValueError) as exc:
                raise TraceFormatError(str(exc), line=lineno) from exc
    return rows


def recount_reliability(path) -> tuple[int, int]:
    """Second-pass recount of (reliable frames, total frames) from a frame log."""
    rows = read_frame_log(path)
    return sum(r["reliable"] for r in rows), len(rows)


def write_summary(stats: RunStats, path) -> None:
    Path(path).write_text(json.dumps(stats.to_summary(), indent=2, sort_keys=True) + "\n")
