"""Correlated camera-outage and server-latency trace generation.

Camera outages are driven by a per-camera failure-probability series: a low
baseline punctuated by bump events that raise the whole correlated group to a
high level for a random interval. Thresholding that series yields the binary
availability matrix, so cameras sharing a group always drop out together.
Server latency sits at a jittered baseline and receives additive spikes, one
server per event, keeping servers statistically independent of each other.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, TraceFormatError, TraceSchemaError, require_count, require_finite

DEFAULT_CORRELATION_GROUPS = ((0, 1), (2, 4), (3,))

CAMERAS_FILE = "cameras.csv"
SERVERS_FILE = "servers.csv"
EVENTS_FILE = "events.json"

# Sub-stream tags so camera and server generation never share draws.
_CAMERA_STREAM = 1
_SERVER_STREAM = 2

_MAX_PLACEMENT_ATTEMPTS = 10_000


@dataclass(frozen=True)
class BumpEvent:
    """Interval [start, start + length) during which one camera group is down."""

    start: int
    length: int
    cameras: tuple[int, ...]

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class SpikeEvent:
    """Interval [start, start + length) of added latency on a single server."""

    start: int
    length: int
    server: int
    added_ms: float

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass
class CameraTrace:
    availability: np.ndarray            # (frames, n_cameras) of 0/1, 1 = usable
    events: list[BumpEvent] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return self.availability.shape[0]

    @property
    def n_cameras(self) -> int:
        return self.availability.shape[1]


@dataclass
class ServerLatencyTrace:
    latency_ms: np.ndarray              # (frames, n_servers), nonnegative ms
    events: list[SpikeEvent] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return self.latency_ms.shape[0]

    @property
    def n_servers(self) -> int:
        return self.latency_ms.shape[1]


@dataclass(frozen=True)
class DisruptionParams:
    n_frames: int = 4000
    n_cameras: int = 5
    n_servers: int = 4
    correlation_groups: tuple[tuple[int, ...], ...] = DEFAULT_CORRELATION_GROUPS
    n_bump_events: int = 10
    mean_bump_len: int = 50
    disruption_threshold: float = 0.6
    baseline_failure_prob: float = 0.05
    bump_failure_prob: float = 0.9
    server_baseline_ms: float = 150.0
    server_jitter_ms: float = 10.0
    n_spike_events: int = 10
    spike_range_ms: tuple[float, float] = (400.0, 1200.0)
    mean_spike_len: int = 50
    spike_servers: tuple[int, ...] | None = None   # None = any server may spike
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_frames", "n_cameras", "n_servers", "n_bump_events", "mean_bump_len",
                     "n_spike_events", "mean_spike_len", "seed"):
            require_count(f"disruption.{name}", getattr(self, name))
        for name in ("disruption_threshold", "baseline_failure_prob", "bump_failure_prob",
                     "server_baseline_ms", "server_jitter_ms"):
            require_finite(f"disruption.{name}", getattr(self, name))
        if len(self.spike_range_ms) != 2:
            raise ConfigError(f"disruption.spike_range_ms must hold two bounds, "
                              f"got {self.spike_range_ms!r}")
        for bound in self.spike_range_ms:
            require_finite("disruption.spike_range_ms", bound)
        for name in ("n_frames", "n_cameras", "n_servers", "mean_bump_len", "mean_spike_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("n_bump_events", "n_spike_events"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.disruption_threshold < 1.0:
            raise ConfigError(
                f"disruption_threshold must lie in (0, 1), got {self.disruption_threshold}"
            )
        if not 0.0 <= self.baseline_failure_prob <= 1.0:
            raise ConfigError(f"baseline_failure_prob out of [0, 1]: {self.baseline_failure_prob}")
        if not 0.0 <= self.bump_failure_prob <= 1.0:
            raise ConfigError(f"bump_failure_prob out of [0, 1]: {self.bump_failure_prob}")
        if not self.correlation_groups:
            raise ConfigError("correlation_groups must not be empty")
        seen: set[int] = set()
        for group in self.correlation_groups:
            if not group:
                raise ConfigError("correlation_groups entries must not be empty")
            for cam in group:
                if not 0 <= cam < self.n_cameras:
                    raise ConfigError(
                        f"correlation_groups references camera {cam}, "
                        f"valid range is 0..{self.n_cameras - 1}"
                    )
                if cam in seen:
                    raise ConfigError(f"correlation_groups lists camera {cam} twice")
                seen.add(cam)
        if self.server_baseline_ms < 0:
            raise ConfigError(f"server_baseline_ms must be >= 0, got {self.server_baseline_ms}")
        if self.server_jitter_ms < 0:
            raise ConfigError(f"server_jitter_ms must be >= 0, got {self.server_jitter_ms}")
        if self.server_jitter_ms > self.server_baseline_ms:
            raise ConfigError(
                "server_jitter_ms must not exceed server_baseline_ms "
                f"({self.server_jitter_ms} > {self.server_baseline_ms})"
            )
        lo, hi = self.spike_range_ms
        if not 0 <= lo < hi:
            raise ConfigError(f"spike_range_ms lower bound must be < upper bound, got ({lo}, {hi})")
        if self.spike_servers is not None:
            if not self.spike_servers:
                raise ConfigError("spike_servers must not be an empty list")
            for srv in self.spike_servers:
                if not 0 <= srv < self.n_servers:
                    raise ConfigError(
                        f"spike_servers references server {srv}, valid range is 0..{self.n_servers - 1}"
                    )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _place_events(rng, n_events: int, n_frames: int, mean_len: int, n_targets: int, what: str):
    """Place events uniformly on the timeline, rejecting overlaps on the same target.

    Durations are geometric with the requested mean so most events sit near it
    while occasional longer ones occur. Returns (start, length, target) tuples
    sorted by start.
    """
    spans: dict[int, list[tuple[int, int]]] = {}
    placed: list[tuple[int, int, int]] = []
    for _ in range(n_events):
        for _attempt in range(_MAX_PLACEMENT_ATTEMPTS):
            target = int(rng.integers(n_targets))
            length = int(min(rng.geometric(1.0 / mean_len), n_frames))
            start = int(rng.integers(0, n_frames - length + 1))
            stop = start + length
            if all(stop <= s0 or s1 <= start for s0, s1 in spans.get(target, [])):
                spans.setdefault(target, []).append((start, stop))
                placed.append((start, length, target))
                break
        else:
            raise ConfigError(
                f"could not place {n_events} non-overlapping {what} events in {n_frames} frames; "
                "reduce the event count or mean duration"
            )
    placed.sort()
    return placed


def generate_camera_trace(params: DisruptionParams) -> CameraTrace:
    """Build the binary availability matrix plus the bump-event log."""
    params.validate()
    rng = np.random.default_rng([params.seed, _CAMERA_STREAM])
    groups = [tuple(g) for g in params.correlation_groups]
    prob = np.full((params.n_frames, params.n_cameras), params.baseline_failure_prob)
    events = []
    for start, length, gi in _place_events(
        rng, params.n_bump_events, params.n_frames, params.mean_bump_len, len(groups), "camera bump"
    ):
        cams = groups[gi]
        prob[start:start + length, list(cams)] = params.bump_failure_prob
        events.append(BumpEvent(start=start, length=length, cameras=cams))
    availability = np.where(prob > params.disruption_threshold, 0, 1).astype(np.uint8)
    return CameraTrace(availability=availability, events=events)


def generate_server_trace(params: DisruptionParams) -> ServerLatencyTrace:
    """Build the per-server latency matrix plus the spike-event log."""
    params.validate()
    rng = np.random.default_rng([params.seed, _SERVER_STREAM])
    jitter = rng.uniform(-params.server_jitter_ms, params.server_jitter_ms,
                         size=(params.n_frames, params.n_servers))
    latency = params.server_baseline_ms + jitter
    eligible = params.spike_servers if params.spike_servers is not None else tuple(range(params.n_servers))
    events = []
    for start, length, ti in _place_events(
        rng, params.n_spike_events, params.n_frames, params.mean_spike_len, len(eligible), "server spike"
    ):
        server = eligible[ti]
        added = float(rng.uniform(*params.spike_range_ms))
        latency[start:start + length, server] += added
        events.append(SpikeEvent(start=start, length=length, server=server, added_ms=added))
    np.maximum(latency, 0.0, out=latency)
    return ServerLatencyTrace(latency_ms=latency, events=events)


def _camera_header(n_cameras: int) -> list[str]:
    return ["frame"] + [f"cam_{i + 1}" for i in range(n_cameras)]


def _server_header(n_servers: int) -> list[str]:
    return ["frame"] + [f"srv_{i + 1}_ms" for i in range(n_servers)]


def save_traces(camera: CameraTrace, server: ServerLatencyTrace, out_dir) -> tuple[Path, Path]:
    """Write cameras.csv and servers.csv under out_dir; returns the two paths."""
    if camera.frames != server.frames:
        raise TraceSchemaError(
            f"camera trace has {camera.frames} frames but server trace has {server.frames}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cam_path = out / CAMERAS_FILE
    srv_path = out / SERVERS_FILE
    with open(cam_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_camera_header(camera.n_cameras))
        for frame in range(camera.frames):
            writer.writerow([frame] + [int(v) for v in camera.availability[frame]])
    with open(srv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_server_header(server.n_servers))
        for frame in range(server.frames):
            writer.writerow([frame] + [repr(float(v)) for v in server.latency_ms[frame]])
    return cam_path, srv_path


def _read_matrix(path, expected_header, parse_cell):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceSchemaError(f"{path}: file is empty")
        if header != expected_header(len(header) - 1) or len(header) < 2:
            raise TraceSchemaError(f"{path}: unexpected header {header}")
        width = len(header) - 1
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width + 1:
                raise TraceSchemaError(
                    f"{path}: line {lineno} has {len(row)} columns, expected {width + 1}"
                )
            try:
                frame = int(row[0])
            except ValueError as exc:
                raise TraceFormatError(f"bad frame index {row[0]!r}", line=lineno) from exc
            if frame != len(rows):
                raise TraceSchemaError(
                    f"{path}: frame index {frame} at line {lineno} does not match row position {len(rows)}"
                )
            rows.append([parse_cell(cell, lineno) for cell in row[1:]])
    return rows


def _parse_bit(cell: str, lineno: int) -> int:
    if cell not in ("0", "1"):
        raise TraceFormatError(f"availability cell must be 0 or 1, got {cell!r}", line=lineno)
    return int(cell)


def _parse_latency(cell: str, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise TraceFormatError(f"bad latency cell {cell!r}", line=lineno) from exc
    if not np.isfinite(value) or value < 0:
        raise TraceFormatError(f"latency must be finite and >= 0, got {cell!r}", line=lineno)
    return value


def load_traces(trace_dir) -> tuple[CameraTrace, ServerLatencyTrace]:
    """Load cameras.csv and servers.csv from a directory written by save_traces.

    Event logs are not part of the CSV schema, so loaded traces carry empty
    event lists.
    """
    trace_dir = Path(trace_dir)
    cam_rows = _read_matrix(trace_dir / CAMERAS_FILE, _camera_header, _parse_bit)
    srv_rows = _read_matrix(trace_dir / SERVERS_FILE, _server_header, _parse_latency)
    if len(cam_rows) != len(srv_rows):
        raise TraceSchemaError(
            f"camera trace has {len(cam_rows)} frames but server trace has {len(srv_rows)}"
        )
    camera = CameraTrace(availability=np.array(cam_rows, dtype=np.uint8))
    server = ServerLatencyTrace(latency_ms=np.array(srv_rows, dtype=float))
    return camera, server


def write_event_log(camera: CameraTrace, server: ServerLatencyTrace, path) -> None:
    """Dump both event lists as JSON for auditing generated scenarios."""
    payload = {
        "camera_bumps": [
            {"start": e.start, "length": e.length, "cameras": list(e.cameras)}
            for e in camera.events
        ],
        "server_spikes": [
            {"start": e.start, "length": e.length, "server": e.server, "added_ms": e.added_ms}
            for e in server.events
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
