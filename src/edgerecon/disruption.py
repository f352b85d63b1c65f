"""Correlated camera-outage and server-latency trace generation.

Camera outages are driven by a per-camera failure-probability series: a low
baseline punctuated by bump events that raise the whole correlated group to a
high level for a random interval. Thresholding that series yields the binary
availability matrix, so cameras sharing a group always drop out together.
Server latency sits at a jittered baseline and receives additive spikes, one
server per event, keeping servers statistically independent of each other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .csvio import (_frame_chars, all_finite_nonnegative, finite_nonnegative, format_cells,
                    load_matrix, write_csv_rows)
from .errors import (ConfigError, Integer, ListOf, Optional, Real, TraceFormatError, TraceSchemaError,
                     check_fields, setting)

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
    n_frames: int = setting(Integer("[1, inf)"), 4000)
    n_cameras: int = setting(Integer("[1, inf)"), 5)
    n_servers: int = setting(Integer("[1, inf)"), 4)
    correlation_groups: tuple[tuple[int, ...], ...] | None = setting(   # None = the default groups
        Optional(ListOf(ListOf(Integer("[0, n_cameras)")))), None)
    n_bump_events: int = setting(Integer("[0, inf)"), 10)
    # Event lengths are drawn as numpy int64 from a geometric law of this mean.
    mean_bump_len: int = setting(Integer(f"[1, {2**63})"), 50)
    disruption_threshold: float = setting(Real("(0, 1)"), 0.6)
    baseline_failure_prob: float = setting(Real("[0, 1]"), 0.05)
    bump_failure_prob: float = setting(Real("[0, 1]"), 0.9)
    server_baseline_ms: float = setting(Real("[0, inf)"), 150.0)
    server_jitter_ms: float = setting(Real("[0, server_baseline_ms]"), 10.0)
    n_spike_events: int = setting(Integer("[0, inf)"), 10)
    spike_range_ms: tuple[float, float] = setting(ListOf(Real("[0, inf)"), length=2), (400.0, 1200.0))
    mean_spike_len: int = setting(Integer(f"[1, {2**63})"), 50)
    spike_servers: tuple[int, ...] | None = setting(   # None = any server may spike
        Optional(ListOf(Integer("[0, n_servers)"))), None)
    seed: int = setting(Integer("[0, inf)"), 0)

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """The correlation groups as given, else the default ones.

        The default is DEFAULT_CORRELATION_GROUPS without the cameras a rig
        of n_cameras lacks and without the groups that leaves empty; from 5
        cameras on it is DEFAULT_CORRELATION_GROUPS itself.
        """
        if self.correlation_groups is not None:
            return self.correlation_groups
        groups = (tuple(cam for cam in group if cam < self.n_cameras)
                  for group in DEFAULT_CORRELATION_GROUPS)
        return tuple(group for group in groups if group)

    @property
    def peak_latency_ms(self) -> float:
        """The largest latency generate_server_trace can write; >= the jitter draw's width."""
        return self.server_baseline_ms + self.server_jitter_ms + self.spike_range_ms[1]

    def validate(self, section: str = "disruption") -> None:
        check_fields(self, section)
        cameras = [cam for group in self.groups for cam in group]
        if len(set(cameras)) < len(cameras):
            twice = next(cam for cam in cameras if cameras.count(cam) > 1)
            raise ConfigError(f"{section}.correlation_groups lists camera {twice} twice")
        lo, hi = self.spike_range_ms
        if not lo < hi:
            raise ConfigError(f"{section}.spike_range_ms lower bound must be < upper bound, "
                              f"got ({lo}, {hi})")
        peak = self.peak_latency_ms
        if not math.isfinite(peak):
            raise ConfigError(
                f"{section}.server_baseline_ms + {section}.server_jitter_ms + "
                f"{section}.spike_range_ms[1] must be finite, got {peak}")


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
    groups = [tuple(g) for g in params.groups]
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
    """Write cameras.csv and servers.csv under out_dir; returns the two paths.

    Availability cells are written as integers and latency cells as the
    repr of their float value.
    """
    if camera.frames != server.frames:
        raise TraceSchemaError(
            f"camera trace has {camera.frames} frames but server trace has {server.frames}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cam_path = out / CAMERAS_FILE
    srv_path = out / SERVERS_FILE
    # An availability column repeats two values, each formatted once. Latency
    # cells are formatted as the writer reaches them, a block at a time.
    write_csv_rows(cam_path, _camera_header(camera.n_cameras), [
        map(str, range(camera.frames)),
        *(format_cells(column, str)
          for column in camera.availability.astype(int, copy=False).T.tolist())])
    write_csv_rows(srv_path, _server_header(server.n_servers), [
        map(str, range(server.frames)),
        *(map(repr, map(float, column)) for column in server.latency_ms.T)])
    return cam_path, srv_path


def _parse_bit(cell: str, lineno: int) -> int:
    if cell not in ("0", "1"):
        raise TraceFormatError(f"availability cell must be 0 or 1, got {cell!r}", line=lineno)
    return int(cell)


def _bits_as_written(bits: np.ndarray, cell_chars: int) -> bool:
    """True when every availability cell is the text ``0`` or ``1``.

    loadtxt's int parser reads ``[spaces][sign]digits[spaces]``, so it also
    takes ``01``, ``+1`` and `` 1``; each of those is longer than the
    shortest text of its value. ``cell_chars`` counts the characters of all
    data cells, frame cells included: when it equals the shortest texts'
    total, every cell is written in its shortest form.
    """
    n, width = bits.shape
    return bits.max() <= 1 and cell_chars == _frame_chars(n) + n * width


def load_traces(trace_dir) -> tuple[CameraTrace, ServerLatencyTrace]:
    """Load cameras.csv and servers.csv from a directory written by save_traces.

    Each file is read by ``csvio.load_matrix``: in one bulk pass when it
    passes that reader's byte-level guards, and otherwise row by row;
    unreadable, undecodable or malformed files raise TraceFormatError or
    TraceSchemaError. Event logs are not part of the CSV schema, so loaded
    traces carry empty event lists.
    """
    trace_dir = Path(trace_dir)
    availability = load_matrix(trace_dir / CAMERAS_FILE, _camera_header, np.uint8,
                               _bits_as_written, _parse_bit)
    latency = load_matrix(trace_dir / SERVERS_FILE, _server_header, float,
                          all_finite_nonnegative, finite_nonnegative("latency"))
    if len(availability) != len(latency):
        raise TraceSchemaError(
            f"camera trace has {len(availability)} frames but server trace has {len(latency)}"
        )
    return CameraTrace(availability=availability), ServerLatencyTrace(latency_ms=latency)


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
