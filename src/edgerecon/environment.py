"""One simulated controller timestep: camera subset + server choice -> outcome.

Quality comes from a subset-indexed base table (optionally noisy) or from a
replayed per-subset quality trace; latency is affine in the number of images
actually delivered, plus the server's network latency from the trace.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ConfigError, TraceFormatError, TraceSchemaError, require_finite
from .masks import Mask, mask_from_str, mask_to_int, mask_to_str, popcount, subsets
from .metrics import FrameOutcome, Thresholds, reliability

# Two overlapping views are the hard floor for triangulating any geometry.
MIN_VIEWS = 2

DEFAULT_CAMERA_WEIGHTS = (0.82, 0.81, 0.80, 0.79, 0.78)
DEFAULT_QUALITY_CEILING = 660.0
DEFAULT_QUALITY_CURVE = 2.6
DEFAULT_QUALITY_MIDPOINT = 1.72


def apply_availability(mask: Mask, availability_row) -> Mask:
    """Drop the cameras that are disrupted this frame."""
    return tuple(int(b) & int(a) for b, a in zip(mask, availability_row))


def all_masks_with_min_views(n_cameras: int) -> list[Mask]:
    """Every subset with at least MIN_VIEWS cameras, in bitstring order."""
    return subsets(n_cameras, MIN_VIEWS, n_cameras)


def synthetic_quality_table(n_cameras: int, camera_weights=None,
                            ceiling: float = DEFAULT_QUALITY_CEILING,
                            curve: float = DEFAULT_QUALITY_CURVE,
                            midpoint: float = DEFAULT_QUALITY_MIDPOINT) -> dict[Mask, float]:
    """Monotone base-quality table, sigmoid in the summed camera weights.

    base(subset) = ceiling / (1 + exp(-curve * (sum of member weights - midpoint))).
    Two views sit on the low shoulder (matching barely succeeds), three or
    more ride the saturating top, so with the defaults a full five-camera rig
    lands near 650 matching points, the best triples near 570, and pairs near
    280, straddling the usual 400/500 quality floors.
    """
    if camera_weights is None:
        if n_cameras > len(DEFAULT_CAMERA_WEIGHTS):
            raise ConfigError(
                f"camera_weights required for n_cameras={n_cameras} (defaults cover up to "
                f"{len(DEFAULT_CAMERA_WEIGHTS)})"
            )
        camera_weights = DEFAULT_CAMERA_WEIGHTS[:n_cameras]
    if len(camera_weights) != n_cameras:
        raise ConfigError(
            f"camera_weights has {len(camera_weights)} entries, expected {n_cameras}"
        )
    if any(w < 0 for w in camera_weights):
        raise ConfigError("camera_weights must be nonnegative")
    if ceiling <= 0 or curve <= 0:
        raise ConfigError("quality ceiling and curve must be > 0")
    table = {}
    for mask in all_masks_with_min_views(n_cameras):
        s = sum(compress(camera_weights, mask))
        table[mask] = ceiling / (1.0 + math.exp(-curve * (s - midpoint)))
    return table


def _by_mask(mapping: dict[Mask, object], n_cameras: int) -> list:
    """The mapping re-keyed by integer mask: a list with None where a mask is absent."""
    dense = [None] * (1 << n_cameras)
    for mask, value in mapping.items():
        if len(mask) != n_cameras:
            raise ConfigError(f"quality mask {mask_to_str(mask)} does not have {n_cameras} bits")
        dense[mask_to_int(mask)] = value
    return dense


def _check_monotone(values: np.ndarray, n_cameras: int) -> None:
    """values[mask] is the base quality of each integer mask, NaN where the table has none."""
    def name(mask) -> str:
        return format(int(mask), f"0{n_cameras}b")

    present = ~np.isnan(values)
    negative = np.flatnonzero(present & (values < 0))
    if negative.size:
        raise ConfigError(f"quality table value for {name(negative[0])} is negative")
    masks = np.arange(values.size)
    for cam in range(n_cameras):
        bit = 1 << (n_cameras - 1 - cam)
        small = masks[masks & bit == 0]
        grown = small | bit
        shrinks = present[small] & present[grown] & (values[grown] < values[small] - 1e-9)
        bad = np.flatnonzero(shrinks)
        if bad.size:
            i = bad[0]
            raise ConfigError(f"quality table not monotone: {name(grown[i])} < {name(small[i])}")


class QualityModel:
    """Subset -> matching-points model, either synthetic (table + noise) or a replayed trace.

    Besides the tuple-keyed ``base`` table or ``trace_columns``, the model
    keeps the same mapping indexed by integer mask (``base_by_mask`` or
    ``column_by_mask``, None where a subset is absent) for the episode engine.
    """

    def __init__(self, *, base: dict[Mask, float] | None = None, noise_sd: float = 0.0,
                 trace: np.ndarray | None = None, trace_columns: dict[Mask, int] | None = None,
                 n_cameras: int | None = None):
        if (base is None) == (trace is None):
            raise ConfigError("QualityModel needs exactly one of a base table or a trace")
        require_finite("noise_sd", noise_sd)
        if noise_sd < 0:
            raise ConfigError(f"noise_sd must be >= 0, got {noise_sd}")
        self.base = base
        self.noise_sd = noise_sd
        self.trace = trace
        self.trace_columns = trace_columns
        if n_cameras is None:
            n_cameras = len(next(iter(base))) if base is not None else len(next(iter(trace_columns)))
        self.n_cameras = n_cameras
        self.base_by_mask = self.column_by_mask = None
        if base is not None:
            self.base_by_mask = _by_mask(base, n_cameras)
            _check_monotone(np.array(self.base_by_mask, dtype=float), n_cameras)
        else:
            self.column_by_mask = _by_mask(trace_columns, n_cameras)

    @property
    def mode(self) -> str:
        return "synthetic" if self.base is not None else "trace"

    @classmethod
    def synthetic(cls, n_cameras: int, noise_sd: float = 0.0, table: dict[Mask, float] | None = None,
                  camera_weights=None, ceiling: float = DEFAULT_QUALITY_CEILING,
                  curve: float = DEFAULT_QUALITY_CURVE,
                  midpoint: float = DEFAULT_QUALITY_MIDPOINT) -> "QualityModel":
        if table is None:
            table = synthetic_quality_table(n_cameras, camera_weights, ceiling, curve, midpoint)
        return cls(base=table, noise_sd=noise_sd, n_cameras=n_cameras)

    def base_quality(self, frame: int, effective: Mask) -> float:
        if self.base is not None:
            try:
                return self.base[effective]
            except KeyError:
                raise ConfigError(
                    f"quality table has no entry for subset {mask_to_str(effective)}"
                ) from None
        if frame >= self.trace.shape[0]:
            raise IndexError(f"frame {frame} beyond quality trace length {self.trace.shape[0]}")
        return float(self.trace[frame, self.trace_columns[effective]])


@dataclass(frozen=True)
class LatencyModel:
    """Affine transmission/reconstruction latency coefficients (milliseconds)."""

    per_image_tx_ms: float = 350.0
    recon_base_ms: float = 400.0
    recon_per_image_ms: float = 120.0
    server_speed_factor: tuple[float, ...] | None = None   # None = 1.0 for every server

    def __post_init__(self):
        for factor in self.server_speed_factor or ():
            require_finite("latency.server_speed_factor", factor)
        for name in ("per_image_tx_ms", "recon_base_ms", "recon_per_image_ms"):
            require_finite(f"latency.{name}", getattr(self, name))
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.server_speed_factor is not None and any(f < 0 for f in self.server_speed_factor):
            raise ConfigError("server_speed_factor entries must be >= 0")

    def speed(self, server: int) -> float:
        if self.server_speed_factor is None:
            return 1.0
        return self.server_speed_factor[server]


def step(frame: int, selected: Mask, server: int, camera_trace, server_trace,
         quality_model: QualityModel, latency_model: LatencyModel, thresholds: Thresholds,
         *, k_min: int | None = None, k_max: int | None = None, rng=None) -> FrameOutcome:
    """Simulate one timestep under the current disruption state.

    Disrupted cameras contribute neither quality nor per-image latency; with
    fewer than MIN_VIEWS surviving views the reconstruction fails outright
    (quality 0). Noise draws happen only when noise_sd > 0, so noise-free
    stepping is a pure function of its inputs.
    """
    if not 0 <= frame < camera_trace.frames or frame >= server_trace.frames:
        raise IndexError(
            f"frame {frame} out of range (camera trace {camera_trace.frames}, "
            f"server trace {server_trace.frames} frames)"
        )
    if not 0 <= server < server_trace.n_servers:
        raise IndexError(f"server {server} out of range, trace has {server_trace.n_servers}")
    if len(selected) != camera_trace.n_cameras:
        raise ValueError(
            f"mask has {len(selected)} bits, trace has {camera_trace.n_cameras} cameras"
        )
    k_sel = popcount(selected)
    if k_min is not None and k_max is not None and not k_min <= k_sel <= k_max:
        raise ValueError(f"mask {mask_to_str(selected)} violates subset bounds [{k_min}, {k_max}]")

    effective = apply_availability(selected, camera_trace.availability[frame])
    k_eff = popcount(effective)

    if k_eff < MIN_VIEWS:
        quality = 0.0
    else:
        quality = quality_model.base_quality(frame, effective)
        if quality_model.mode == "synthetic" and quality_model.noise_sd > 0:
            if rng is None:
                raise ValueError("rng is required when noise_sd > 0")
            quality = max(0.0, float(quality + rng.normal(0.0, quality_model.noise_sd)))

    network_ms = float(server_trace.latency_ms[frame, server])
    tx_ms = latency_model.per_image_tx_ms * k_eff + network_ms
    recon_ms = (latency_model.recon_base_ms
                + latency_model.recon_per_image_ms * k_eff) * latency_model.speed(server)
    tx_s = tx_ms / 1000.0
    recon_s = recon_ms / 1000.0
    total_s = tx_s + recon_s
    return FrameOutcome(
        quality=quality,
        tx_latency_s=tx_s,
        recon_latency_s=recon_s,
        total_latency_s=total_s,
        effective_mask=effective,
        reliable=reliability(quality, total_s, recon_s, thresholds),
    )


def load_quality_trace(path, n_cameras: int | None = None) -> QualityModel:
    """Load a per-frame, per-subset quality trace CSV.

    Header is `frame` followed by one bitstring column per subset; every
    subset with at least MIN_VIEWS cameras must be present so lookups can
    never miss at runtime.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "frame" or len(header) < 2:
            raise TraceSchemaError(f"{path}: header must be 'frame,<mask>,...', got {header}")
        try:
            masks = [mask_from_str(col) for col in header[1:]]
        except ValueError as exc:
            raise TraceSchemaError(f"{path}: {exc}") from exc
        widths = {len(m) for m in masks}
        if len(widths) != 1:
            raise TraceSchemaError(f"{path}: mask columns have mixed lengths {sorted(widths)}")
        width = widths.pop()
        if n_cameras is not None and width != n_cameras:
            raise TraceSchemaError(f"{path}: mask columns have {width} bits, expected {n_cameras}")
        required = set(all_masks_with_min_views(width))
        missing = required - set(masks)
        if missing:
            listing = ", ".join(sorted(mask_to_str(m) for m in missing))
            raise TraceSchemaError(f"{path}: missing subset columns: {listing}")
        columns = {mask: i for i, mask in enumerate(masks)}
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise TraceSchemaError(
                    f"{path}: line {lineno} has {len(row)} columns, expected {len(header)}"
                )
            try:
                frame = int(row[0])
            except ValueError as exc:
                raise TraceFormatError(f"bad frame index {row[0]!r}", line=lineno) from exc
            if frame != len(rows):
                raise TraceSchemaError(
                    f"{path}: frame index {frame} at line {lineno} does not match row position"
                )
            values = []
            for cell in row[1:]:
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise TraceFormatError(f"bad quality cell {cell!r}", line=lineno) from exc
                if value < 0:
                    raise TraceFormatError(f"quality must be >= 0, got {cell!r}", line=lineno)
                values.append(value)
            rows.append(values)
    if not rows:
        raise TraceSchemaError(f"{path}: no data rows")
    return QualityModel(trace=np.array(rows, dtype=float), trace_columns=columns, n_cameras=width)


def write_quality_trace(path, model: QualityModel, n_frames: int) -> None:
    """Materialize a synthetic model's noise-free base table as a trace CSV."""
    if model.mode != "synthetic":
        raise ConfigError("write_quality_trace expects a synthetic model")
    masks = sorted(model.base, key=mask_to_str)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame"] + [mask_to_str(m) for m in masks])
        for frame in range(n_frames):
            writer.writerow([frame] + [repr(float(model.base[m])) for m in masks])
