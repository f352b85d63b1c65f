"""One simulated controller timestep: camera subset + server choice -> outcome.

Quality comes from a subset-indexed base table (optionally noisy) or from a
replayed per-subset quality trace; latency is affine in the number of images
actually delivered, plus the server's network latency from the trace.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from itertools import count, islice, repeat

import numpy as np

from .csvio import (all_finite_nonnegative, finite_nonnegative, load_matrix, read_csv_rows,
                    write_csv_rows)
from .errors import (PATH, ConfigError, ListOf, OneOf, Optional, Real, Table, TraceSchemaError,
                     check_fields, setting)
from .masks import bitstring, mask_from_str, require_camera_cap
from .metrics import FrameOutcome, Thresholds, reliability

# Two overlapping views are the hard floor for triangulating any geometry.
MIN_VIEWS = 2

DEFAULT_CAMERA_WEIGHTS = (0.82, 0.81, 0.80, 0.79, 0.78)
DEFAULT_QUALITY_CEILING = 660.0
DEFAULT_QUALITY_CURVE = 2.6
DEFAULT_QUALITY_MIDPOINT = 1.72


@dataclass
class QualitySpec:
    """How per-frame quality is produced: synthetic table + noise, or a replayed trace."""

    mode: str = setting(OneOf(("synthetic", "trace")), "synthetic")
    noise_sd: float = setting(Real("[0, inf)"), 30.0)
    camera_weights: tuple[float, ...] | None = setting(Optional(ListOf(Real("[0, inf)"))), None)
    ceiling: float = setting(Real("(0, inf)"), DEFAULT_QUALITY_CEILING)
    curve: float = setting(Real("(0, inf)"), DEFAULT_QUALITY_CURVE)
    midpoint: float = setting(Real(), DEFAULT_QUALITY_MIDPOINT)
    # Explicit bitstring -> base quality override of the synthetic curve.
    table: dict[str, float] | None = setting(Optional(Table(Real("[0, inf)"))), None)
    trace_path: str | None = setting(Optional(PATH), None)

    def validate(self, section: str = "quality") -> None:
        check_fields(self, section)
        if self.mode == "trace" and not self.trace_path:
            raise ConfigError(f"{section}.trace_path is required when {section}.mode is 'trace'")
        # numpy's normal draws lie within 14 standard deviations (its ziggurat
        # tail takes the log of a 53-bit uniform), so noisy quality stays finite.
        peak = max(self.table.values()) if self.table else self.ceiling
        if not math.isfinite(peak + 16 * self.noise_sd):
            raise ConfigError(f"{section}.noise_sd is too large: the largest base quality plus "
                              f"16 * noise_sd must be finite, got {self.noise_sd}")

    def synthetic_weights(self, n_cameras: int) -> tuple:
        """The camera weights the synthetic curve uses: one per camera, by default up to 5 cameras."""
        weights = self.camera_weights
        if weights is None:
            if n_cameras > len(DEFAULT_CAMERA_WEIGHTS):
                raise ConfigError(
                    f"quality.camera_weights is required for n_cameras={n_cameras} (the "
                    f"defaults cover up to {len(DEFAULT_CAMERA_WEIGHTS)})")
            return DEFAULT_CAMERA_WEIGHTS[:n_cameras]
        if len(weights) != n_cameras:
            raise ConfigError(
                f"quality.camera_weights has {len(weights)} entries, expected n_cameras={n_cameras}")
        return weights


def _synthetic_dense(n_cameras: int, camera_weights, ceiling: float, curve: float,
                     midpoint: float) -> np.ndarray:
    """Monotone base-quality table over integer masks, NaN below MIN_VIEWS.

    base(subset) = ceiling / (1 + exp(-curve * (sum of member weights - midpoint))).
    Two views sit on the low shoulder (matching barely succeeds), three or
    more ride the saturating top, so with the defaults a full five-camera rig
    lands near 650 matching points, the best triples near 570, and pairs near
    280, straddling the usual 400/500 quality floors.

    Each mask's weight sum extends the sum of the mask without its last
    camera (its lowest set bit), so the members are added in camera order,
    as ``sum`` over the members would add them.

    Where exp(x) overflows (x > ~709.78), 1 + exp(x) rounds to exp(x), so
    the logistic is its limit ceiling * exp(-x), which underflows to 0.0
    unless the ceiling is huge.
    """
    spec = QualitySpec(camera_weights=camera_weights, ceiling=ceiling, curve=curve, midpoint=midpoint)
    spec.validate()
    weights = spec.synthetic_weights(n_cameras)
    size = 1 << n_cameras
    sums = [0] * size
    dense = [math.nan] * size
    for mask in range(1, size):
        low = mask & -mask
        s = sums[mask] = sums[mask ^ low] + weights[n_cameras - low.bit_length()]
        if mask.bit_count() >= MIN_VIEWS:
            try:
                dense[mask] = ceiling / (1.0 + math.exp(-curve * (s - midpoint)))
            except OverflowError:
                dense[mask] = ceiling * math.exp(curve * (s - midpoint))
    return np.array(dense)


def _check_monotone(values: np.ndarray, n_cameras: int) -> None:
    """values[mask] is the base quality of each integer mask, NaN where the table has none."""
    def name(mask) -> str:
        return bitstring(int(mask), n_cameras)

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
    """Subset -> matching-points model: one dense base-quality table plus noise.

    ``table`` is indexed by integer mask (see the ``masks`` module): 1-D for a
    synthetic model, one row per frame for a replayed trace. NaN marks a
    subset the table has no entry for. Gaussian noise of ``noise_sd`` is added
    to the base quality; a replayed trace has none.
    """

    def __init__(self, table, noise_sd: float = 0.0):
        QualitySpec(noise_sd=noise_sd).validate()
        self.table = table = np.asarray(table, dtype=float)
        self.noise_sd = noise_sd
        width = table.shape[-1]
        self.n_cameras = width.bit_length() - 1
        require_camera_cap(self.n_cameras)
        if width < 2 or width & (width - 1):
            raise ConfigError(f"quality table width {width} is not 2**n_cameras, n_cameras >= 1")
        if table.ndim == 2 and not len(table):
            raise ConfigError("quality trace table has no frames")
        if table.ndim == 1:
            _check_monotone(table, self.n_cameras)

    @classmethod
    def synthetic(cls, n_cameras: int, noise_sd: float = 0.0, table: dict[str, float] | None = None,
                  camera_weights=None, ceiling: float = DEFAULT_QUALITY_CEILING,
                  curve: float = DEFAULT_QUALITY_CURVE,
                  midpoint: float = DEFAULT_QUALITY_MIDPOINT) -> "QualityModel":
        """The synthetic curve's model, or the model of an explicit bitstring -> quality table."""
        require_camera_cap(n_cameras)
        if table is None:
            return cls(_synthetic_dense(n_cameras, camera_weights, ceiling, curve, midpoint),
                       noise_sd)
        dense = np.full(1 << n_cameras, np.nan)
        for key, value in table.items():
            if not isinstance(key, str) or len(key) != n_cameras or key.strip("01"):
                raise ConfigError(
                    f"quality table key {key!r} is not a bitstring of {n_cameras} bits")
            dense[int(key, 2)] = value
        return cls(dense, noise_sd)

    def base_quality(self, frame: int, effective: int) -> float:
        row = self.table
        if row.ndim == 2:
            if frame >= row.shape[0]:
                raise IndexError(f"frame {frame} beyond quality trace length {row.shape[0]}")
            row = row[frame]
        quality = float(row[effective])
        if math.isnan(quality):
            raise ConfigError(
                f"quality table has no entry for subset {bitstring(effective, self.n_cameras)}")
        return quality


@dataclass(frozen=True)
class LatencyModel:
    """Affine transmission/reconstruction latency coefficients (milliseconds)."""

    per_image_tx_ms: float = setting(Real("[0, inf)"), 350.0)
    recon_base_ms: float = setting(Real("[0, inf)"), 400.0)
    recon_per_image_ms: float = setting(Real("[0, inf)"), 120.0)
    server_speed_factor: tuple[float, ...] | None = setting(   # None = 1.0 for every server
        Optional(ListOf(Real("[0, inf)"))), None)

    def validate(self, section: str = "latency") -> None:
        check_fields(self, section)

    __post_init__ = validate

    def speed(self, server: int) -> float:
        if self.server_speed_factor is None:
            return 1.0
        return self.server_speed_factor[server]


def step(frame: int, selected: int, server: int, camera_trace, server_trace,
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
    n_cameras = camera_trace.n_cameras
    if not 0 <= selected < 1 << n_cameras:
        raise ValueError(f"mask {selected} is not a {n_cameras}-bit mask")
    k_sel = selected.bit_count()
    if k_min is not None and k_max is not None and not k_min <= k_sel <= k_max:
        raise ValueError(
            f"mask {bitstring(selected, n_cameras)} violates subset bounds [{k_min}, {k_max}]")

    # Disrupted cameras drop out of the selection for this frame.
    available = 0
    for bit in camera_trace.availability[frame]:
        available = available << 1 | int(bit) & 1
    effective = selected & available
    k_eff = effective.bit_count()

    if k_eff < MIN_VIEWS:
        quality = 0.0
    else:
        quality = quality_model.base_quality(frame, effective)
        if quality_model.noise_sd > 0:
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
    never miss at runtime. Every cell must be a finite quality >= 0. Once
    the header passes, the rows are read by ``csvio.load_matrix``, in one
    bulk pass when it accepts the file, as a servers.csv is.
    """
    with closing(read_csv_rows(path)) as reader:
        header = next(reader, None)
        if not header or header[0] != "frame" or len(header) < 2:
            raise TraceSchemaError(f"{path}: header must be 'frame,<mask>,...', got {header}")
        try:
            masks = [mask_from_str(col) for col in header[1:]]
        except ValueError as exc:
            raise TraceSchemaError(f"{path}: {exc}") from exc
        widths = {len(col) for col in header[1:]}
        if len(widths) != 1:
            raise TraceSchemaError(f"{path}: mask columns have mixed lengths {sorted(widths)}")
        width = widths.pop()
        if n_cameras is not None and width != n_cameras:
            raise TraceSchemaError(f"{path}: mask columns have {width} bits, expected {n_cameras}")
        # Count the required subsets the header names before listing any,
        # so a wide header fails without enumerating 2**width subsets.
        present = set(masks)
        need = (1 << width) - 1 - width
        have = sum(1 for m in present if m.bit_count() >= MIN_VIEWS)
        if have < need:
            missing = islice((m for m in count() if m.bit_count() >= MIN_VIEWS
                              and m not in present), 3)
            listing = ", ".join(bitstring(m, width) for m in missing)
            raise TraceSchemaError(
                f"{path}: missing {need - have} subset columns: {listing}"
                + (", ..." if need - have > 3 else "")
            )
    values = load_matrix(path, lambda _width: header, float, all_finite_nonnegative,
                         finite_nonnegative("quality"))
    if not len(values):
        raise TraceSchemaError(f"{path}: no data rows")
    # A subset named by more than one column takes its last column.
    columns = {mask: i for i, mask in enumerate(masks)}
    table = np.full((len(values), 1 << width), np.nan)
    table[:, list(columns)] = values[:, list(columns.values())]
    return QualityModel(table)


def write_quality_trace(path, model: QualityModel, n_frames: int) -> None:
    """Write a model's noise-free base quality for n_frames frames as a trace CSV.

    One column per subset the table has an entry for, in bitstring order.
    """
    table = model.table
    present = np.flatnonzero(~np.isnan(table if table.ndim == 1 else table[0]))
    values = table[..., present]
    if values.ndim == 1:
        # Every frame repeats the one row, so its cells are formatted once.
        cells = repeat(",".join(map(repr, values.tolist())), n_frames)
    elif len(values) < n_frames:
        raise ConfigError(f"quality trace covers {len(values)} frames, need {n_frames}")
    else:
        # A replayed row holds up to 2**n_cameras cells; they are joined a frame at a time.
        cells = (",".join(map(repr, row.tolist())) for row in values[:n_frames])
    columns = [map(str, range(n_frames))]
    if present.size:   # a table without entries writes the frame column alone
        columns.append(cells)
    write_csv_rows(path, ["frame"] + [bitstring(mask, model.n_cameras) for mask in present],
                   columns)
