"""Camera-subset masks.

A mask is an integer with camera 0 in the most significant of ``n_cameras``
bits, so ``bitstring(mask, n_cameras)`` is how files and messages show it
and ``mask_from_str`` reads it back.
"""

from __future__ import annotations

from .errors import ConfigError

# Largest camera count a config may ask for. The engine keeps tables over
# all 2**n_cameras masks; at 20 cameras one quality row is 8 MB of floats.
MAX_CAMERAS = 20


def require_camera_cap(n_cameras: int) -> None:
    """Reject a camera count above MAX_CAMERAS before anything sized 2**n_cameras is built."""
    if n_cameras > MAX_CAMERAS:
        raise ConfigError(f"n_cameras must be <= {MAX_CAMERAS}, got {n_cameras}")


def bitstring(mask: int, n_cameras: int) -> str:
    """The integer mask as n_cameras 0/1 characters, camera 0 first."""
    return format(mask, f"0{n_cameras}b")


def mask_from_str(text: str) -> int:
    """The integer mask a bitstring shows; its width is len(text)."""
    if not text or text.strip("01"):
        raise ValueError(f"mask string must be nonempty 0/1 characters, got {text!r}")
    return int(text, 2)


def subsets(n_cameras: int, k_min: int, k_max: int) -> list[int]:
    """Every mask with k_min..k_max cameras, ascending, which is bitstring order."""
    return [mask for mask in range(1 << n_cameras) if k_min <= mask.bit_count() <= k_max]
