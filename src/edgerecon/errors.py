"""Exception types shared across the simulator, and the boundary checks that raise them."""

import math
import numbers
import os


class ConfigError(ValueError):
    """Invalid configuration or parameters; the message names the offending field."""


class TraceFormatError(ValueError):
    """A trace file cell could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TraceSchemaError(ValueError):
    """Trace file structure (header, dimensions, frame indexing) is inconsistent."""


def require_finite(name: str, value) -> None:
    """Reject anything but a finite real number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def require_count(name: str, value) -> None:
    """Reject anything but an integer; booleans and integral floats are not counts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_bool(name: str, value) -> None:
    """Reject anything but True or False; "no", 0 and 1 are not booleans here."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def require_path(name: str, value) -> None:
    """Reject anything but a path string (or path object); an int would name a file descriptor."""
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
