"""Exception types shared across the simulator, and the config schema that raises ConfigError.

Every config section is a dataclass whose fields are declared with
``setting(kind, default)``: the kind says how the value is written (an
integer, a finite real, a flag, a path, a name, a list or a quality table)
and which interval it lies in. ``check_fields`` checks a section against
those declarations, and ``load_section`` builds one from a parsed YAML
mapping; each section's ``validate`` adds only the rules that tie fields
together.
"""

import math
import numbers
import os
from dataclasses import MISSING, field, fields
from functools import cache


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


class Interval:
    """An interval written as in mathematics, e.g. "(0, 1]" or "[0, inf)".

    An end that is not a number names a field of the same section declared
    earlier, e.g. "[k_min, n_cameras]"; it is read from the section when a
    value is checked.
    """

    def __init__(self, text: str):
        self.text = text
        self.ends = [end.strip() for end in text[1:-1].split(",")]
        self.lo, self.hi = map(_bound, self.ends)
        self.lo_open, self.hi_open = text[0] == "(", text[-1] == ")"

    def check(self, name: str, value, owner) -> None:
        lo = self.lo if isinstance(self.lo, float) else getattr(owner, self.lo)
        hi = self.hi if isinstance(self.hi, float) else getattr(owner, self.hi)
        if ((lo < value if self.lo_open else lo <= value)
                and (value < hi if self.hi_open else value <= hi)):
            return
        # Field-named ends are shown with their values: "[k_min, n_cameras] = [4, 5]".
        shown = [end if isinstance(bound, float) else repr(now)
                 for end, bound, now in zip(self.ends, (self.lo, self.hi), (lo, hi))]
        where = self.text
        if shown != self.ends:
            where += f" = {self.text[0]}{shown[0]}, {shown[1]}{self.text[-1]}"
        raise ConfigError(f"{name} must lie in {where}, got {value!r}")


def _bound(text: str):
    try:
        return float(text)
    except ValueError:
        return text


class Kind:
    """How a field's value is written; each kind's ``check`` raises ConfigError naming the field."""

    def load(self, value, name: str):
        """The value as the section stores it, from its parsed YAML form."""
        return value


class Integer(Kind):
    """An int that is not a bool; integral floats such as 4.0 are not counts."""

    def __init__(self, interval: str = "(-inf, inf)"):
        self.interval = Interval(interval)

    def check(self, name: str, value, owner) -> None:
        # The type test first spares the common case the slower ABC check.
        if type(value) is not int and (isinstance(value, bool)
                                       or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        self.interval.check(name, value, owner)


class Real(Integer):
    """A finite real number; a bool is not a number here."""

    def check(self, name: str, value, owner) -> None:
        if type(value) is not float and (isinstance(value, bool)
                                         or not isinstance(value, numbers.Real)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:     # an int beyond the float range
            finite = False
        if not finite:
            raise ConfigError(f"{name} must be finite, got {value!r}")
        self.interval.check(name, value, owner)


class IsA(Kind):
    """A value of the given types and no other."""

    def __init__(self, types, what: str):
        self.types, self.what = types, what

    def check(self, name: str, value, owner) -> None:
        if not isinstance(value, self.types):
            raise ConfigError(f"{name} must be {self.what}, got {value!r}")


# "no", 0 and 1 are not flags; an int path would name an inherited file descriptor.
FLAG = IsA(bool, "true or false")
PATH = IsA((str, os.PathLike), "a path string")


class OneOf(Kind):
    """One of a fixed set of names."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names

    def check(self, name: str, value, owner) -> None:
        if not (isinstance(value, str) and value in self.names):
            raise ConfigError(f"{name} must be one of {self.names}, got {value!r}")


class ListOf(Kind):
    """A nonempty list (a tuple once loaded) whose items are all of one kind."""

    def __init__(self, item, length: int | None = None):
        self.item = item
        self.length = length

    def load(self, value, name: str):
        if not isinstance(value, (list, tuple)):
            return value
        return tuple(self.item.load(item, name) for item in value)

    def check(self, name: str, value, owner) -> None:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
        if self.length is not None and len(value) != self.length:
            raise ConfigError(f"{name} must hold {self.length} values, got {value!r}")
        for i, item in enumerate(value):
            self.item.check(f"{name}[{i}]", item, owner)


class Table(Kind):
    """A mapping from camera bitstring ("01101") to a value of the item kind."""

    def __init__(self, item):
        self.item = item

    def check(self, name: str, value, owner) -> None:
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a mapping from bitstring to number, got {value!r}")
        for key, item in value.items():
            if not isinstance(key, str) or not key or set(key) - {"0", "1"}:
                raise ConfigError(f"{name} key {key!r} is not a bitstring")
            self.item.check(f"{name}[{key!r}]", item, owner)


class Optional(Kind):
    """None, or a value of the wrapped kind."""

    def __init__(self, item):
        self.item = item

    def load(self, value, name: str):
        return None if value is None else self.item.load(value, name)

    def check(self, name: str, value, owner) -> None:
        if value is not None:
            self.item.check(name, value, owner)


class Section(Kind):
    """A nested section: an instance of its dataclass, checked by its own validate."""

    def __init__(self, cls):
        self.cls = cls

    def load(self, value, name: str):
        return load_section(self.cls, value, name)

    def check(self, name: str, value, owner) -> None:
        if not isinstance(value, self.cls):
            raise ConfigError(f"{name} must be a {self.cls.__name__}, got {value!r}")
        value.validate(name)


def setting(kind, default=MISSING, *, factory=MISSING):
    """A dataclass field whose values are of ``kind``."""
    return field(default=default, default_factory=factory, metadata={"kind": kind})


@cache
def _schema(cls, section: str) -> tuple:
    """(attribute, dotted name, kind) for each field of a section class, resolved once."""
    prefix = f"{section}." if section else ""
    return tuple((f.name, prefix + f.name, f.metadata["kind"]) for f in fields(cls))


def check_fields(section_obj, section: str) -> None:
    """Check every field of a section against its declared kind and interval, in order.

    ``section`` is the dotted name of the section ("" at the top level),
    which every message starts with.
    """
    for attr, name, kind in _schema(type(section_obj), section):
        kind.check(name, getattr(section_obj, attr), section_obj)


def load_section(cls, raw, section: str, **fixed):
    """Build a section from a parsed YAML mapping, converting each value from its declared kind.

    ``fixed`` fields come from elsewhere in the config and may not appear in
    ``raw``. Only the keys are checked here; the section's ``validate`` does the rest.
    """
    context = section or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} section must be a mapping, got {type(raw).__name__}")
    schema = {attr: (name, kind) for attr, name, kind in _schema(cls, section)}
    unknown = set(raw) - schema.keys()
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown, key=str)}")
    derived = sorted(fixed.keys() & raw.keys())
    if derived:
        raise ConfigError(f"{schema[derived[0]][0]} is derived from the top-level config; remove it")
    kwargs = {attr: schema[attr][1].load(value, schema[attr][0]) for attr, value in raw.items()}
    return cls(**kwargs, **fixed)
