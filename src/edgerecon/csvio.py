"""CSV file I/O shared by the trace loaders and the output writers.

Reading parses a file with ``csv.reader`` as it streams in, or a whole
frame-indexed matrix in one pass (``load_matrix``); a path that names no
readable file, text that cannot be decoded and malformed CSV become
TraceFormatError, so a bad file is a data error at the boundary, not a
runtime failure. Writing joins columns of cell strings into rows, producing
the bytes ``csv.writer`` would (comma-separated, ``\r\n`` line ends) for
cells that never need quoting.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import closing
from itertools import islice

import numpy as np

from .errors import TraceFormatError, TraceSchemaError


def _open(path, *args, **kwargs):
    """``open(path, ...)``; a missing file, a directory or any other OSError raises TraceFormatError."""
    try:
        return open(path, *args, **kwargs)
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _read_bytes(path) -> bytes:
    with _open(path, "rb") as fh:
        return fh.read()


def read_csv_rows(path):
    """Yield the rows of a CSV file as lists of strings.

    Raises TraceFormatError, with the line number, for undecodable text or
    a row the CSV parser rejects (for example a field over its size limit).
    """
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError as exc:
            raise _decode_error(path, fh.encoding) from exc
        except csv.Error as exc:
            raise TraceFormatError(f"{path}: {exc}", line=reader.line_num) from exc


def _decode_error(path, encoding: str) -> TraceFormatError:
    """The error for a file that does not decode, naming the first bad byte and its line.

    The reader decodes in chunks, so the file is decoded again as a whole
    to find the byte's offset.
    """
    raw = _read_bytes(path)
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as exc:
        return TraceFormatError(
            f"{path}: cannot decode byte {raw[exc.start:exc.start + 1]!r} as {encoding} "
            f"({exc.reason})", line=raw.count(b"\n", 0, exc.start) + 1,
        )
    return TraceFormatError(f"{path}: cannot decode as {encoding}")


def finite_nonnegative(what: str):
    """The row parse of a cell that must be a finite float >= 0; errors call it a ``what`` cell."""
    def parse(cell: str, lineno: int) -> float:
        try:
            value = float(cell)
        except ValueError as exc:
            raise TraceFormatError(f"bad {what} cell {cell!r}", line=lineno) from exc
        if not math.isfinite(value) or value < 0:
            raise TraceFormatError(f"{what} must be finite and >= 0, got {cell!r}", line=lineno)
        return value
    return parse


def all_finite_nonnegative(cells: np.ndarray, cell_chars: int) -> bool:
    """The bulk accept of ``finite_nonnegative`` cells: every value finite and >= 0."""
    return bool(np.isfinite(cells).all() and (cells >= 0).all())


def _read_matrix(path, expected_header, parse_cell, dtype) -> np.ndarray:
    """The data rows of a trace CSV read with ``csv`` and checked one cell at a time.

    This is the reference for ``_bulk_matrix``, and reads every file that
    the bulk parse does not accept; it raises at the first bad line.
    """
    with closing(read_csv_rows(path)) as lines:
        header = next(lines, None)
        if header is None:
            raise TraceSchemaError(f"{path}: file is empty")
        width = len(header)
        if header != expected_header(width - 1) or width < 2:
            raise TraceSchemaError(f"{path}: unexpected header {header}")
        parsed = []
        for lineno, row in enumerate(lines, start=2):
            if len(row) != width:
                raise TraceSchemaError(
                    f"{path}: line {lineno} has {len(row)} columns, expected {width}"
                )
            try:
                frame = int(row[0])
            except ValueError as exc:
                raise TraceFormatError(f"bad frame index {row[0]!r}", line=lineno) from exc
            if frame != len(parsed):
                raise TraceSchemaError(
                    f"{path}: frame index {frame} at line {lineno} does not match "
                    f"row position {len(parsed)}"
                )
            parsed.append([parse_cell(cell, lineno) for cell in row[1:]])
    return np.array(parsed, dtype=dtype)


def _frame_chars(n: int) -> int:
    """The characters of the frame cells 0..n-1 written in decimal: len("".join(map(str, range(n))))."""
    return n + sum(n - 10 ** d for d in range(1, len(str(n - 1))))


_LF, _CR = ord("\n"), ord("\r")


def _bulk_matrix(path, expected_header, dtype, accept) -> np.ndarray | None:
    """The data rows of a trace CSV parsed in one pass by numpy's C reader.

    Returns None unless byte-level guards show that ``_read_matrix`` would
    accept the file with the same values:

    - the file is ASCII with no ``"``, and its only control characters are
      line ends (loadtxt strips \\x1c-\\x1f around numbers, ``int`` and
      ``float`` do not);
    - the header is the expected one;
    - every line ends in ``\\n``, or every one in ``\\r\\n``, bar perhaps the last;
    - no line is blank (loadtxt skips blank lines, the row loop rejects
      them) or as long as ``csv.field_size_limit()``;
    - every row has the header's width, with frame cells that parse as ints
      0..n-1;
    - ``accept(cells, cell_chars)`` holds, ``cell_chars`` being the number
      of characters in all data cells.

    Within these guards loadtxt's int and float parsers read a subset of
    what ``int`` and ``float`` read, to the same values.
    """
    raw = _read_bytes(path)
    if not raw.isascii() or b'"' in raw:
        return None
    codes = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(codes == _LF)
    n_cr = np.count_nonzero(codes == _CR)
    if np.count_nonzero(codes < 0x20) != ends.size + n_cr:
        return None
    header = raw[:ends[0] if ends.size else None].removesuffix(b"\r").decode().split(",")
    if len(header) < 2 or header != expected_header(len(header) - 1):
        return None
    eol = 2 if n_cr else 1    # bytes per line end
    if n_cr and (n_cr != ends.size or (codes[ends - 1] != _CR).any()):
        return None
    spans = np.diff(ends, prepend=-1, append=len(raw))    # each line's length plus one
    if (spans[:-1] == eol).any() or spans.max() > csv.field_size_limit():
        return None
    n = ends.size - raw.endswith(b"\n")
    if n == 0:
        return np.array([], dtype=dtype)
    width = len(header) - 1
    row = np.dtype([("frame", np.int64), ("cells", dtype, (width,))])
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="ascii") as text:
            table = np.loadtxt(text, dtype=row, delimiter=",", comments=None, skiprows=1, ndmin=1)
    except ValueError:
        return None
    cells = table["cells"]
    cell_chars = len(raw) - (ends[0] + 1) - (ends.size - 1) * eol - n * width
    if len(table) != n or (table["frame"] != np.arange(n)).any() or not accept(cells, cell_chars):
        return None
    return cells.copy(order="C")


def load_matrix(path, expected_header, dtype, accept, parse_cell) -> np.ndarray:
    """The data rows of a ``frame,<cell>,...`` CSV as one array: parsed in bulk when
    ``_bulk_matrix`` accepts the file, else by the row loop, which raises at the first
    bad line."""
    values = _bulk_matrix(path, expected_header, dtype, accept)
    return values if values is not None else _read_matrix(path, expected_header, parse_cell, dtype)


def format_cells(column, format) -> list[str]:
    """``format(value)`` for each value of a column, called once per distinct value.

    For columns that repeat a few values. 0.0 and -0.0 are one dict key but
    have different reprs, so zeros are formatted one by one.
    """
    names = {value: format(value) for value in set(column)}
    return [names[value] if value else format(value) for value in column]


# Rows joined and written per write call: enough to amortize the call, few
# enough that lazy columns are never held as whole-file text.
_WRITE_BLOCK = 1024


def write_csv_rows(path, header, columns) -> None:
    """Write the header, then row i as the i-th cell of every column, joined by commas.

    ``columns`` are iterables of cell strings of one length; lazy ones are
    consumed ``_WRITE_BLOCK`` rows at a time. Every line ends in ``\r\n``.
    """
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, _WRITE_BLOCK)):
            block.append("")   # so that the join ends the block's last row too
            fh.write("\r\n".join(block))
