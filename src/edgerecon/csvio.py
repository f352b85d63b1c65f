"""CSV file I/O shared by the trace loaders and the output writers.

Reading parses a file with ``csv.reader`` as it streams in; text that cannot
be decoded and malformed CSV become TraceFormatError, so a bad file is a data
error at the boundary, not a runtime failure. Writing joins columns of cell
strings into rows, producing the bytes ``csv.writer`` would (comma-separated,
``\r\n`` line ends) for cells that never need quoting.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path

from .errors import TraceFormatError


def read_csv_rows(path):
    """Yield the rows of a CSV file as lists of strings.

    Raises TraceFormatError, with the line number, for undecodable text or
    a row the CSV parser rejects (for example a field over its size limit).
    """
    with open(path, newline="") as fh:
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
    raw = Path(path).read_bytes()
    try:
        raw.decode(encoding)
    except UnicodeDecodeError as exc:
        return TraceFormatError(
            f"{path}: cannot decode byte {raw[exc.start:exc.start + 1]!r} as {encoding} "
            f"({exc.reason})", line=raw.count(b"\n", 0, exc.start) + 1,
        )
    return TraceFormatError(f"{path}: cannot decode as {encoding}")


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
