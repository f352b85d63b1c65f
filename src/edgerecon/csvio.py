"""CSV file I/O shared by the trace loaders and the output writers.

Reading parses a file with ``csv.reader`` as it streams in; text that cannot
be decoded and malformed CSV become TraceFormatError, so a bad file is a data
error at the boundary, not a runtime failure. Writing formats every row with
one %-template, producing the bytes ``csv.writer`` would (comma-separated,
``\r\n`` line ends) for cells that never need quoting.
"""

from __future__ import annotations

import csv
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


def write_csv_rows(path, header, template: str, rows) -> None:
    """Write the header, then ``template % row`` for every row.

    The template holds the row's cells separated by commas and ends in
    ``\r\n``; ``%s`` and ``%r`` cells give what ``csv.writer`` writes for
    ints and for floats.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(template % row for row in rows)
