"""Trace and frame-log CSV I/O against plain row-by-row references.

``load_traces`` and ``load_quality_trace`` parse a file in one bulk pass
when byte-level guards allow it and otherwise run the row loop, which also
words every error; the references below are such loops alone, one cell at a
time. Mutated copies of small valid trace and quality trace files, and
targeted edge cases, must load to the same arrays, or fail with the same
error type and message. The writers join columns of cell strings
into rows; their bytes must equal ``csv.writer`` output on the same cells.
"""

import csv
import math
import tempfile
import warnings
from array import array
from contextlib import closing
from itertools import count, islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edgerecon import csvio
from edgerecon.csvio import _WRITE_BLOCK, read_csv_rows
from edgerecon.disruption import CameraTrace, ServerLatencyTrace, load_traces, save_traces
from edgerecon.environment import MIN_VIEWS, QualityModel, load_quality_trace, write_quality_trace
from edgerecon.errors import ConfigError, TraceFormatError, TraceSchemaError
from edgerecon.masks import bitstring, mask_from_str
from edgerecon.metrics import FRAME_LOG_HEADER, FrameLog, write_frame_log

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _reference_matrix(path, prefix, parse_cell):
    rows = read_csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise TraceSchemaError(f"{path}: file is empty")
    expected = ["frame"] + [prefix.format(i + 1) for i in range(len(header) - 1)]
    if header != expected or len(header) < 2:
        raise TraceSchemaError(f"{path}: unexpected header {header}")
    parsed = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise TraceSchemaError(
                f"{path}: line {lineno} has {len(row)} columns, expected {len(header)}")
        try:
            frame = int(row[0])
        except ValueError as exc:
            raise TraceFormatError(f"bad frame index {row[0]!r}", line=lineno) from exc
        if frame != len(parsed):
            raise TraceSchemaError(f"{path}: frame index {frame} at line {lineno} does not "
                                   f"match row position {len(parsed)}")
        parsed.append([parse_cell(cell, lineno) for cell in row[1:]])
    return parsed


def _bit(cell, lineno):
    if cell not in ("0", "1"):
        raise TraceFormatError(f"availability cell must be 0 or 1, got {cell!r}", line=lineno)
    return int(cell)


def _latency(cell, lineno):
    try:
        value = float(cell)
    except ValueError as exc:
        raise TraceFormatError(f"bad latency cell {cell!r}", line=lineno) from exc
    if not math.isfinite(value) or value < 0:
        raise TraceFormatError(f"latency must be finite and >= 0, got {cell!r}", line=lineno)
    return value


def reference_load(trace_dir: Path):
    cam = _reference_matrix(trace_dir / "cameras.csv", "cam_{}", _bit)
    srv = _reference_matrix(trace_dir / "servers.csv", "srv_{}_ms", _latency)
    if len(cam) != len(srv):
        raise TraceSchemaError(
            f"camera trace has {len(cam)} frames but server trace has {len(srv)}")
    return np.array(cam, dtype=np.uint8), np.array(srv, dtype=float)


def outcome(load, trace_dir: Path):
    """The loaded arrays, or the type and message of the trace error raised."""
    try:
        return "ok", load(trace_dir)
    except (TraceFormatError, TraceSchemaError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(trace_dir: Path) -> None:
    got = outcome(lambda d: _as_arrays(load_traces(d)), trace_dir)
    want = outcome(reference_load, trace_dir)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        for array, expected in zip(got[1], want[1]):
            assert array.dtype == expected.dtype
            assert array.shape == expected.shape
            assert np.array_equal(array, expected)
    else:
        assert got[1] == want[1]


def _as_arrays(traces):
    camera, server = traces
    return camera.availability, server.latency_ms


CELLS = st.one_of(
    st.sampled_from(["", "0", "1", "2", "01", "-0", " 1", "1 ", "+1", "1.0", "1_0", "١",
                     "nan", "inf", "-inf", "1e400", "-0.0", "-1", "0x1", "abc", '"1"', '""']),
    st.text(max_size=4),
)


@st.composite
def trace_tables(draw):
    """A valid (cameras, servers) pair of cell tables, header first."""
    frames = draw(st.integers(0, 5))
    n_cams = draw(st.integers(1, 3))
    n_srvs = draw(st.integers(1, 2))
    cams = [["frame"] + [f"cam_{i + 1}" for i in range(n_cams)]]
    cams += [[str(t)] + [draw(st.sampled_from("01")) for _ in range(n_cams)]
             for t in range(frames)]
    latency = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
    srvs = [["frame"] + [f"srv_{i + 1}_ms" for i in range(n_srvs)]]
    srvs += [[str(t)] + [repr(draw(latency)) for _ in range(n_srvs)] for t in range(frames)]
    return cams, srvs


def encode(rows) -> bytes:
    return "".join(",".join(row) + "\r\n" for row in rows).encode()


@st.composite
def mutate(draw, table):
    """Edit, drop or duplicate cells, drop, duplicate or swap lines, then maybe insert bytes."""
    rows = [list(row) for row in table]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["edit", "drop_cell", "dup_cell", "drop_line", "dup_line",
                                   "swap_lines"]))
        r = draw(st.integers(0, len(rows) - 1))
        if op == "edit" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(CELLS)
        elif op == "drop_cell" and rows[r]:
            del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
        elif op == "dup_cell" and rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r].insert(c, rows[r][c])
        elif op == "drop_line" and len(rows) > 1:
            del rows[r]
        elif op == "dup_line":
            rows.insert(r, list(rows[r]))
        elif op == "swap_lines":
            s = draw(st.integers(0, len(rows) - 1))
            rows[r], rows[s] = rows[s], rows[r]
    data = encode(rows)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(
            [b"\xff", b'"', b"\n", b"\r", b",", b"\x00", b"\r\n", b"1"]) | st.binary(max_size=3)) + data[at:]
    return data


@SETTINGS
@given(st.data())
def test_mutated_traces_load_like_the_row_loop(data):
    cams, srvs = data.draw(trace_tables())
    target = data.draw(st.sampled_from(["cameras", "servers", "both"]))
    cam_bytes = data.draw(mutate(cams)) if target != "servers" else encode(cams)
    srv_bytes = data.draw(mutate(srvs)) if target != "cameras" else encode(srvs)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cameras.csv").write_bytes(cam_bytes)
        (tmp / "servers.csv").write_bytes(srv_bytes)
        assert_same_outcome(tmp)


CAMERAS = b"frame,cam_1,cam_2\r\n0,1,0\r\n1,0,1\r\n2,1,1\r\n"
SERVERS = b"frame,srv_1_ms,srv_2_ms\r\n0,150.5,1e-300\r\n1,0.0,-0.0\r\n2,1e+300,7.25\r\n"
LIMIT = csv.field_size_limit()

# (file, old bytes, new bytes): each case replaces the first occurrence in
# that file of the valid pair above.
EDGE_CASES = {
    "blank line": ("cameras", b"\r\n1,", b"\r\n\r\n1,"),
    "blank line after the header": ("servers", b"ms\r\n", b"ms\r\n\r\n"),
    "blank last line": ("servers", b"7.25\r\n", b"7.25\r\n\r\n"),
    "only blank lines": ("cameras", b"\r\n0,1,0\r\n1,0,1\r\n2,1,1\r\n", b"\r\n\r\n\r\n"),
    "blank line, \\n ends": ("servers", SERVERS, SERVERS.replace(b"\r\n", b"\n").replace(b"\n1,", b"\n\n1,")),
    "whitespace-only line": ("cameras", b"\r\n1,", b"\r\n \r\n1,"),
    "lone \\r": ("servers", b"\r\n1,", b"\r1,"),
    "lone \\r at the end": ("cameras", b"1,1\r\n", b"1,1\r"),
    "\\n ends": ("cameras", CAMERAS, CAMERAS.replace(b"\r\n", b"\n")),
    "\\n ends in both": ("servers", SERVERS, SERVERS.replace(b"\r\n", b"\n")),
    "one \\n end among \\r\\n": ("servers", b"\r\n1,", b"\n1,"),
    "\\r\\r\\n end": ("cameras", b"\r\n1,", b"\r\r\n1,"),
    "one \\n end among \\r\\n, then a 01 cell": ("cameras", b"0,1,0\r\n1,0,1", b"0,1,0\n1,01,1"),
    "quoted camera cell": ("cameras", b"0,1,0", b'0,"1",0'),
    "quoted latency cell": ("servers", b"150.5", b'"150.5"'),
    "quoted frame cell": ("servers", b"\n1,", b'\n"1",'),
    "quoted header cell": ("cameras", b"cam_1", b'"cam_1"'),
    "camera cell 01": ("cameras", b"1,0,1", b"1,01,1"),
    "camera cell +1": ("cameras", b"2,1,1", b"2,+1,1"),
    "camera cell  1": ("cameras", b"0,1,0", b"0, 1,0"),
    "camera cell 1 ": ("cameras", b"0,1,0", b"0,1 ,0"),
    "camera cell -0": ("cameras", b"0,1,0", b"0,1,-0"),
    "camera cell 2": ("cameras", b"0,1,0", b"0,1,2"),
    "camera cell 1.0": ("cameras", b"0,1,0", b"0,1.0,0"),
    "empty camera cell": ("cameras", b"0,1,0", b"0,,0"),
    "camera frame 01": ("cameras", b"\n1,", b"\n01,"),
    "camera frame 1.0": ("cameras", b"\n1,", b"\n1.0,"),
    "server frame 1.0": ("servers", b"\n1,", b"\n1.0,"),
    "server frame 1e0": ("servers", b"\n1,", b"\n1e0,"),
    "server frame 01": ("servers", b"\n1,", b"\n01,"),
    "server frame +1": ("servers", b"\n1,", b"\n+1,"),
    "server frame  1": ("servers", b"\n1,", b"\n 1,"),
    "server frame -0": ("servers", b"\n0,", b"\n-0,"),
    "server frame 1_0": ("servers", b"\n1,", b"\n1_0,"),
    "frames out of order": ("servers", b"\n1,", b"\n3,"),
    "NUL in a camera cell": ("cameras", b"0,1,0", b"0,1\x00,0"),
    "NUL in a latency cell": ("servers", b"7.25", b"7.2\x005"),
    "non-ASCII digit camera cell": ("cameras", b"0,1,0", "0,\u0661,0".encode()),
    "non-ASCII digit latency": ("servers", b"150.5", "\u0661\u0665\u0660.5".encode()),
    "non-ASCII digit frame": ("servers", b"\n1,", "\n\u0661,".encode()),
    "\\x1c before a latency": ("servers", b"150.5", b"\x1c150.5"),
    "\\x1f after a frame": ("servers", b"\n1,", b"\n1\x1f,"),
    "\\x1c before a camera frame": ("cameras", b"\n1,", b"\n\x1c1,"),
    "tab around a latency": ("servers", b"150.5", b"\t150.5 "),
    "latency 1_0": ("servers", b"7.25", b"1_0"),
    "latency 0x10": ("servers", b"7.25", b"0x10"),
    "latency 1e": ("servers", b"7.25", b"1e"),
    "latency infinity": ("servers", b"7.25", b"infinity"),
    "latency nan": ("servers", b"7.25", b"nan"),
    "latency 1e400": ("servers", b"7.25", b"1e400"),
    "negative latency": ("servers", b"7.25", b"-7.25"),
    "latency 1.": ("servers", b"7.25", b"1."),
    "latency .5": ("servers", b"7.25", b".5"),
    "empty latency cell": ("servers", b"7.25", b""),
    "extra column in every row": ("cameras", CAMERAS, CAMERAS.replace(b"\r\n", b",0\r\n")),
    "missing column": ("servers", b",7.25", b""),
    "oversized latency cell": ("servers", b"7.25", b"0." + b"0" * LIMIT + b"5"),
    "oversized frame cell": ("servers", b"\n1,", b"\n" + b"0" * LIMIT + b"1,"),
    "line over the limit": ("servers", b"7.25", b"7.25" + b"0" * (LIMIT - 10)),
    "missing final newline": ("servers", b"7.25\r\n", b"7.25"),
    "missing final newline, \\n ends": ("cameras", CAMERAS, CAMERAS.replace(b"\r\n", b"\n")[:-1]),
    "header only": ("cameras", CAMERAS, b"frame,cam_1,cam_2\r\n"),
    "header only, no newline": ("servers", SERVERS, b"frame,srv_1_ms,srv_2_ms"),
    "empty file": ("servers", SERVERS, b""),
    "blank header": ("cameras", CAMERAS, b"\r\n" + CAMERAS),
    "one-column header": ("servers", SERVERS, b"frame\r\n0\r\n"),
    "wrong header": ("servers", b"srv_2_ms", b"srv_3_ms"),
}


@pytest.mark.parametrize("target, old, new", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_case_traces_load_like_the_row_loop(tmp_path, target, old, new):
    files = {"cameras": CAMERAS, "servers": SERVERS}
    assert old in files[target]
    files[target] = files[target].replace(old, new, 1)
    for name, data in files.items():
        (tmp_path / f"{name}.csv").write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # e.g. loadtxt's warning on a file of blank lines
        assert_same_outcome(tmp_path)


def test_frame_chars_counts_the_decimal_frame_cells():
    for n in [*range(1, 1200), 9_999, 10_000, 10_001, 123_456]:
        assert csvio._frame_chars(n) == len("".join(map(str, range(n)))), n


@pytest.mark.parametrize("eol", [b"\r\n", b"\n"])
@pytest.mark.parametrize("final_eol", [True, False])
@pytest.mark.parametrize("rows", [1, 3])
def test_well_formed_traces_take_the_bulk_parse(tmp_path, eol, final_eol, rows):
    """Files as save_traces writes them, or with \\n line ends, never reach the row loop."""
    for name, data in (("cameras.csv", CAMERAS), ("servers.csv", SERVERS)):
        lines = data.split(b"\r\n")[:rows + 1]
        data = eol.join(lines) + (eol if final_eol else b"")
        (tmp_path / name).write_bytes(data)
    with mock.patch.object(csvio, "_read_matrix", side_effect=AssertionError("row loop")):
        camera, server = load_traces(tmp_path)
    want = reference_load(tmp_path)
    assert camera.availability.dtype == want[0].dtype and server.latency_ms.dtype == want[1].dtype
    assert np.array_equal(camera.availability, want[0])
    assert server.latency_ms.shape == want[1].shape
    assert server.latency_ms.tobytes() == want[1].tobytes()    # -0.0 and 1e-300 bit for bit


def test_saved_traces_load_like_the_row_loop(tmp_path):
    camera = CameraTrace(availability=np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]], dtype=np.uint8))
    server = ServerLatencyTrace(latency_ms=np.array([[150.25], [0.0], [1e-300]]))
    save_traces(camera, server, tmp_path)
    assert_same_outcome(tmp_path)
    loaded_cam, loaded_srv = load_traces(tmp_path)
    assert np.array_equal(loaded_cam.availability, camera.availability)
    assert np.array_equal(loaded_srv.latency_ms, server.latency_ms)
    loaded_cam.availability[0, 0] = 0    # loaded arrays are ordinary writable arrays


def reference_quality_table(path):
    """``load_quality_trace``'s table as a plain row loop builds it: the header checks, then
    each row and each cell in turn."""
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
        cells = array("d")    # every quality cell, row after row
        n_rows = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise TraceSchemaError(
                    f"{path}: line {lineno} has {len(row)} columns, expected {len(header)}"
                )
            try:
                frame = int(row[0])
            except ValueError as exc:
                raise TraceFormatError(f"bad frame index {row[0]!r}", line=lineno) from exc
            if frame != n_rows:
                raise TraceSchemaError(
                    f"{path}: frame index {frame} at line {lineno} does not match "
                    f"row position {n_rows}"
                )
            for cell in row[1:]:
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise TraceFormatError(f"bad quality cell {cell!r}", line=lineno) from exc
                if not math.isfinite(value) or value < 0:
                    raise TraceFormatError(f"quality must be finite and >= 0, got {cell!r}",
                                           line=lineno)
                cells.append(value)
            n_rows += 1
    if not n_rows:
        raise TraceSchemaError(f"{path}: no data rows")
    # A subset named by more than one column takes its last column.
    columns = {mask: i for i, mask in enumerate(masks)}
    table = np.full((n_rows, 1 << width), np.nan)
    table[:, list(columns)] = np.frombuffer(cells).reshape(n_rows, -1)[:, list(columns.values())]
    return QualityModel(table).table


def assert_same_quality_outcome(path: Path) -> None:
    def load(path):
        return load_quality_trace(path).table

    got, want = (outcome(read, path) for read in (load, reference_quality_table))
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()    # -0.0, 1e-300 and NaN bit for bit
    else:
        assert got[1] == want[1]


@st.composite
def quality_tables(draw):
    """A valid quality trace's cell table, header first: every subset of two or more
    cameras, plus perhaps a smaller subset or a repeated column, in any order."""
    n_cameras = draw(st.integers(1, 3))
    masks = [mask for mask in range(1 << n_cameras) if mask.bit_count() >= MIN_VIEWS]
    masks += draw(st.lists(st.integers(0, (1 << n_cameras) - 1), min_size=not masks, max_size=2))
    masks = draw(st.permutations(masks))
    latency = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
    rows = [["frame"] + [bitstring(mask, n_cameras) for mask in masks]]
    rows += [[str(t)] + [repr(draw(latency)) for _ in masks] for t in range(draw(st.integers(0, 4)))]
    return rows


@SETTINGS
@given(st.data())
def test_mutated_quality_traces_load_like_the_row_loop(data):
    table = data.draw(quality_tables())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quality.csv"
        path.write_bytes(data.draw(mutate(table)))
        assert_same_quality_outcome(path)


# The servers.csv pair above with a quality header: servers.csv's edge cases
# apply to it, bar the one that edits its header.
QUALITY_TRACE = SERVERS.replace(b"srv_1_ms,srv_2_ms", b"01,11")
QUALITY_EDGE_CASES = {
    name: (old.replace(b"srv_1_ms,srv_2_ms", b"01,11"), new.replace(b"srv_1_ms,srv_2_ms", b"01,11"))
    for name, (target, old, new) in EDGE_CASES.items()
    if target == "servers" and old.replace(b"srv_1_ms,srv_2_ms", b"01,11") in QUALITY_TRACE
} | {
    "blank line after the quality header": (b"11\r\n", b"11\r\n\r\n"),
    "repeated column": (b"01,11", b"11,11"),
    "missing subset": (b"01,11", b"01,10"),
    "mixed widths": (b"01,11", b"01,111"),
    "column not a bitstring": (b"01,11", b"01,1x"),
    "frame header misspelt": (b"frame,", b"Frame,"),
    "header only, quality": (QUALITY_TRACE, b"frame,01,11\r\n"),
    "quality cell -0.0": (b"0.0,-0.0", b"-0.0,-0.0"),
}


@pytest.mark.parametrize("old, new", QUALITY_EDGE_CASES.values(), ids=QUALITY_EDGE_CASES.keys())
def test_edge_case_quality_traces_load_like_the_row_loop(tmp_path, old, new):
    assert old in QUALITY_TRACE
    path = tmp_path / "quality.csv"
    path.write_bytes(QUALITY_TRACE.replace(old, new, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_quality_outcome(path)


@pytest.mark.parametrize("eol", [b"\r\n", b"\n"])
@pytest.mark.parametrize("final_eol", [True, False])
@pytest.mark.parametrize("rows", [1, 3])
def test_well_formed_quality_traces_take_the_bulk_parse(tmp_path, eol, final_eol, rows):
    """Quality traces as write_quality_trace writes them, or with \\n line ends, never reach the row loop."""
    path = tmp_path / "quality.csv"
    lines = QUALITY_TRACE.split(b"\r\n")[:rows + 1]
    path.write_bytes(eol.join(lines) + (eol if final_eol else b""))
    with mock.patch.object(csvio, "_read_matrix", side_effect=AssertionError("row loop")):
        table = load_quality_trace(path).table
    assert table.tobytes() == reference_quality_table(path).tobytes()


def test_swapped_frame_index_reads_alike_in_trace_and_quality_loaders(tmp_path):
    # Rows 1 and 2 of the same cells under a servers.csv and a quality header.
    def swapped(trace):
        return trace.replace(b"\r\n1,0.0", b"\r\n2,0.0").replace(b"\r\n2,1e+300", b"\r\n1,1e+300")

    (tmp_path / "cameras.csv").write_bytes(CAMERAS)
    (tmp_path / "servers.csv").write_bytes(swapped(SERVERS))
    (tmp_path / "quality.csv").write_bytes(swapped(QUALITY_TRACE))
    for path, load in ((tmp_path / "servers.csv", lambda: load_traces(tmp_path)),
                       (tmp_path / "quality.csv", lambda: load_quality_trace(tmp_path / "quality.csv"))):
        with pytest.raises(TraceSchemaError) as info:
            load()
        assert str(info.value) == f"{path}: frame index 2 at line 3 does not match row position 1"


HEADERS = [b"", b"frame,cam_1,cam_2\r\n", b"frame,srv_1_ms\r\n", b"frame,011,101,110,111\r\n"]


@SETTINGS
@given(prefix=st.sampled_from(HEADERS), body=st.binary(max_size=120),
       which=st.sampled_from(["cameras.csv", "servers.csv", "quality.csv"]))
def test_arbitrary_bytes_raise_only_trace_errors(prefix, body, which):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cameras.csv").write_bytes(b"frame,cam_1,cam_2\r\n0,1,1\r\n")
        (tmp / "servers.csv").write_bytes(b"frame,srv_1_ms\r\n0,150.0\r\n")
        (tmp / which).write_bytes(prefix + body)
        try:
            if which == "quality.csv":
                load_quality_trace(tmp / which)
            else:
                load_traces(tmp)
        except (TraceFormatError, TraceSchemaError):
            pass


FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e300, 0.1]))


def _csv_writer_bytes(path: Path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@SETTINGS
@given(availability=st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2), max_size=6),
       latency=st.lists(FLOATS, max_size=6))
def test_save_traces_bytes_equal_csv_writer(availability, latency):
    frames = min(len(availability), len(latency))
    camera = CameraTrace(availability=np.array(availability[:frames], dtype=np.uint8).reshape(frames, 2))
    server = ServerLatencyTrace(latency_ms=np.array(latency[:frames], dtype=float).reshape(frames, 1))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_traces(camera, server, tmp / "out")
        cam_rows = [[t] + [int(v) for v in row] for t, row in enumerate(camera.availability)]
        srv_rows = [[t] + [repr(float(v)) for v in row] for t, row in enumerate(server.latency_ms)]
        assert (tmp / "out/cameras.csv").read_bytes() == _csv_writer_bytes(
            tmp / "cam.csv", ["frame", "cam_1", "cam_2"], cam_rows)
        assert (tmp / "out/servers.csv").read_bytes() == _csv_writer_bytes(
            tmp / "srv.csv", ["frame", "srv_1_ms"], srv_rows)


@SETTINGS
@given(st.lists(st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                          st.integers(0, 3), st.lists(FLOATS, min_size=6, max_size=6),
                          st.integers(0, 1)), max_size=6))
# recon_s and reward_cam (the third and fifth floats) go through a repr memo,
# where 0.0 and -0.0 are one key and each NaN is its own.
@example([((1, 1), 0, [0.5, 0.1, 0.0, 0.6, 0.0, 0.2], 1),
          ((1, 0), 1, [0.5, 0.1, -0.0, 0.6, -0.0, 0.2], 0),
          ((0, 1), 2, [0.5, 0.1, float("nan"), 0.6, float("nan"), 0.2], 0),
          ((1, 1), 0, [0.5, 0.1, 0.0, 0.6, -0.0, 0.2], 1)])
def test_frame_log_bytes_equal_csv_writer(frames):
    log = FrameLog(2, [0b11] * len(frames))
    for (first, second), server, values, reliable in frames:
        log.masks.append(first << 1 | second)
        log.servers.append(server)
        for column, value in zip((log.quality, log.tx_s, log.recon_s, log.total_s,
                                  log.camera_reward, log.server_reward), values):
            column.append(value)
        log.reliable.append(reliable)
    rows = [[t, f"{first}{second}", server, *(repr(float(x)) for x in values), reliable]
            for t, ((first, second), server, values, reliable) in enumerate(frames)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_frame_log(log, tmp / "frames.csv")
        assert (tmp / "frames.csv").read_bytes() == _csv_writer_bytes(
            tmp / "reference.csv", FRAME_LOG_HEADER, rows)


def test_frame_log_over_several_write_blocks_equals_csv_writer(tmp_path):
    frames = 2 * _WRITE_BLOCK + 3
    rng = np.random.default_rng(7)
    floats = [0.0, -0.0, 0.1, 1e-300, 5e-324, float("nan"), 1e300]
    log = FrameLog(3, [0b111] * frames)
    log.masks.extend(rng.integers(0, 8, frames).tolist())
    log.servers.extend(rng.integers(0, 4, frames).tolist())
    for column in (log.quality, log.tx_s, log.recon_s, log.total_s,
                   log.camera_reward, log.server_reward):
        # Half the cells repeat a few values, as recon_s and reward_cam do; half are distinct.
        column.extend(floats[i] if i < len(floats) else rng.random() for i in rng.integers(0, 14, frames))
    log.reliable.extend(rng.integers(0, 2, frames).tolist())
    rows = [[t, format(log.masks[t], "03b"), log.servers[t],
             *(repr(float(column[t])) for column in (log.quality, log.tx_s, log.recon_s, log.total_s,
                                                     log.camera_reward, log.server_reward)),
             log.reliable[t]] for t in range(frames)]
    write_frame_log(log, tmp_path / "frames.csv")
    assert (tmp_path / "frames.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "reference.csv", FRAME_LOG_HEADER, rows)


QUALITY = st.one_of(st.floats(0, 1e308), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1e300]))


@st.composite
def quality_models(draw):
    """A synthetic (1-D) or a replayed (2-D) model and the cells each frame's row holds."""
    n_cameras = draw(st.integers(1, 3))
    width = 1 << n_cameras
    if draw(st.booleans()):
        # One quality per subset size keeps the table monotone; absent subsets are NaN.
        levels = sorted(draw(st.lists(QUALITY, min_size=n_cameras + 1, max_size=n_cameras + 1)))
        present = draw(st.lists(st.sampled_from(range(width)), unique=True))
        table = np.full(width, np.nan)
        for mask in present:
            table[mask] = levels[mask.bit_count()]
        return QualityModel(table), lambda frame: table[sorted(present)]
    frames = draw(st.integers(1, 8))
    table = np.array(draw(st.lists(st.lists(st.one_of(FLOATS, st.just(float("nan"))),
                                            min_size=width, max_size=width),
                                   min_size=frames, max_size=frames)), dtype=float)
    model = QualityModel(table.reshape(frames, width))
    present = np.flatnonzero(~np.isnan(table[0]))
    return model, lambda frame: table[frame, present]


@SETTINGS
@given(quality_models(), st.integers(0, 6))
def test_quality_trace_bytes_equal_csv_writer(model_and_cells, n_frames):
    model, cells = model_and_cells
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if model.table.ndim == 2 and len(model.table) < n_frames:
            with pytest.raises(ConfigError, match=f"covers {len(model.table)} frames"):
                write_quality_trace(tmp / "quality.csv", model, n_frames)
            return
        write_quality_trace(tmp / "quality.csv", model, n_frames)
        rows = [[t, *(repr(float(v)) for v in cells(t))] for t in range(n_frames)]
        first = model.table if model.table.ndim == 1 else model.table[0]
        header = ["frame"] + [format(mask, f"0{model.n_cameras}b")
                              for mask in np.flatnonzero(~np.isnan(first))]
        assert (tmp / "quality.csv").read_bytes() == _csv_writer_bytes(
            tmp / "reference.csv", header, rows)
