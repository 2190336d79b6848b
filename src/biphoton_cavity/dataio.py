"""Text data formats (jsiv1 / curvev1 / sweepv1) and measured-JSI ingestion.

Files are comma-separated UTF-8 with LF line endings and a '#'-prefixed
header carrying the format version, a full config echo, and the column
schema.  Numbers are printed as format(x, ".9g") prints them; bulk columns
go through a numpy block formatter with the same output.  An export is an
iterable of text pieces, each of whole newline-terminated lines, whose
concatenation is the file: a jsiv1 export is one piece per block of grid
cells.  Writes go to a temporary file and are renamed into place, so failed
exports leave nothing behind.  Ingested files are read once, in bounded
chunks that number their lines: np.loadtxt parses each, and float() one it refuses.
"""

import os
import re
from collections.abc import Iterable, Iterator
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .cavity import TransferCurve
from .config import MAX_GRID_ARRAY_BYTES, SimConfig, format_value
from .grid import FrequencyGrid, omega_from_wavelength, trapezoid_weights, wavelength_from_omega
from .state import BiphotonAmplitude
from .sweep import SweepResult

JSI_FORMAT = "jsiv1"
CURVE_FORMAT = "curvev1"
SWEEP_FORMAT = "sweepv1"
# The jsiv1 columns in export order.  Ingest requires all but re and im, which it reads as a pair.
JSI_COLUMNS = ("signal_nm", "idler_nm", "re", "im", "intensity")
_JSI_PAIR = JSI_COLUMNS[2:4]

INTENSITY_ONLY_FLAG = "intensity-only lower-fidelity"

# Grid cells formatted per block by render_jsi: a block's text and
# temporaries take about 1 kB a cell, and 2048 is as fast as 4096.
_BLOCK_CELLS = 2048

# Characters ingest reads at a time, and those that mark a line _skip_line
# may drop: '#' and the ASCII whitespace but newline that str.strip removes.
_READ_CHARS = 1 << 16
_SKIP_MARKS = "#\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # surrogateescape's code for a byte not UTF-8
_MAX_ROWS = MAX_GRID_ARRAY_BYTES // 16  # data rows: the cells of the largest grid allowed
_MAX_LINE_CHARS = 1 << 20  # at least _READ_CHARS, so only a read's first and last line can pass it


def _header(format_name: str, config: SimConfig | None, columns: str, extra=()) -> str:
    lines = [f"# format: {format_name}"]
    if config is not None:
        lines += [f"# config.{line}" for line in config.echo_lines()]
        if config.applied_defaults:
            lines.append("# defaulted: " + ",".join(config.applied_defaults))
    lines += [f"# {line}" for line in extra]
    lines.append(f"# columns: {columns}")
    return "".join(line + "\n" for line in lines)


def check_output_path(path):
    """`path` as given; OSError unless a regular file can be created or replaced there."""
    where = Path(path)  # Path drops a trailing "/" or "/.", where POSIX reads a directory
    if where.is_dir() or os.path.basename(path) in ("", "."):
        raise OSError(f"output path is a directory: {path or where}")
    if where.exists() and not where.is_file():
        raise OSError(f"output path is not a regular file: {where}")
    if not where.parent.is_dir():
        problem = "is not a directory" if where.parent.exists() else "does not exist"
        raise OSError(f"output directory {problem}: {where.parent}")
    return path


def write_lines(path, pieces: Iterable[str]) -> None:
    """Write the concatenation of `pieces` to `path`, atomically."""
    path = Path(check_output_path(path))
    pieces = iter(pieces)
    first = next(pieces, "")  # a lazy export (a sweep) runs before the temporary file exists
    # A new file, never one already there, with the mode open() gives: 0o666 less the umask.
    # Its name is the output's, cut at a character so that the 21 bytes added fit in 255.
    stem = os.fsencode(path.name)[:255 - 21].decode("utf-8", "ignore")
    tmp_name = path.with_name(f"{stem}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chain((first,), pieces))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def render_jsi(state: BiphotonAmplitude, config: SimConfig | None = None) -> Iterator[str]:
    """The jsiv1 text of `state`, generated lazily: the header, then one piece
    per `_BLOCK_CELLS` grid cells (a 512x512 grid is 262k lines)."""
    # Imported on first use: commands that export no data never compile it.
    from ._blockfmt import csv_text, format_block

    yield _header(JSI_FORMAT, config, ",".join(JSI_COLUMNS))
    signal_nm = format_block(wavelength_from_omega(state.grid.signal_axis))
    idler_nm = format_block(wavelength_from_omega(state.grid.idler_axis))
    amplitude, n_idler = state.amplitude.ravel(), state.grid.n_idler
    # glibc maps a block's buffers (~330 kB in csv_text) anew per block, as they pass its
    # 128 KiB mmap threshold, unless a mapped chunk that large was freed: that raises the
    # threshold.  So free one untouched array of a block's working set, whatever the caller freed.
    np.empty(_BLOCK_CELLS << 10, dtype=np.uint8)
    for start in range(0, amplitude.size, _BLOCK_CELLS):
        block = amplitude[start : start + _BLOCK_CELLS]
        row, col = np.divmod(np.arange(start, start + block.size), n_idler)
        with np.errstate(over="ignore"):
            intensity = block.real * block.real + block.imag * block.imag
        yield csv_text(
            np.take(signal_nm, row, axis=0), np.take(idler_nm, col, axis=0),
            format_block(block.real), format_block(block.imag), format_block(intensity),
        )


def render_curve(curve: TransferCurve, config: SimConfig | None = None) -> list[str]:
    from ._blockfmt import csv_text, format_block

    extra = [f"flags: {';'.join(curve.flags)}"] if curve.flags else []
    header = _header(CURVE_FORMAT, config, "wavelength_nm,re,im,transmission,phase_rad", extra)
    columns = (wavelength_from_omega(curve.axis), curve.values.real, curve.values.imag,
               curve.transmission, curve.phase)
    return [header, csv_text(*map(format_block, columns))]


def render_sweep(result: SweepResult) -> list[str]:
    plan = result.plan
    series_param = plan.series_parameter or "none"
    sweep_param = plan.swept_parameter
    extra = [
        f"swept_parameter: {sweep_param}",
        f"series_parameter: {series_param}",
        f"reference.input_entropy_nats: {format_value(result.input_entropy)}",
        f"reference.empty_cavity_entropy_nats: {format_value(result.empty_cavity_entropy)}",
    ]
    pieces = [_header(SWEEP_FORMAT, plan.base_config, "series_param,series_value,sweep_param,"
                      "sweep_value,entropy_nats,delta_vs_input_nats,flags", extra)]
    for row in result.rows:
        pieces.append(
            f"{series_param},{format_value(row.series_value)},{sweep_param},"
            f"{format_value(row.sweep_value)},{format_value(row.entropy)},"
            f"{format_value(row.delta_vs_input)},{';'.join(row.flags)}\n"
        )
    for ref in result.reference_rows:
        pieces.append(
            f"reference,0,{sweep_param},{format_value(ref.sweep_value)},"
            f"{format_value(ref.entropy)},0,reference:{ref.kind}\n"
        )
    return pieces


def _skip_line(line: str, columns: list[str], path, number: int) -> bool:
    """Whether a stripped line is blank or a comment; `# columns:` sets `columns`,
    and raises ValueError at `path`:`number` once they are set."""
    if line.startswith("#"):
        body = line.lstrip("#").strip()
        if body.startswith("columns:"):
            if columns:
                raise ValueError(f"{path}:{number}: duplicate '# columns:' header")
            columns[:] = [c.strip() for c in body[len("columns:"):].split(",")]
        return True
    return not line


def _data_chunks(path, columns: list[str]) -> Iterator[tuple[list[str], range | np.ndarray]]:
    """The data lines of the file at `path`, without newlines, and their file
    line numbers: one (lines, numbers) pair per read that has any.  A read with
    an empty line, a non-ASCII character or one of `_SKIP_MARKS` goes line by
    line: it loses the lines `_skip_line` drops (setting `columns`) and numbers
    the others in an index array; any other read is numbered by a range.  A
    byte that is not UTF-8 (found by one search of the read but its unfinished
    last line), a line longer than `_MAX_LINE_CHARS`, a second `# columns:`
    header and the data line past `_MAX_ROWS` raise ValueError naming their
    line.  A byte-order mark that opens the file is dropped."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        tail, first, more, rows = "", 1, True, 0
        while more:
            text = handle.read(_READ_CHARS)
            more = bool(text)
            text = tail + text
            lines = text.split("\n")
            tail = lines.pop() if more else ""
            numbers = range(first, first + len(lines))
            first = numbers.stop
            for line, number in (*zip(lines[:1], numbers), (tail, first)):
                if len(line) > _MAX_LINE_CHARS:
                    raise ValueError(f"{path}:{number}: line longer than {_MAX_LINE_CHARS} characters")
            if "" in lines or not text.isascii() or any(mark in text for mark in _SKIP_MARKS):
                if not text.isascii() and (bad := _NOT_UTF8.search(text, 0, len(text) - len(tail))):
                    number = numbers.start + text.count("\n", 0, bad.start())
                    raise ValueError(f"{path}:{number}: not UTF-8 text")
                keep = [not _skip_line(line.strip(), columns, path, number)
                        for line, number in zip(lines, numbers)]
                lines = list(compress(lines, keep))
                numbers = numbers.start + np.flatnonzero(keep)
            if lines:  # an empty range would make the concatenated numbers float
                if (rows := rows + len(lines)) > _MAX_ROWS:
                    raise ValueError(f"{path}:{numbers[_MAX_ROWS - rows + len(lines)]}: more than "
                                     f"{_MAX_ROWS} data rows, the cells of the largest grid")
                yield lines, numbers


def _parse_rows(path, lines, line_numbers) -> list[list[float]]:
    """Cell-by-cell float() parse of a read np.loadtxt refuses.

    float() accepts a superset of np.loadtxt (underscores, non-ASCII digits),
    so a read the fast path rejects still parses exactly as it always did.
    """
    rows = []
    for line, lineno in zip(map(str.strip, lines), line_numbers):
        try:
            rows.append([float(p) for p in line.split(",")])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric data {line!r}") from None
    return rows


def _read_table(path):
    """The checked columns of a JSI-schema file: its signal_nm and idler_nm axes,
    its intensity map, and its re + 1j*im map, or None without re/im columns.

    Validation failures name the offending file line and cell coordinates.
    """
    columns: list[str] = []
    reads: list = []  # (numbers, width) per read; a ragged float() read's width is its rows'
    data = np.empty((0, 0))  # grown in place, read by read
    for lines, numbers in _data_chunks(path, columns):
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a line np.loadtxt refuses: float() parses this read alone
            rows = _parse_rows(path, lines, numbers)
            if len({len(values) for values in rows}) > 1:  # ragged: the width check refuses it
                reads.append((numbers, [len(values) for values in rows]))
                continue
            block = np.array(rows)
        reads.append((numbers, block.shape[1]))
        if block.shape[1] == data.shape[1] or not data.size:  # else the width check refuses
            data.resize((len(data) + len(block), block.shape[1]), refcheck=False)
            data[-len(block):] = block
    if not reads:
        raise ValueError(f"{path}: no data rows")

    if not columns:  # the export's columns, or, for any other width, all but the pair
        full = np.ravel(reads[0][1])[0] == len(JSI_COLUMNS)
        columns = [name for name in JSI_COLUMNS if full or name not in _JSI_PAIR]
    for k, name in enumerate(columns):
        if name in columns[:k]:
            raise ValueError(f"{path}: column {name!r} named twice")
    for name in JSI_COLUMNS:
        if name not in columns and name not in _JSI_PAIR:
            raise ValueError(f"{path}: missing required column {name!r}")
    if len(given := [name for name in _JSI_PAIR if name in columns]) == 1:
        raise ValueError(f"{path}: column {given[0]!r} without its pair")
    idx = {name: columns.index(name) for name in columns}
    for numbers, width in reads:
        width = np.broadcast_to(width, (len(numbers),))
        if (bad := np.flatnonzero(width != len(columns))).size:
            raise ValueError(f"{path}:{numbers[bad[0]]}: "
                             f"expected {len(columns)} columns, got {width[bad[0]]}")

    signal_col = data[:, idx["signal_nm"]]
    idler_col = data[:, idx["idler_nm"]]
    intensity_col = data[:, idx["intensity"]]

    non_finite = np.nonzero(~np.all(np.isfinite(data), axis=1))[0]
    if non_finite.size:
        raise ValueError(f"{path}:{np.concatenate([n for n, _ in reads])[non_finite[0]]}: "
                         "non-finite data")
    negative = np.nonzero(intensity_col < 0.0)[0]
    if negative.size:
        k = int(negative[0])
        raise ValueError(
            f"{path}:{np.concatenate([n for n, _ in reads])[k]}: negative intensity at cell "
            f"(signal_nm={signal_col[k]:g}, idler_nm={idler_col[k]:g})"
        )

    n_idler = 1
    while n_idler < len(data) and signal_col[n_idler] == signal_col[0]:
        n_idler += 1
    if len(data) % n_idler != 0:
        raise ValueError(f"{path}: data is not a complete row-major grid")
    n_signal = len(data) // n_idler
    if n_signal < 2 or n_idler < 2:
        raise ValueError(f"{path}: need at least 2 points per axis, got {n_signal} x {n_idler}")
    signal_axis = signal_col[::n_idler]
    idler_axis = idler_col[:n_idler]
    if not np.array_equal(np.repeat(signal_axis, n_idler), signal_col) or not np.array_equal(
        np.tile(idler_axis, n_signal), idler_col
    ):
        raise ValueError(f"{path}: data is not a complete row-major grid")

    amplitude = None
    if "re" in idx:  # and so "im"
        amplitude = (data[:, idx["re"]] + 1j * data[:, idx["im"]]).reshape(n_signal, n_idler)
    return signal_axis, idler_axis, intensity_col.reshape(n_signal, n_idler), amplitude


def ingest_measured_jsi(path) -> tuple[BiphotonAmplitude, tuple[str, ...]]:
    """The map in a JSI-schema file as a state, with fidelity flags.

    The grid holds the file's axes in angular frequency, in the file's order,
    each strictly monotone either way, with trapezoid weights.  The amplitude
    is re + 1j*im; without re/im columns it is sqrt(intensity) with zero phase,
    which discards any phase structure, and the intensity-only flag is set.
    Validation failures name the file, and the offending line and cell where
    there is one.  The state holds no view into the parsed table.
    """
    path = Path(path)
    signal_nm, idler_nm, intensity, amplitude = _read_table(path)
    axes = []
    for name, nm in (("signal_nm", signal_nm), ("idler_nm", idler_nm)):
        try:
            axes.append(omega_from_wavelength(nm))
        except ValueError as exc:
            raise ValueError(f"{path}: {name} {exc}") from None
        steps = np.diff(axes[-1])
        if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
            raise ValueError(f"{path}: {name} axis must be strictly monotone in frequency")
    if not np.any(intensity > 0.0):
        raise ValueError(f"{path}: intensity map is all zero")
    if amplitude is not None and not np.any(amplitude):
        raise ValueError(f"{path}: amplitude map is all zero")
    flags = () if amplitude is not None else (INTENSITY_ONLY_FLAG,)
    grid = FrequencyGrid(*axes, *map(trapezoid_weights, axes))
    return BiphotonAmplitude(grid, np.sqrt(intensity) if amplitude is None else amplitude), flags
