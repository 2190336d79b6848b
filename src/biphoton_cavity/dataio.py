"""Text data formats (jsiv1 / curvev1 / sweepv1) and measured-JSI ingestion.

Files are comma-separated UTF-8 with LF line endings and a '#'-prefixed
header carrying the format version, a full config echo, and the column
schema.  Numbers are printed as format(x, ".9g") prints them; bulk columns
go through a numpy block formatter with the same output.  An export is an
iterable of text pieces, each of whole newline-terminated lines, whose
concatenation is the file: a jsiv1 export is one piece per block of grid
cells.  Writes go to a temporary file and are renamed into place, so failed
exports leave nothing behind.  Ingested files are read once, in bounded
chunks that number their lines, and again only when np.loadtxt refuses them.
"""

import os
import re
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .cavity import TransferCurve
from .config import SimConfig
from .grid import omega_from_wavelength, wavelength_from_omega
from .schmidt import entropy_of_samples
from .state import BiphotonAmplitude
from .sweep import SweepResult

JSI_FORMAT = "jsiv1"
CURVE_FORMAT = "curvev1"
SWEEP_FORMAT = "sweepv1"

INTENSITY_ONLY_FLAG = "intensity-only lower-fidelity"

# Grid cells formatted per block by render_jsi: a block's text and
# temporaries take about 1 kB a cell, and 2048 is as fast as 4096.
_BLOCK_CELLS = 2048

# Characters ingest reads at a time, and those that mark a line _skip_line
# may drop: '#' and the ASCII whitespace but newline that str.strip removes.
_READ_CHARS = 1 << 16
_SKIP_MARKS = "#\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # surrogateescape's code for a byte not UTF-8


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _header(format_name: str, config: SimConfig | None, columns: str, extra=()) -> str:
    lines = [f"# format: {format_name}"]
    if config is not None:
        lines += [f"# config.{line}" for line in config.echo_lines()]
        if config.applied_defaults:
            lines.append("# defaulted: " + ",".join(config.applied_defaults))
    lines += [f"# {line}" for line in extra]
    lines.append(f"# columns: {columns}")
    return "".join(line + "\n" for line in lines)


def write_lines(path, pieces: Iterable[str]) -> None:
    """Write the concatenation of `pieces` to `path`, atomically."""
    path = Path(path)
    if path.is_dir():
        raise OSError(f"output path is a directory: {path}")
    if not path.parent.is_dir():
        problem = "is not a directory" if path.parent.exists() else "does not exist"
        raise OSError(f"output directory {problem}: {path.parent}")
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
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

    yield _header(JSI_FORMAT, config, "signal_nm,idler_nm,re,im,intensity")
    signal_nm = format_block(wavelength_from_omega(state.grid.signal_axis))
    idler_nm = format_block(wavelength_from_omega(state.grid.idler_axis))
    amplitude, n_idler = state.amplitude.ravel(), state.grid.n_idler
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
        f"reference.input_entropy_nats: {_fmt(result.input_entropy)}",
        f"reference.empty_cavity_entropy_nats: {_fmt(result.empty_cavity_entropy)}",
    ]
    pieces = [_header(SWEEP_FORMAT, plan.base_config, "series_param,series_value,sweep_param,"
                      "sweep_value,entropy_nats,delta_vs_input_nats,flags", extra)]
    for row in result.rows:
        pieces.append(
            f"{series_param},{_fmt(row.series_value)},{sweep_param},{_fmt(row.sweep_value)},"
            f"{_fmt(row.entropy)},{_fmt(row.delta_vs_input)},{';'.join(row.flags)}\n"
        )
    for ref in result.reference_rows:
        pieces.append(
            f"reference,0,{sweep_param},{_fmt(ref.sweep_value)},"
            f"{_fmt(ref.entropy)},0,reference:{ref.kind}\n"
        )
    return pieces


@dataclass(frozen=True)
class MeasuredJsi:
    """A measured (or re-ingested) joint spectral map on wavelength axes.

    Axes are strictly monotone in frequency, either way, and need not be
    uniform; amplitude is present only when the source file carried re/im columns.
    """

    signal_nm: np.ndarray
    idler_nm: np.ndarray
    intensity: np.ndarray
    amplitude: np.ndarray | None = None

    def __post_init__(self):
        for name, axis in (("signal_nm", self.signal_nm), ("idler_nm", self.idler_nm)):
            try:
                steps = np.diff(omega_from_wavelength(axis))
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
            if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
                raise ValueError(f"{name} axis must be strictly monotone in frequency")
        if not np.all(np.isfinite(self.intensity)):
            raise ValueError("intensities must be finite")
        if np.any(self.intensity < 0.0):
            raise ValueError("intensities must be non-negative")
        if not np.any(self.intensity > 0.0):
            raise ValueError("intensity map is all zero")
        if self.amplitude is not None and not np.any(self.amplitude):
            raise ValueError("amplitude map is all zero")


def _skip_line(line: str, columns: list[str]) -> bool:
    """Whether a stripped line is blank or a comment; `# columns:` sets `columns`."""
    if line.startswith("#"):
        body = line.lstrip("#").strip()
        if body.startswith("columns:"):
            columns[:] = [c.strip() for c in body[len("columns:"):].split(",")]
        return True
    return not line


def _data_chunks(path, columns: list[str], spans: list) -> Iterator[list[str]]:
    """The data lines of the file at `path`, without newlines, in one list per
    read that has any, and each list's file line numbers appended to `spans`.
    A read with an empty line, a non-ASCII character or one of `_SKIP_MARKS`
    goes line by line: it loses the lines `_skip_line` drops (setting
    `columns`) and numbers the others in an index array; any other read is
    numbered by a range.  A byte that is not UTF-8 raises ValueError naming
    its line, found by one search of the read but its unfinished last line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        tail, first, more = "", 1, True
        while more:
            text = handle.read(_READ_CHARS)
            more = bool(text)
            text = tail + text
            lines = text.split("\n")
            tail = lines.pop() if more else ""
            numbers = range(first, first + len(lines))
            first = numbers.stop
            if "" in lines or not text.isascii() or any(mark in text for mark in _SKIP_MARKS):
                if not text.isascii() and (bad := _NOT_UTF8.search(text, 0, len(text) - len(tail))):
                    number = numbers.start + text.count("\n", 0, bad.start())
                    raise ValueError(f"{path}:{number}: not UTF-8 text")
                keep = [not _skip_line(line.strip(), columns) for line in lines]
                lines = list(compress(lines, keep))
                numbers = numbers.start + np.flatnonzero(keep)
            if lines:  # an empty range would make the concatenated numbers float
                spans.append(numbers)
                yield lines


def _parse_rows(path, lines, line_numbers) -> list[list[float]]:
    """Cell-by-cell float() parse: the diagnostic path when np.loadtxt refuses.

    float() accepts a superset of np.loadtxt (underscores, non-ASCII digits),
    so a file the fast path rejects still parses exactly as it always did.
    """
    rows = []
    for line, lineno in zip(map(str.strip, lines), line_numbers):
        try:
            rows.append([float(p) for p in line.split(",")])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric data {line!r}") from None
    return rows


def ingest_measured_jsi(path) -> MeasuredJsi:
    """Read a JSI-schema file; re/im are used when present, else intensity only.

    Validation failures name the offending file line and cell coordinates.
    """
    path = Path(path)
    columns: list[str] = []
    spans: list = []  # a range or index array per read: joined only for a message or float()
    lines = chain.from_iterable(_data_chunks(path, columns, spans))
    data, rows = None, None
    try:
        if (first := next(lines, None)) is not None:
            data = np.loadtxt(chain((first,), lines), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a line np.loadtxt refuses, or one that is not UTF-8
        # float() parses once every line is read: a line that is not UTF-8 is
        # reported before any bad cell.
        spans.clear()
        lines = list(chain.from_iterable(_data_chunks(path, columns, spans)))
        rows = _parse_rows(path, lines, np.concatenate(spans))
    if data is None and not rows:
        raise ValueError(f"{path}: no data rows")

    # np.loadtxt only returns rectangular data, so its one width stands for every row.
    widths = [data.shape[1]] if rows is None else [len(values) for values in rows]
    if not columns:
        columns = (
            ["signal_nm", "idler_nm", "re", "im", "intensity"]
            if widths[0] == 5
            else ["signal_nm", "idler_nm", "intensity"]
        )
    for name in ("signal_nm", "idler_nm", "intensity"):
        if name not in columns:
            raise ValueError(f"{path}: missing required column {name!r}")
    idx = {name: columns.index(name) for name in columns}
    for row, width in enumerate(widths):
        if width != len(columns):
            raise ValueError(f"{path}:{np.concatenate(spans)[row]}: "
                             f"expected {len(columns)} columns, got {width}")
    if rows is not None:
        data = np.array(rows)

    signal_col = data[:, idx["signal_nm"]]
    idler_col = data[:, idx["idler_nm"]]
    intensity_col = data[:, idx["intensity"]]

    non_finite = np.nonzero(~np.all(np.isfinite(data), axis=1))[0]
    if non_finite.size:
        raise ValueError(f"{path}:{np.concatenate(spans)[non_finite[0]]}: non-finite data")
    negative = np.nonzero(intensity_col < 0.0)[0]
    if negative.size:
        k = int(negative[0])
        raise ValueError(
            f"{path}:{np.concatenate(spans)[k]}: negative intensity at cell "
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
    if "re" in idx and "im" in idx:
        amplitude = (data[:, idx["re"]] + 1j * data[:, idx["im"]]).reshape(n_signal, n_idler)
    try:
        return MeasuredJsi(
            signal_nm=signal_axis,
            idler_nm=idler_axis,
            intensity=intensity_col.reshape(n_signal, n_idler),
            amplitude=amplitude,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def measured_entropy(measured: MeasuredJsi) -> tuple[float, tuple[str, ...]]:
    """Entropy of an ingested map, in nats, with fidelity flags.

    Without re/im columns the amplitude is taken as sqrt(intensity) with
    zero phase, which discards any phase structure; such results carry the
    intensity-only flag.  Axes convert to angular frequency and the entropy
    uses trapezoid weights, so non-uniform measured grids are handled.
    """
    intensity_only = measured.amplitude is None
    amp = np.sqrt(measured.intensity) if intensity_only else measured.amplitude
    flags = (INTENSITY_ONLY_FLAG,) if intensity_only else ()
    axes = map(omega_from_wavelength, (measured.signal_nm, measured.idler_nm))
    return entropy_of_samples(*axes, amp), flags
