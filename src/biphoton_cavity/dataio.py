"""Text data formats (jsiv1 / curvev1 / sweepv1) and measured-JSI ingestion.

Files are comma-separated UTF-8 with LF line endings and a '#'-prefixed
header carrying the format version, a full config echo, and the column
schema.  Numbers are printed with 9 significant digits.  Writes go to a
temporary file and are renamed into place, so failed exports leave nothing
behind.
"""

import os
import tempfile
from dataclasses import dataclass
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


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _header_lines(format_name: str, config: SimConfig | None, extra=()) -> list[str]:
    lines = [f"# format: {format_name}"]
    if config is not None:
        lines += [f"# config.{line}" for line in config.echo_lines()]
        if config.applied_defaults:
            lines.append("# defaulted: " + ",".join(config.applied_defaults))
    lines += [f"# {line}" for line in extra]
    return lines


def write_lines(path, lines: list[str]) -> None:
    path = Path(path)
    if path.parent and not path.parent.is_dir():
        raise OSError(f"output directory does not exist: {path.parent}")
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines))
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def render_jsi(state: BiphotonAmplitude, config: SimConfig | None = None) -> list[str]:
    lines = _header_lines(JSI_FORMAT, config)
    lines.append("# columns: signal_nm,idler_nm,re,im,intensity")
    signal_nm = wavelength_from_omega(state.grid.signal_axis)
    idler_nm = wavelength_from_omega(state.grid.idler_axis)
    amp = state.amplitude
    for i in range(state.grid.n_signal):
        s_nm = _fmt(signal_nm[i])
        row = amp[i]
        for j in range(state.grid.n_idler):
            z = row[j]
            lines.append(
                f"{s_nm},{_fmt(idler_nm[j])},{_fmt(z.real)},{_fmt(z.imag)},"
                f"{_fmt(z.real * z.real + z.imag * z.imag)}"
            )
    return lines


def export_jsi(state: BiphotonAmplitude, path, config: SimConfig | None = None) -> None:
    write_lines(path, render_jsi(state, config))


def render_curve(curve: TransferCurve, config: SimConfig | None = None) -> list[str]:
    extra = [f"flags: {';'.join(curve.flags)}"] if curve.flags else []
    lines = _header_lines(CURVE_FORMAT, config, extra)
    lines.append("# columns: wavelength_nm,re,im,transmission,phase_rad")
    nm = wavelength_from_omega(curve.axis)
    for j in range(curve.axis.size):
        z = curve.values[j]
        lines.append(
            f"{_fmt(nm[j])},{_fmt(z.real)},{_fmt(z.imag)},"
            f"{_fmt(curve.transmission[j])},{_fmt(curve.phase[j])}"
        )
    return lines


def export_curve(curve: TransferCurve, path, config: SimConfig | None = None) -> None:
    write_lines(path, render_curve(curve, config))


def render_sweep(result: SweepResult, config: SimConfig | None = None) -> list[str]:
    config = result.plan.base_config if config is None else config
    extra = [
        f"swept_parameter: {result.plan.swept_parameter}",
        f"series_parameter: {result.plan.series_parameter or 'none'}",
        f"reference.input_entropy_nats: {_fmt(result.input_entropy)}",
        f"reference.empty_cavity_entropy_nats: {_fmt(result.empty_cavity_entropy)}",
    ]
    lines = _header_lines(SWEEP_FORMAT, config, extra)
    lines.append(
        "# columns: series_param,series_value,sweep_param,sweep_value,"
        "entropy_nats,delta_vs_input_nats,flags"
    )
    series_param = result.plan.series_parameter or "none"
    sweep_param = result.plan.swept_parameter
    for row in result.rows:
        lines.append(
            f"{series_param},{_fmt(row.series_value)},{sweep_param},{_fmt(row.sweep_value)},"
            f"{_fmt(row.entropy)},{_fmt(row.delta_vs_input)},{';'.join(row.flags)}"
        )
    for ref in result.reference_rows:
        lines.append(
            f"reference,0,{sweep_param},{_fmt(ref.sweep_value)},"
            f"{_fmt(ref.entropy)},0,reference:{ref.kind}"
        )
    return lines


def export_sweep(result: SweepResult, path, config: SimConfig | None = None) -> None:
    write_lines(path, render_sweep(result, config))


@dataclass(frozen=True)
class MeasuredJsi:
    """A measured (or re-ingested) joint spectral map on wavelength axes.

    Axes are strictly monotone but need not be uniform; amplitude is present
    only when the source file carried re/im columns.
    """

    signal_nm: np.ndarray
    idler_nm: np.ndarray
    intensity: np.ndarray
    amplitude: np.ndarray | None = None

    def __post_init__(self):
        for name, axis in (("signal_nm", self.signal_nm), ("idler_nm", self.idler_nm)):
            steps = np.diff(axis)
            if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
                raise ValueError(f"{name} axis must be strictly monotone")
        if not np.all(np.isfinite(self.intensity)):
            raise ValueError("intensities must be finite")
        if np.any(self.intensity < 0.0):
            raise ValueError("intensities must be non-negative")
        if not np.any(self.intensity > 0.0):
            raise ValueError("intensity map is all zero")


def _parse_data_rows(path):
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("columns:"):
                    columns = [c.strip() for c in body[len("columns:"):].split(",")]
                continue
            parts = line.split(",")
            try:
                rows.append(([float(p) for p in parts], lineno))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric data {line!r}") from None
    return columns, rows


def ingest_measured_jsi(path) -> MeasuredJsi:
    """Read a JSI-schema file; re/im are used when present, else intensity only.

    Validation failures name the offending file line and cell coordinates.
    """
    path = Path(path)
    columns, rows = _parse_data_rows(path)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0][0])
    if columns is None:
        columns = (
            ["signal_nm", "idler_nm", "re", "im", "intensity"]
            if width == 5
            else ["signal_nm", "idler_nm", "intensity"]
        )
    for name in ("signal_nm", "idler_nm", "intensity"):
        if name not in columns:
            raise ValueError(f"{path}: missing required column {name!r}")
    idx = {name: columns.index(name) for name in columns}
    for values, lineno in rows:
        if len(values) != len(columns):
            raise ValueError(f"{path}:{lineno}: expected {len(columns)} columns, got {len(values)}")

    data = np.array([values for values, _ in rows])
    line_numbers = [lineno for _, lineno in rows]
    signal_col = data[:, idx["signal_nm"]]
    idler_col = data[:, idx["idler_nm"]]
    intensity_col = data[:, idx["intensity"]]

    non_finite = np.nonzero(~np.all(np.isfinite(data), axis=1))[0]
    if non_finite.size:
        raise ValueError(f"{path}:{line_numbers[int(non_finite[0])]}: non-finite data")
    negative = np.nonzero(intensity_col < 0.0)[0]
    if negative.size:
        k = int(negative[0])
        raise ValueError(
            f"{path}:{line_numbers[k]}: negative intensity at cell "
            f"(signal_nm={signal_col[k]:g}, idler_nm={idler_col[k]:g})"
        )

    n_idler = 1
    while n_idler < len(rows) and signal_col[n_idler] == signal_col[0]:
        n_idler += 1
    if len(rows) % n_idler != 0:
        raise ValueError(f"{path}: data is not a complete row-major grid")
    n_signal = len(rows) // n_idler
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
    return MeasuredJsi(
        signal_nm=signal_axis,
        idler_nm=idler_axis,
        intensity=intensity_col.reshape(n_signal, n_idler),
        amplitude=amplitude,
    )


def measured_entropy(measured: MeasuredJsi) -> tuple[float, tuple[str, ...]]:
    """Entropy of an ingested map, in nats, with fidelity flags.

    Without re/im columns the amplitude is taken as sqrt(intensity) with
    zero phase, which discards any phase structure; such results carry the
    intensity-only flag.  Axes convert to angular frequency and the entropy
    uses trapezoid weights, so non-uniform measured grids are handled.
    """
    if measured.amplitude is not None:
        amp = measured.amplitude
        flags: tuple[str, ...] = ()
    else:
        amp = np.sqrt(measured.intensity).astype(complex)
        flags = (INTENSITY_ONLY_FLAG,)
    signal_omega = omega_from_wavelength(measured.signal_nm)
    idler_omega = omega_from_wavelength(measured.idler_nm)
    if signal_omega[0] > signal_omega[-1]:
        signal_omega = signal_omega[::-1]
        amp = amp[::-1, :]
    if idler_omega[0] > idler_omega[-1]:
        idler_omega = idler_omega[::-1]
        amp = amp[:, ::-1]
    return entropy_of_samples(signal_omega, idler_omega, amp), flags
