"""The benchmark's own physics and output checks.

Nothing here imports the package under test.  Grids, input states and
transfer functions are rebuilt from the config file with numpy alone,
entropies come from the eigenvalues of the reduced density matrix F F^dagger
(never from an SVD) and, for input states, from the closed-form Gaussian
result; the CLI's output files are then compared with them.

Every tolerance is fixed here, before any run, from float64 and the 9
significant digits the file formats print.
"""

import math

import numpy as np

TWO_PI_C = 2.0 * math.pi * 299.792458
_FWHM_GAUSS = 2.0 * math.sqrt(2.0 * math.log(2.0))
_FWHM_SQUARED = 2.0 * math.sqrt(math.log(2.0))

# Documented defaults for keys a config file may omit.
_DEFAULTS = {
    "grid.center_nm": 685.0,
    "grid.span_nm": 40.0,
    "grid.points": 512,
    "pump.center_down_nm": 685.0,
    "pump.bandwidth_nm": 6.0,
    "pump.bandwidth_convention": "at_degeneracy",
    "phase_matching.kind": "flat",
    "filters.signal.center_nm": 685.0,
    "filters.signal.fwhm_nm": 8.0,
    "filters.idler.center_nm": 685.0,
    "filters.idler.fwhm_nm": 8.0,
    "cavity.kind": "two_sided",
    "cavity.center_nm": 685.0,
    "cavity.lifetime_fs": 150.0,
    "cavity.coupling_ratio": 1.0,
    "cavity.emitter_nm": 685.0,
    "cavity.emitter_damping_ratio": 0.0,
}

# A printed value carries 9 significant digits, so it is within 5e-9 of the
# exact one, relative.  The extra 1e-9 covers float64 differences between two
# independent evaluations (exp of arguments up to ~1e3 loses ~1e-13).
_VALUE_RTOL = 6e-9
# Entries near underflow have no relative precision left; compare them
# against this share of the column's largest magnitude instead.
_VALUE_ATOL_SHARE = 1e-12


def entropy_tolerance(value: float) -> float:
    """Allowed |printed - oracle| for an entropy printed with 9 digits.

    Half a unit in the 9th significant digit covers the rounding of the
    printed value.  1e-9 nats is the agreement the package documents between
    its SVD route and the density-matrix route; two float64 eigen-solvers at
    n = 512 differ by about n * eps * ln(1/eps) = 4e-12, well inside it.
    """
    v = abs(value)
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(v)) - 8) if v > 0.0 else 0.0
    return half_digit + 1e-9


def omega(wavelength_nm):
    return TWO_PI_C / np.asarray(wavelength_nm, dtype=float)


def read_config(path) -> dict:
    """Flat `key = value` file, with the documented defaults filled in."""
    values = dict(_DEFAULTS)
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    return values


def entropy(amplitude: np.ndarray) -> float:
    """Von Neumann entropy (nats) from the eigenvalues of F F^dagger.

    The grid measure and the state's scale cancel in the normalization.
    """
    rho = amplitude @ amplitude.conj().T
    p = np.linalg.eigvalsh(rho)
    p = p[p > 0.0]
    p = p / p.sum()
    return float(-np.sum(p * np.log(p)))


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.empty_like(axis)
    w[1:-1] = (axis[2:] - axis[:-2]) / 2.0
    w[0] = (axis[1] - axis[0]) / 2.0
    w[-1] = (axis[-1] - axis[-2]) / 2.0
    return w


class Physics:
    """Input state and idler transfer functions for one config file, with
    the CLI's `--cavity-override KEY=VALUE` strings applied."""

    def __init__(self, config_path, overrides=()):
        cfg = read_config(config_path)
        for item in overrides:
            key, _, value = item.partition("=")
            cfg["cavity." + key.removeprefix("cavity.")] = value
        if cfg["phase_matching.kind"] != "flat":
            raise ValueError("the oracle covers flat phase matching only")
        if cfg["pump.bandwidth_convention"] not in ("at_degeneracy", "at_pump"):
            raise ValueError("unknown pump bandwidth convention")
        f = {k: float(v) for k, v in cfg.items() if k not in (
            "pump.bandwidth_convention", "phase_matching.kind", "cavity.kind")}
        if f["cavity.emitter_damping_ratio"] != 0.0:
            raise ValueError("the oracle covers the damping-free emitter only")
        self.cavity_kind = cfg["cavity.kind"]
        self.points = int(f["grid.points"])
        center, span = f["grid.center_nm"], f["grid.span_nm"]
        self.axis = np.linspace(float(omega(center + span / 2.0)),
                                float(omega(center - span / 2.0)), self.points)
        self.center_down = f["pump.center_down_nm"]
        self.bandwidth = f["pump.bandwidth_nm"]
        self.convert_at = (self.center_down if cfg["pump.bandwidth_convention"] == "at_degeneracy"
                           else self.center_down / 2.0)
        self.filters = [(f[f"filters.{arm}.center_nm"], f[f"filters.{arm}.fwhm_nm"])
                        for arm in ("signal", "idler")]
        self.gamma = 1.0 / f["cavity.lifetime_fs"]
        self.cavity_omega = float(omega(f["cavity.center_nm"]))
        self.emitter_nm = f["cavity.emitter_nm"]
        self.emitter_omega = float(omega(self.emitter_nm))

    def _pump_sigma(self, bandwidth_nm):
        return TWO_PI_C * bandwidth_nm / self.convert_at**2 / _FWHM_GAUSS

    def _filter_sigma(self, arm):
        center, fwhm = self.filters[arm]
        return TWO_PI_C * fwhm / center**2 / _FWHM_SQUARED

    def input_state(self, bandwidth_nm=None) -> np.ndarray:
        """Real amplitude: pump envelope times one filter profile per arm."""
        bw = self.bandwidth if bandwidth_nm is None else bandwidth_nm
        ax = self.axis
        u = ax[:, None] + ax[None, :] - float(omega(self.center_down / 2.0))
        g = [np.exp(-((ax - float(omega(self.filters[arm][0]))) ** 2) / self._filter_sigma(arm) ** 2)
             for arm in (0, 1)]
        return np.exp(-(u**2) / (4.0 * self._pump_sigma(bw) ** 2)) * g[0][:, None] * g[1][None, :]

    def gaussian_entropy(self, bandwidth_nm=None) -> float:
        """Closed form for exp(-(A x^2 + B y^2 + 2 C xy)): purity
        P = sqrt(1 - C^2/(A B)), geometric Schmidt weights with ratio
        mu = (1 - P)/(1 + P) (Law, Walmsley & Eberly, PRL 84, 5304)."""
        bw = self.bandwidth if bandwidth_nm is None else bandwidth_nm
        c = 1.0 / (4.0 * self._pump_sigma(bw) ** 2)
        a = c + 1.0 / self._filter_sigma(0) ** 2
        b = c + 1.0 / self._filter_sigma(1) ** 2
        purity = math.sqrt(1.0 - c * c / (a * b))
        mu = (1.0 - purity) / (1.0 + purity)
        return -math.log(1.0 - mu) - mu * math.log(mu) / (1.0 - mu)

    def two_sided(self) -> np.ndarray:
        return self.gamma / (self.gamma + 1j * (self.axis - self.cavity_omega))

    def dicke(self, coupling_ratio, detuning_nm) -> np.ndarray:
        """Dicke response with the cavity detuned from the emitter line."""
        w0 = self.emitter_omega + detuning_nm * (self.emitter_omega / self.emitter_nm)
        lam = coupling_ratio * self.gamma
        de = self.axis - self.emitter_omega
        with np.errstate(divide="ignore", invalid="ignore"):
            values = self.gamma / (self.gamma + 1j * (self.axis - w0) + lam**2 / (1j * de))
        values[de == 0.0] = 0.0
        return values


def _header(path):
    """Bodies of the leading '#' lines of a CLI output file."""
    lines = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            lines.append(line[1:].strip())
    return lines


def _data(path):
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if not line.startswith("#")]


def _header_value(header, key):
    for body in header:
        if body.startswith(key + ":"):
            return body[len(key) + 1:].strip()
    return None


def _near(printed, exact, atol=0.0):
    return abs(printed - exact) <= _VALUE_RTOL * abs(exact) + atol


def _check_entropy(misses, label, printed, exact):
    if not abs(printed - exact) <= entropy_tolerance(exact):
        misses.append(f"{label}: printed {printed!r}, oracle {exact!r}")


def check_sweep(path, phys, *, swept, series_param, values, series, sample, pump):
    """Check a sweepv1 file.

    Every row's axes, flags and delta column are checked.  The header's input
    and empty-cavity entropies, the rows whose indices are in `sample`, and
    for the pump sweep the empty-cavity reference rows at those indices
    modulo the number of values, are recomputed by the oracle.  Every pump
    `reference:input` row is checked against the closed-form Gaussian.
    Returns (misses, entropies printed in rows and reference rows).
    """
    misses = []
    header, data = _header(path), _data(path)
    for key, want in (("format", "sweepv1"), ("swept_parameter", swept),
                      ("series_parameter", series_param)):
        if _header_value(header, key) != want:
            misses.append(f"header {key}: {_header_value(header, key)!r}, want {want!r}")
    base = phys.input_state()
    s_in = entropy(base)
    _check_entropy(misses, "input entropy vs closed form", s_in, phys.gaussian_entropy())
    for key, exact in (("reference.input_entropy_nats", s_in),
                       ("reference.empty_cavity_entropy_nats", entropy(base * phys.two_sided()))):
        _check_entropy(misses, key, float(_header_value(header, key) or "nan"), exact)

    rows = [line.split(",") for line in data]
    points = [r for r in rows if r[0] != "reference"]
    refs = [r for r in rows if r[0] == "reference"]
    want_rows = [(s, v) for s in series for v in values]
    if (len(points) != len(want_rows) or len(refs) != (2 * len(values) if pump else 0)
            or any(len(r) != 7 for r in rows)):
        misses.append(f"{len(points)} rows and {len(refs)} reference rows")
        return misses, len(points) + len(refs)

    ref_sample = {k % len(values) for k in sample}
    ref_input = {}
    for k, r in enumerate(refs):
        bw, s = float(r[3]), float(r[4])
        kind = ("reference:input", "reference:empty_cavity")[k % 2]
        if r[5] != "0" or r[6] != kind or not _near(bw, values[k // 2]):
            misses.append(f"reference row {k}: {','.join(r)}")
        elif kind == "reference:input":
            ref_input[r[3]] = s
            _check_entropy(misses, f"reference:input at {bw} nm vs closed form", s,
                           phys.gaussian_entropy(bw))
        elif k // 2 in ref_sample:
            _check_entropy(misses, f"reference:empty_cavity at {bw} nm", s,
                           entropy(phys.input_state(bw) * phys.two_sided()))

    for k, (r, (s_val, v_val)) in enumerate(zip(points, want_rows)):
        try:
            series_value, sweep_value, s, delta = (float(x) for x in r[1:2] + r[3:6])
        except ValueError:
            misses.append(f"row {k}: {','.join(r)}")
            continue
        if (r[0], r[2]) != (series_param, swept) or not (
                _near(series_value, s_val, 1e-12) and _near(sweep_value, v_val)):
            misses.append(f"row {k}: axes {','.join(r[:4])}, want {s_val!r},{v_val!r}")
        ratio = v_val if swept == "coupling_ratio" else s_val
        want_flags = "weak_coupling" if ratio <= 0.5 else ""
        if r[6] != want_flags:
            misses.append(f"row {k}: flags {r[6]!r}, want {want_flags!r}")
        row_input = ref_input.get(r[3], s_in) if pump else s_in
        if not abs(delta - (s - row_input)) <= (entropy_tolerance(delta) + entropy_tolerance(s)
                                                + entropy_tolerance(row_input)):
            misses.append(f"row {k}: delta {delta!r} is not entropy minus input")
        if k in sample:
            if pump:
                exact = entropy(phys.input_state(v_val) * phys.dicke(s_val, 0.0))
            else:
                exact = entropy(base * phys.dicke(v_val, s_val))
            _check_entropy(misses, f"row {k} ({s_val}, {v_val})", s, exact)
    return misses, len(points) + len(refs)


def _check_columns(misses, label, expected):
    for name, got, want in expected:
        atol = _VALUE_ATOL_SHARE * float(np.max(np.abs(want)))
        bad = np.nonzero(~(np.abs(got - want) <= _VALUE_RTOL * np.abs(want) + atol))[0]
        if bad.size:
            misses.append(f"{label} column {name}: {bad.size} entries off, first at data row "
                          f"{int(bad[0])}: {float(got[bad[0]])!r} vs {float(want[bad[0]])!r}")


def check_jsi(path, phys, amplitude):
    """Check every row of a jsiv1 file against `amplitude` on the oracle grid.

    Returns (misses, table) with the parsed rows for later use.
    """
    misses = []
    header = _header(path)
    if header[:1] != ["format: jsiv1"] or _header_value(
            header, "columns") != "signal_nm,idler_nm,re,im,intensity":
        misses.append(f"{path}: jsiv1 header")
    table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    n = phys.points
    if table.shape != (n * n, 5):
        return misses + [f"{path}: data shape {table.shape}"], table
    nm = TWO_PI_C / phys.axis
    amp = np.asarray(amplitude, dtype=complex).ravel()
    _check_columns(misses, str(path), [
        ("signal_nm", table[:, 0], np.repeat(nm, n)),
        ("idler_nm", table[:, 1], np.tile(nm, n)),
        ("re", table[:, 2], amp.real),
        ("im", table[:, 3], amp.imag),
        ("intensity", table[:, 4], np.abs(amp) ** 2),
    ])
    return misses, table


def check_curve(path, phys, values):
    misses = []
    header = _header(path)
    if header[:1] != ["format: curvev1"] or _header_value(
            header, "columns") != "wavelength_nm,re,im,transmission,phase_rad":
        misses.append(f"{path}: curvev1 header")
    table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if table.shape != (phys.points, 5):
        return misses + [f"{path}: data shape {table.shape}"]
    _check_columns(misses, str(path), [
        ("wavelength_nm", table[:, 0], TWO_PI_C / phys.axis),
        ("re", table[:, 1], values.real),
        ("im", table[:, 2], values.imag),
        ("transmission", table[:, 3], np.abs(values) ** 2),
        ("phase_rad", table[:, 4], np.unwrap(np.angle(values))),
    ])
    return misses


def printed_entropy(path):
    """The `entropy_nats = X` value of an `entropy` or `ingest` output."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("entropy_nats = "):
                return float(line.split("=", 1)[1])
    return float("nan")


def check_entropy_output(path, phys):
    misses = []
    s = printed_entropy(path)
    _check_entropy(misses, f"{path} vs eigenvalues", s, entropy(phys.input_state()))
    _check_entropy(misses, f"{path} vs closed form", s, phys.gaussian_entropy())
    return misses


def check_ingest_output(path, jsi_table, source_name, n):
    """Check `ingest` of a jsiv1 file against the file's own samples.

    The oracle repeats what ingestion must do: wavelength axes to angular
    frequency in increasing order, trapezoid weights per axis, then the
    density-matrix entropy of the weighted amplitude.
    """
    misses = []
    header = _header(path)
    for key, want in (("source", source_name), ("grid", f"{n} x {n}"),
                      ("amplitude_columns", "yes")):
        if _header_value(header, key) != want:
            misses.append(f"{path}: {key} {_header_value(header, key)!r}, want {want!r}")
    ws = TWO_PI_C / jsi_table[::n, 0]
    wi = TWO_PI_C / jsi_table[:n, 1]
    amp = (jsi_table[:, 2] + 1j * jsi_table[:, 3]).reshape(n, n)
    if ws[0] > ws[-1]:
        ws, amp = ws[::-1], amp[::-1, :]
    if wi[0] > wi[-1]:
        wi, amp = wi[::-1], amp[:, ::-1]
    weighted = amp * np.sqrt(np.outer(trapezoid_weights(ws), trapezoid_weights(wi)))
    _check_entropy(misses, f"{path} vs file samples", printed_entropy(path), entropy(weighted))
    return misses
