"""Units, physical constants and the discretized two-photon frequency domain.

All frequencies are angular frequencies in rad/fs, all wavelengths in nm,
all times in fs.  Every other module operates on axes produced here.
"""

from dataclasses import dataclass

import numpy as np

# Speed of light, exact. nm/fs == 1e-6 * (m/s).
C_NM_PER_FS = 299.792458
TWO_PI_C = 2.0 * np.pi * C_NM_PER_FS

# build_grid refuses n points when one n x n complex128 array (16 n^2 bytes) would
# exceed this, i.e. above 8192 points. In real grid arrays (8 n^2 bytes, 512 MiB at
# 8192 points), composing an input state holds one, two with gaussian phase matching,
# and a sweep point five: its one input state, the transmitted product and the SVD's
# copy of it, one real and two complex arrays. README "Command line" gives measured peaks.
MAX_GRID_ARRAY_BYTES = 1 << 30


def _two_pi_c_over(x, message):
    """2*pi*c / x, which maps nm to rad/fs and back; ValueError(message) unless
    every x and every result is finite and positive."""
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        result = TWO_PI_C / x_arr
    if not np.all(np.isfinite(x_arr) & (x_arr > 0.0) & np.isfinite(result)):
        raise ValueError(message)
    return float(result) if np.isscalar(x) else result


def omega_from_wavelength(wavelength_nm):
    """Convert vacuum wavelength (nm) to angular frequency (rad/fs)."""
    return _two_pi_c_over(wavelength_nm, "wavelength must be finite and positive, "
                          "with a finite frequency (nm)")


def wavelength_from_omega(omega_rad_fs):
    """Convert angular frequency (rad/fs) to vacuum wavelength (nm)."""
    return _two_pi_c_over(omega_rad_fs, "angular frequency must be finite and positive, "
                          "with a finite wavelength (rad/fs)")


def bandwidth_nm_to_rad_fs(fwhm_nm, center_nm):
    """First-order conversion of a wavelength FWHM to an angular-frequency width.

    Evaluates d(omega)/d(lambda) at the center wavelength:
    delta_omega = 2*pi*c*delta_lambda / lambda^2, which must come out finite and positive.
    """
    if not center_nm > 0.0:
        raise ValueError("center wavelength must be positive (nm)")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # float64: no OverflowError
        width = TWO_PI_C * fwhm_nm / np.float64(center_nm) ** 2
    if not 0.0 < width < np.inf:
        raise ValueError("bandwidth and center wavelength (nm) must give a finite, positive "
                         "width in rad/fs")
    return width


def trapezoid_weights(axis) -> np.ndarray:
    """Trapezoid-rule weights (rad/fs) of a strictly monotone axis: half the
    distance between each sample's neighbours, half a step at either end."""
    steps = np.abs(np.diff(np.asarray(axis, dtype=float)))
    return 0.5 * (np.append(steps, 0.0) + np.insert(steps, 0, 0.0))


@dataclass(frozen=True)
class FrequencyGrid:
    """Signal/idler angular-frequency axes (rad/fs), each strictly monotone in
    either direction, with one quadrature weight (rad/fs) per sample: the
    integral of f over the grid is sum_jk signal_weights[j] f[j, k] idler_weights[k]."""

    signal_axis: np.ndarray
    idler_axis: np.ndarray
    signal_weights: np.ndarray
    idler_weights: np.ndarray

    def __post_init__(self):
        for arm in ("signal", "idler"):
            axis = np.array(getattr(self, f"{arm}_axis"), dtype=float, order="C")
            weights = np.array(getattr(self, f"{arm}_weights"), dtype=float, order="C")
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError(f"{arm}_axis must be a 1-d array with at least 2 samples")
            if not np.all(np.isfinite(axis)) or np.any(axis <= 0.0):
                raise ValueError(f"{arm}_axis values must be finite and positive")
            steps = np.diff(axis)
            if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
                raise ValueError(f"{arm}_axis must be strictly monotone")
            if weights.shape != axis.shape:
                raise ValueError(f"{arm}_weights must hold one weight per {arm}_axis sample")
            if not np.all(np.isfinite(weights) & (weights > 0.0)):
                raise ValueError(f"{arm}_weights must be finite and positive")
            for name, values in ((f"{arm}_axis", axis), (f"{arm}_weights", weights)):
                values.setflags(write=False)
                object.__setattr__(self, name, values)

    @property
    def n_signal(self) -> int:
        return self.signal_axis.size

    @property
    def n_idler(self) -> int:
        return self.idler_axis.size


def build_grid(center_nm: float, span_nm: float, n: int) -> FrequencyGrid:
    """Square n x n grid, uniform in angular frequency, every weight its step.

    Both axes run from omega(center + span/2) up to omega(center - span/2),
    i.e. the grid covers the wavelength window [center - span/2, center + span/2].
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points per axis")
    if 16 * n * n > MAX_GRID_ARRAY_BYTES:  # before any array is made
        raise ValueError(f"one {n}x{n} complex grid array needs {16 * n * n} bytes, "
                         f"over the {MAX_GRID_ARRAY_BYTES}-byte limit")
    if not np.isfinite(span_nm) or span_nm <= 0.0:
        raise ValueError("span must be finite and positive (nm)")
    if not np.isfinite(center_nm) or center_nm <= span_nm / 2.0:
        raise ValueError("center wavelength must exceed half the span")
    lo = omega_from_wavelength(center_nm + span_nm / 2.0)
    hi = omega_from_wavelength(center_nm - span_nm / 2.0)
    axis, weights = np.linspace(lo, hi, n), np.full(n, (hi - lo) / (n - 1))
    return FrequencyGrid(axis, axis, weights, weights)
