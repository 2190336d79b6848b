"""Units, physical constants and the discretized two-photon frequency domain.

All frequencies are angular frequencies in rad/fs, all wavelengths in nm,
all times in fs.  Every other module operates on axes produced here.
"""

from dataclasses import dataclass

import numpy as np

# Speed of light, exact. nm/fs == 1e-6 * (m/s).
C_NM_PER_FS = 299.792458
TWO_PI_C = 2.0 * np.pi * C_NM_PER_FS

# Relative tolerance for the uniform-spacing invariant of grid axes.
_UNIFORM_RTOL = 1e-12


def omega_from_wavelength(wavelength_nm):
    """Convert vacuum wavelength (nm) to angular frequency (rad/fs)."""
    lam = np.asarray(wavelength_nm, dtype=float)
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise ValueError("wavelength must be finite and positive (nm)")
    result = TWO_PI_C / lam
    return float(result) if np.isscalar(wavelength_nm) else result


def wavelength_from_omega(omega_rad_fs):
    """Convert angular frequency (rad/fs) to vacuum wavelength (nm)."""
    w = np.asarray(omega_rad_fs, dtype=float)
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("angular frequency must be finite and positive (rad/fs)")
    result = TWO_PI_C / w
    return float(result) if np.isscalar(omega_rad_fs) else result


def bandwidth_nm_to_rad_fs(fwhm_nm, center_nm):
    """First-order conversion of a wavelength FWHM to an angular-frequency width.

    Evaluates d(omega)/d(lambda) at the center wavelength:
    delta_omega = 2*pi*c*delta_lambda / lambda^2.
    """
    if not np.isfinite(fwhm_nm) or fwhm_nm <= 0.0:
        raise ValueError("bandwidth must be finite and positive (nm)")
    if not np.isfinite(center_nm) or center_nm <= 0.0:
        raise ValueError("center wavelength must be finite and positive (nm)")
    return TWO_PI_C * fwhm_nm / center_nm**2


def _check_axis(name, axis):
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name} must be a 1-d array with at least 2 samples")
    if not np.all(np.isfinite(axis)) or np.any(axis <= 0.0):
        raise ValueError(f"{name} values must be finite and positive")
    steps = np.diff(axis)
    if np.any(steps <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    # Uniformity measured against the axis magnitude: linspace output deviates
    # from a constant step by a few ulps of the values, not of the step.
    mean_step = steps.mean()
    if np.abs(steps - mean_step).max() > _UNIFORM_RTOL * float(np.abs(axis).max()):
        raise ValueError(f"{name} spacing is not uniform to within {_UNIFORM_RTOL} relative")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform signal/idler angular-frequency axes (rad/fs), strictly increasing."""

    signal_axis: np.ndarray
    idler_axis: np.ndarray

    def __post_init__(self):
        signal = np.array(self.signal_axis, dtype=float, order="C")
        idler = np.array(self.idler_axis, dtype=float, order="C")
        _check_axis("signal_axis", signal)
        _check_axis("idler_axis", idler)
        signal.setflags(write=False)
        idler.setflags(write=False)
        object.__setattr__(self, "signal_axis", signal)
        object.__setattr__(self, "idler_axis", idler)

    @property
    def n_signal(self) -> int:
        return self.signal_axis.size

    @property
    def n_idler(self) -> int:
        return self.idler_axis.size

    @property
    def signal_step(self) -> float:
        return float((self.signal_axis[-1] - self.signal_axis[0]) / (self.n_signal - 1))

    @property
    def idler_step(self) -> float:
        return float((self.idler_axis[-1] - self.idler_axis[0]) / (self.n_idler - 1))

    @property
    def measure(self) -> float:
        """Area element d(omega_s) * d(omega_i) for discrete L2 sums."""
        return self.signal_step * self.idler_step


def build_grid(center_nm: float, span_nm: float, n: int) -> FrequencyGrid:
    """Square n x n grid, uniform in angular frequency.

    Both axes run from omega(center + span/2) up to omega(center - span/2),
    i.e. the grid covers the wavelength window [center - span/2, center + span/2].
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points per axis")
    if not np.isfinite(span_nm) or span_nm <= 0.0:
        raise ValueError("span must be finite and positive (nm)")
    if not np.isfinite(center_nm) or center_nm <= span_nm / 2.0:
        raise ValueError("center wavelength must exceed half the span")
    lo = omega_from_wavelength(center_nm + span_nm / 2.0)
    hi = omega_from_wavelength(center_nm - span_nm / 2.0)
    axis = np.linspace(lo, hi, n)
    return FrequencyGrid(signal_axis=axis, idler_axis=axis.copy())
