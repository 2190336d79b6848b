"""Construction and transformation of joint spectral amplitudes.

The input state is a product of a Gaussian pump envelope (function of
omega_s + omega_i), a phase-matching envelope, and one detection-filter
profile per arm, all real.  Idler-arm propagation multiplies each idler
column by a complex transfer value: the one step that makes a state complex.
"""

from dataclasses import dataclass

import numpy as np

from .cavity import TransferCurve
from .grid import (
    FrequencyGrid,
    bandwidth_nm_to_rad_fs,
    omega_from_wavelength,
    wavelength_from_omega,
)

# FWHM of exp(-x^2/(2 s^2)) is 2*s*sqrt(2 ln 2); of exp(-x^2/s^2) it is 2*s*sqrt(ln 2).
_FWHM_GAUSS = 2.0 * np.sqrt(2.0 * np.log(2.0))
_FWHM_SQUARED = 2.0 * np.sqrt(np.log(2.0))

PUMP_CONVENTIONS = ("at_pump", "at_degeneracy")
PM_KINDS = ("flat", "gaussian")


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump for degenerate SPDC.

    center_down_nm is the down-converted degeneracy point (nm); the pump
    itself sits at half that wavelength.  bandwidth_nm is the FWHM of the
    pump intensity spectrum in nm; bandwidth_convention says at which
    wavelength that nm figure is converted to rad/fs ("at_pump" uses
    center/2, "at_degeneracy" uses the down-converted center).
    """

    center_down_nm: float
    bandwidth_nm: float
    # at_degeneracy is by far the closer match to the reference base
    # entropy; both conventions remain selectable (see README).
    bandwidth_convention: str = "at_degeneracy"

    def __post_init__(self):
        if not (0.0 < self.center_down_nm < np.inf and 0.0 < self.bandwidth_nm < np.inf):
            raise ValueError("pump center wavelength and bandwidth must be finite and positive")
        if self.bandwidth_nm >= self.center_down_nm / 2.0:
            raise ValueError("pump bandwidth must be below half of the down-converted center")
        if self.bandwidth_convention not in PUMP_CONVENTIONS:
            raise ValueError(f"unknown pump bandwidth convention {self.bandwidth_convention!r}")
        self.sum_frequency, self.sigma  # their unit conversions, so a value they refuse fails here

    @property
    def sum_frequency(self) -> float:
        """Pump angular frequency omega_p = omega_s + omega_i at degeneracy."""
        return omega_from_wavelength(self.center_down_nm / 2.0)

    @property
    def sigma(self) -> float:
        """Gaussian width of the amplitude envelope exp(-u^2 / (4 sigma^2))."""
        if self.bandwidth_convention == "at_pump":
            width = bandwidth_nm_to_rad_fs(self.bandwidth_nm, self.center_down_nm / 2.0)
        else:
            width = bandwidth_nm_to_rad_fs(self.bandwidth_nm, self.center_down_nm)
        # |A|^2 = exp(-u^2 / (2 sigma^2)) must have FWHM equal to `width`.
        return width / _FWHM_GAUSS


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian-squared detection filter: center and FWHM in nm."""

    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if not (0.0 < self.center_nm < np.inf and 0.0 < self.fwhm_nm < np.inf):
            raise ValueError("filter center wavelength and bandwidth must be finite and positive")
        # the unit conversions detection_filter_profile makes, so a value they refuse fails here
        omega_from_wavelength(self.center_nm), bandwidth_nm_to_rad_fs(self.fwhm_nm, self.center_nm)


@dataclass(frozen=True)
class PhaseMatchingSpec:
    """Envelope on the omega_s - omega_i axis: flat (no width_nm), or Gaussian of FWHM width_nm."""

    kind: str = "flat"
    width_nm: float | None = None

    def __post_init__(self):
        if self.kind not in PM_KINDS:
            raise ValueError(f"unknown phase-matching kind {self.kind!r}")
        if self.kind == "flat" and self.width_nm is not None:
            raise ValueError("flat phase matching reads no width_nm")
        if self.kind == "gaussian" and (self.width_nm is None or not 0.0 < self.width_nm < np.inf):
            raise ValueError("gaussian phase matching requires a finite, positive width_nm")


@dataclass(frozen=True)
class BiphotonAmplitude:
    """Joint spectral amplitude F(omega_s, omega_i) on a FrequencyGrid: float64 or complex128."""

    grid: FrequencyGrid
    amplitude: np.ndarray

    def __post_init__(self):
        dtype = complex if np.iscomplexobj(self.amplitude) else float
        amp = np.asarray(self.amplitude, dtype=dtype, order="C")  # not copied if it fits
        if amp.shape != (self.grid.n_signal, self.grid.n_idler):
            raise ValueError(
                f"amplitude shape {amp.shape} does not match grid "
                f"({self.grid.n_signal}, {self.grid.n_idler})"
            )
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitude entries must be finite")
        amp.setflags(write=False)  # the caller's array too, when it was taken over
        object.__setattr__(self, "amplitude", amp)


def pump_envelope(pump: PumpSpec, grid: FrequencyGrid) -> np.ndarray:
    """Gaussian envelope exp(-(omega_s + omega_i - omega_p)^2 / (4 sigma_p^2)).

    Real, in (0, 1], equal to 1 exactly on the anti-diagonal
    omega_s + omega_i = omega_p.
    """
    u = grid.signal_axis[:, None] + grid.idler_axis[None, :] - pump.sum_frequency
    return np.exp(-(u**2) / (4.0 * pump.sigma**2))


def phase_matching_envelope(pm: PhaseMatchingSpec, grid: FrequencyGrid) -> np.ndarray:
    """Phase-matching factor: all ones, or a Gaussian in omega_s - omega_i.

    The gaussian kind converts width_nm at the wavelength of the grid center
    frequency and peaks at 1 on the diagonal omega_s = omega_i.
    """
    if pm.kind == "flat":
        return np.ones((grid.n_signal, grid.n_idler))
    center_omega = 0.5 * (grid.signal_axis[0] + grid.signal_axis[-1])
    width = bandwidth_nm_to_rad_fs(pm.width_nm, wavelength_from_omega(center_omega))
    sigma = width / _FWHM_GAUSS
    v = grid.signal_axis[:, None] - grid.idler_axis[None, :]
    return np.exp(-(v**2) / (4.0 * sigma**2))


def detection_filter_profile(filt: FilterSpec, axis: np.ndarray) -> np.ndarray:
    """Amplitude factor g(omega) = exp(-(omega - omega_f)^2 / sigma_f^2).

    g is the square of a Gaussian; sigma_f is fixed so g itself has FWHM
    equal to the filter bandwidth converted at the filter center.  Peak
    value 1 at omega_f.
    """
    center = omega_from_wavelength(filt.center_nm)
    width = bandwidth_nm_to_rad_fs(filt.fwhm_nm, filt.center_nm)
    sigma = width / _FWHM_SQUARED
    return np.exp(-((np.asarray(axis, dtype=float) - center) ** 2) / sigma**2)


def compose_input_state(
    pump: PumpSpec,
    pm: PhaseMatchingSpec,
    signal_filter: FilterSpec,
    idler_filter: FilterSpec,
    grid: FrequencyGrid,
) -> BiphotonAmplitude:
    """Input joint spectral amplitude: pump x phase matching x per-arm filters.

    All four factors are applied at the amplitude level, so the joint
    spectral intensity factorizes into their squared moduli.  The result is
    real (float64) and non-negative.
    """
    amp = pump_envelope(pump, grid)  # in place, in the order of a*phi*gs*gi: the same bits
    amp *= phase_matching_envelope(pm, grid)
    amp *= detection_filter_profile(signal_filter, grid.signal_axis)[:, None]
    amp *= detection_filter_profile(idler_filter, grid.idler_axis)[None, :]
    return BiphotonAmplitude(grid=grid, amplitude=amp)


def apply_idler_transfer(state: BiphotonAmplitude, curve: TransferCurve) -> BiphotonAmplitude:
    """Multiply each idler column by C(omega_i); the signal axis is untouched.

    The curve must be sampled exactly on the state's idler axis.  The result
    is complex and not renormalized, so transmission losses stay visible in the JSI.
    """
    if not np.array_equal(curve.axis, state.grid.idler_axis):
        raise ValueError("transfer curve is not sampled on the state's idler axis")
    return BiphotonAmplitude(grid=state.grid, amplitude=state.amplitude * curve.values[None, :])
