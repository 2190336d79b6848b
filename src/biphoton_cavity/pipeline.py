"""Glue from a SimConfig to its grid, input state and cavity model."""

import numpy as np

from .cavity import CavityModel
from .config import ConfigError, SimConfig
from .grid import FrequencyGrid, build_grid, omega_from_wavelength
from .state import (
    BiphotonAmplitude,
    compose_input_state,
    detection_filter_profile,
    phase_matching_envelope,
    pump_envelope,
)


def grid_from_config(config: SimConfig) -> FrequencyGrid:
    return build_grid(config.grid.center_nm, config.grid.span_nm, config.grid.points)


def input_state_from_config(config: SimConfig, grid: FrequencyGrid | None = None) -> BiphotonAmplitude:
    grid = grid_from_config(config) if grid is None else grid
    try:  # a width whose square underflows to 0 divides by it; an overflow is exp's limit 0
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            state = compose_input_state(config.pump, config.phase_matching,
                                        config.signal_filter, config.idler_filter, grid)
        if float(np.max(np.abs(state.amplitude))) ** 2 > 0.0:  # some |F|^2 does not underflow
            return state
    except FloatingPointError:
        pass
    raise ConfigError(_zero_state_message(config, grid))


def _zero_state_message(config: SimConfig, grid: FrequencyGrid) -> str:
    """Name the factor, and its center and width keys, of an input state whose |F|^2 underflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        factors = (
            ("pump envelope", "pump.center_down_nm and pump.bandwidth_nm",
             pump_envelope(config.pump, grid)),
            ("phase-matching envelope", "phase_matching.width_nm",
             phase_matching_envelope(config.phase_matching, grid)),
            ("signal filter", "filters.signal.center_nm and filters.signal.fwhm_nm",
             detection_filter_profile(config.signal_filter, grid.signal_axis)),
            ("idler filter", "filters.idler.center_nm and filters.idler.fwhm_nm",
             detection_filter_profile(config.idler_filter, grid.idler_axis)),
        )
    for name, keys, values in factors:
        if not float(np.max(np.abs(values))) ** 2 > 0.0:  # NaN counts as vanishing
            reason = f"the {name} vanishes on the whole grid; check {keys}"
            break
    else:
        reason = ("its pump, phase-matching and filter factors do not overlap on the grid; "
                  "check pump.bandwidth_nm and the filters.* keys")
    return (f"input state is zero on every grid point: {reason} "
            "against grid.center_nm, grid.span_nm and grid.points")


def cavity_model_from_config(
    config: SimConfig,
    kind: str | None = None,
    coupling_ratio: float | None = None,
    detuning_nm: float | None = None,
) -> CavityModel:
    """The configured cavity, with optional kind and coupling_ratio overrides.

    A detuning_nm places the cavity mode that far from the emitter line, to
    first order at the emitter wavelength (|d omega / d lambda| =
    omega/lambda; positive is higher frequency), instead of at cavity.center_nm.
    A model that CavityModel or the unit conversion refuses raises a
    ConfigError that names the cavity.* values it was built from.
    """
    c = config.cavity
    overridden = {"cavity.kind": kind, "cavity.coupling_ratio": coupling_ratio,
                  "cavity.center_nm": detuning_nm}
    kind = c.kind if kind is None else kind
    dicke = kind == "dicke"
    ratio = c.coupling_ratio if coupling_ratio is None else coupling_ratio
    gamma = 1.0 / c.lifetime_fs
    try:
        emitter = omega_from_wavelength(c.emitter_nm) if dicke or detuning_nm is not None else None
        omega_0 = (omega_from_wavelength(c.center_nm) if detuning_nm is None
                   else emitter + detuning_nm * (emitter / c.emitter_nm))
        return CavityModel(kind, omega_0, gamma, lambda_c=ratio * gamma if dicke else 0.0,
                           omega_e=emitter if dicke else None,
                           gamma_e=c.emitter_damping_ratio * gamma if dicke else 0.0)
    except ValueError as exc:  # CavityModel names its own field; add the cavity.* values
        keys = [line for line in config.echo_lines()
                if line.startswith("cavity.") and overridden.get(line.partition(" =")[0]) is None]
        raise ConfigError(f"{', '.join(keys)}: {exc}") from None
