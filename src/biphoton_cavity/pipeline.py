"""Glue from a SimConfig to its grid, input state and cavity model."""

import numpy as np

from .cavity import CavityModel
from .config import ConfigError, SimConfig
from .grid import FrequencyGrid, build_grid, omega_from_wavelength
from .schmidt import state_norm
from .state import (
    BiphotonAmplitude,
    compose_input_state,
    detection_filter_profile,
    phase_matching_envelope,
    pump_envelope,
)


def grid_from_config(config: SimConfig) -> FrequencyGrid:
    g = config.grid
    return build_grid(g.center_nm, g.span_nm, g.points)


def input_state_from_config(config: SimConfig, grid: FrequencyGrid | None = None) -> BiphotonAmplitude:
    grid = grid_from_config(config) if grid is None else grid
    state = compose_input_state(
        config.pump, config.phase_matching, config.signal_filter, config.idler_filter, grid
    )
    if state_norm(state) == 0.0:  # normalize() would fail, without naming a cause
        raise ConfigError(_zero_state_message(config, grid))
    return state


def _zero_state_message(config: SimConfig, grid: FrequencyGrid) -> str:
    """Name the factor, and its config key, of an input state whose |F|^2 underflows."""
    factors = (
        ("pump envelope", "pump.center_down_nm", pump_envelope(config.pump, grid)),
        ("phase-matching envelope", "phase_matching.width_nm",
         phase_matching_envelope(config.phase_matching, grid)),
        ("signal filter", "filters.signal.center_nm",
         detection_filter_profile(config.signal_filter, grid.signal_axis)),
        ("idler filter", "filters.idler.center_nm",
         detection_filter_profile(config.idler_filter, grid.idler_axis)),
    )
    for name, key, values in factors:
        if float(np.max(np.abs(values))) ** 2 == 0.0:
            reason = f"the {name} vanishes on the whole grid; check {key}"
            break
    else:
        reason = ("its pump, phase-matching and filter factors do not overlap on the grid; "
                  "check pump.bandwidth_nm and the filters.* keys")
    return (f"input state is zero on every grid point: {reason} "
            "against grid.center_nm and grid.span_nm")


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
    """
    c = config.cavity
    kind = c.kind if kind is None else kind
    coupling_ratio = c.coupling_ratio if coupling_ratio is None else coupling_ratio
    if detuning_nm is None:
        omega_0 = omega_from_wavelength(c.center_nm)
    else:
        emitter_omega = omega_from_wavelength(c.emitter_nm)
        omega_0 = emitter_omega + detuning_nm * (emitter_omega / c.emitter_nm)
    gamma = 1.0 / c.lifetime_fs
    return CavityModel(
        kind=kind,
        omega_0=omega_0,
        gamma=gamma,
        lambda_c=coupling_ratio * gamma if kind == "dicke" else 0.0,
        omega_e=omega_from_wavelength(c.emitter_nm) if kind == "dicke" else None,
        gamma_e=c.emitter_damping_ratio * gamma if kind == "dicke" else 0.0,
    )
