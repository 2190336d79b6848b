"""Glue from a SimConfig to grids, states, cavity models and entropies."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cavity import CavityModel, TransferCurve, transfer_for
from .config import ConfigError, SimConfig
from .grid import FrequencyGrid, build_grid, omega_from_wavelength
from .schmidt import entropy_of, state_norm
from .state import (
    BiphotonAmplitude,
    apply_idler_transfer,
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
        ("pump envelope", "pump.center_down_nm", pump_envelope(config.pump, grid).amplitude),
        ("phase-matching envelope", "phase_matching.width_nm",
         phase_matching_envelope(config.phase_matching, grid).amplitude),
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

    A detuning_nm places the cavity mode relative to the emitter line
    (detuned_cavity_center_omega) instead of at cavity.center_nm.
    """
    c = config.cavity
    kind = c.kind if kind is None else kind
    coupling_ratio = c.coupling_ratio if coupling_ratio is None else coupling_ratio
    if detuning_nm is None:
        omega_0 = omega_from_wavelength(c.center_nm)
    else:
        omega_0 = detuned_cavity_center_omega(c.emitter_nm, detuning_nm)
    gamma = 1.0 / c.lifetime_fs
    return CavityModel(
        kind=kind,
        omega_0=omega_0,
        gamma=gamma,
        lambda_c=coupling_ratio * gamma if kind == "dicke" else 0.0,
        omega_e=omega_from_wavelength(c.emitter_nm) if kind == "dicke" else None,
        gamma_e=c.emitter_damping_ratio * gamma if kind == "dicke" else 0.0,
    )


@dataclass(frozen=True)
class SingleRun:
    """Input and transformed states for one configuration.

    The entropies are computed on first access, so runs that only export
    states or curves do no Schmidt decomposition.
    """

    input_state: BiphotonAmplitude
    output_state: BiphotonAmplitude
    curve: TransferCurve

    @cached_property
    def input_entropy(self) -> float:
        return entropy_of(self.input_state)

    @cached_property
    def output_entropy(self) -> float:
        return entropy_of(self.output_state)

    @property
    def entropy_delta(self) -> float:
        return self.output_entropy - self.input_entropy


def run_with_model(config: SimConfig, model: CavityModel) -> SingleRun:
    """Compose the input state and apply the given cavity model."""
    grid = grid_from_config(config)
    state = input_state_from_config(config, grid)
    curve = transfer_for(model, grid.idler_axis)
    output = apply_idler_transfer(state, curve)
    return SingleRun(input_state=state, output_state=output, curve=curve)


def run_single(config: SimConfig) -> SingleRun:
    """Compose the input state and apply the configured cavity."""
    return run_with_model(config, cavity_model_from_config(config))


def detuned_cavity_center_omega(emitter_nm: float, detuning_nm: float) -> float:
    """Cavity mode frequency displaced from the emitter line by detuning_nm.

    The nm offset converts at the emitter wavelength to first order
    (|d omega / d lambda| = omega/lambda); positive detuning shifts the
    cavity to higher frequency.
    """
    emitter_omega = omega_from_wavelength(emitter_nm)
    return emitter_omega + detuning_nm * (emitter_omega / emitter_nm)
