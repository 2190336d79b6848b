"""Glue from a SimConfig to grids, states, cavity models and entropies."""

from dataclasses import dataclass
from functools import cached_property

from .cavity import CavityModel, TransferCurve, transfer_for
from .config import SimConfig
from .grid import FrequencyGrid, build_grid, omega_from_wavelength
from .schmidt import entropy_of
from .state import (
    BiphotonAmplitude,
    FilterSpec,
    PhaseMatchingSpec,
    PumpSpec,
    apply_idler_transfer,
    compose_input_state,
)


def grid_from_config(config: SimConfig) -> FrequencyGrid:
    g = config.grid
    return build_grid(g.center_nm, g.span_nm, g.points)


def input_state_from_config(config: SimConfig, grid: FrequencyGrid | None = None) -> BiphotonAmplitude:
    grid = grid_from_config(config) if grid is None else grid
    pump = PumpSpec(
        center_wavelength=config.pump.center_down_nm,
        bandwidth_fwhm=config.pump.bandwidth_nm,
        bandwidth_convention=config.pump.bandwidth_convention,
    )
    pm = PhaseMatchingSpec(kind=config.phase_matching.kind, width_nm=config.phase_matching.width_nm)
    signal = FilterSpec(config.signal_filter.center_nm, config.signal_filter.fwhm_nm)
    idler = FilterSpec(config.idler_filter.center_nm, config.idler_filter.fwhm_nm)
    return compose_input_state(pump, pm, signal, idler, grid)


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

    config: SimConfig
    input_state: BiphotonAmplitude
    output_state: BiphotonAmplitude
    curve: TransferCurve
    flags: tuple[str, ...]

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
    return SingleRun(
        config=config,
        input_state=state,
        output_state=output,
        curve=curve,
        flags=curve.flags,
    )


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
