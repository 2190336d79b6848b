"""Glue from a SimConfig to its grid and input state."""

from .config import ConfigError, SimConfig
from .grid import FrequencyGrid, build_grid
from .state import BiphotonAmplitude, ZeroStateError, compose_input_state

# The config keys of each factor a ZeroStateError names; None, factors that do not overlap.
_FACTOR_KEYS = {
    "pump envelope": "pump.center_down_nm and pump.bandwidth_nm",
    "phase-matching envelope": "phase_matching.width_nm",
    "signal filter": "filters.signal.center_nm and filters.signal.fwhm_nm",
    "idler filter": "filters.idler.center_nm and filters.idler.fwhm_nm",
    None: "pump.bandwidth_nm and the filters.* keys",
}


def grid_from_config(config: SimConfig) -> FrequencyGrid:
    return build_grid(config.grid.center_nm, config.grid.span_nm, config.grid.points)


def input_state_from_config(config: SimConfig, grid: FrequencyGrid | None = None) -> BiphotonAmplitude:
    grid = grid_from_config(config) if grid is None else grid
    try:
        return compose_input_state(config.pump, config.phase_matching,
                                   config.signal_filter, config.idler_filter, grid)
    except ZeroStateError as exc:
        raise ConfigError(f"{exc}; check {_FACTOR_KEYS[exc.factor]} "
                          "against grid.center_nm, grid.span_nm and grid.points") from None
