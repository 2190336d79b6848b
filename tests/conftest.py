import numpy as np
import pytest

from biphoton_cavity import (
    FilterSpec,
    PhaseMatchingSpec,
    PumpSpec,
    apply_idler_transfer,
    build_grid,
    compose_input_state,
    transfer_for,
)
from biphoton_cavity.pipeline import (
    cavity_model_from_config,
    grid_from_config,
    input_state_from_config,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def make_input_state(points=96, span_nm=40.0, pump_nm=6.0, filter_nm=8.0,
                     convention="at_degeneracy"):
    """Reference-configuration input state on a reduced grid, for fast unit tests."""
    grid = build_grid(685.0, span_nm, points)
    pump = PumpSpec(685.0, pump_nm, bandwidth_convention=convention)
    filt = FilterSpec(685.0, filter_nm)
    return compose_input_state(pump, PhaseMatchingSpec("flat"), filt, filt, grid)


def transmitted_state(config, model=None):
    """The config's input state with its idler through `model` (default: the configured cavity)."""
    grid = grid_from_config(config)
    model = cavity_model_from_config(config) if model is None else model
    curve = transfer_for(model, grid.idler_axis)
    return apply_idler_transfer(input_state_from_config(config, grid), curve)
