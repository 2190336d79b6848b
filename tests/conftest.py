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
from biphoton_cavity.pipeline import grid_from_config, input_state_from_config


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def entropy_oracle(state) -> float:
    """Entanglement entropy in nats by the reduced density matrix, sharing no code with
    the package's SVD route.

    Builds rho_s = F F^dagger from F over its largest modulus, so that no scale
    over- or underflows, divides it by its trace and returns -sum(p ln p) over
    its positive eigenvalues above 1e-24 of the largest, the package's cutoff.
    """
    largest = np.abs(state.amplitude).max()
    if largest == 0.0:
        raise ValueError("cannot compute entropy of an all-zero amplitude")
    scaled = state.amplitude / largest
    rho = scaled @ scaled.conj().T
    p = np.linalg.eigvalsh(rho / np.trace(rho).real)
    p = p[p > 0.0]
    p = p[p > 1e-24 * p.max()]
    return 0.0 - float(np.sum(p * np.log(p)))  # +0.0, not -0.0, for a separable state


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
    model = config.cavity.model() if model is None else model
    curve = transfer_for(model, grid.idler_axis)
    return apply_idler_transfer(input_state_from_config(config, grid), curve)
