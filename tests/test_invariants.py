"""Invariants that every entropy route must keep; none needs a reference number.

A route maps (grid, amplitude) to the entanglement entropy in nats:
entropy_of (dense SVD), entropy_oracle (reduced density matrix) and
entropy_of_samples (trapezoid-weighted SVD, the route of measured maps).
Each route is checked against itself on transformed states:

- idler phase: S(F diag C) = S(F diag |C|), since a diagonal unitary on one
  photon leaves the singular values alone;
- signal/idler swap: S(F) = S(F^T) on the swapped grid;
- scale: S(2^k F) = S(F);
- the one-sided (all-pass) cavity leaves S unchanged;

and the routes are checked against each other on the same state.  States,
grids (64 points or fewer a side) and curves (|C| <= 1: random, and the three
cavity kinds) are drawn by hypothesis.  The mirror symmetry about the emitter
is checked on the reference grid, where it holds only as far as the idler
axis resolves the emitter's notch.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cavity import (
    BiphotonAmplitude,
    CavityModel,
    FrequencyGrid,
    entropy_of,
    load_config,
    transfer_for,
)
from biphoton_cavity.config import apply_overrides
from biphoton_cavity.pipeline import grid_from_config, input_state_from_config
from biphoton_cavity.schmidt import entropy_of_samples
from conftest import entropy_oracle

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"

ROUTES = {
    "entropy_of": lambda grid, amplitude: entropy_of(BiphotonAmplitude(grid, amplitude)),
    "entropy_oracle": lambda grid, amplitude: entropy_oracle(BiphotonAmplitude(grid, amplitude)),
    "entropy_of_samples": lambda grid, amplitude: entropy_of_samples(
        grid.signal_axis, grid.idler_axis, amplitude),
}
# The SVD routes keep every Schmidt weight to a relative 1e-16; the density
# matrix has eigenvalue noise near 1e-16 of its largest, whose p ln p terms
# sum to about 1e-13 nats at 512 points.
TOLERANCE = {"entropy_of": 1e-13, "entropy_oracle": 1e-11, "entropy_of_samples": 1e-13}


def make_case(n_signal, n_idler, seed, amplitude_kind, curve_kind):
    """A grid, a real non-negative amplitude on it, and idler transfer values with |C| <= 1."""
    rng = np.random.default_rng(seed)
    signal = np.linspace(2.70, 2.70 + rng.uniform(0.02, 0.2), n_signal)
    idler = np.linspace(2.72, 2.72 + rng.uniform(0.02, 0.2), n_idler)
    grid = FrequencyGrid(signal, idler)
    ws, wi = signal[:, None], idler[None, :]
    if amplitude_kind == "random":
        amplitude = rng.random((n_signal, n_idler))
    elif amplitude_kind == "low_rank":
        amplitude = rng.random((n_signal, 3)) @ rng.random((3, n_idler))
    else:  # a pump ridge along omega_s + omega_i under Gaussian filters, as in the input states
        pump, filt = rng.uniform(0.005, 0.05), rng.uniform(0.02, 0.1)
        center_s, center_i = rng.uniform(signal[0], signal[-1]), rng.uniform(idler[0], idler[-1])
        amplitude = (np.exp(-((ws + wi - center_s - center_i) ** 2) / (4.0 * pump**2))
                     * np.exp(-((ws - center_s) ** 2) / filt**2)
                     * np.exp(-((wi - center_i) ** 2) / filt**2))
    if curve_kind == "random":
        values = rng.uniform(0.0, 1.0, n_idler) * np.exp(1j * rng.uniform(-np.pi, np.pi, n_idler))
    else:
        omega_0, omega_e = rng.uniform(idler[0], idler[-1], size=2)
        model = CavityModel(curve_kind, omega_0, rng.uniform(0.002, 0.05),
                            lambda_c=rng.uniform(0.0, 0.05), omega_e=omega_e)
        values = transfer_for(model, idler).values
    return grid, amplitude, values


cases = st.builds(make_case, st.integers(2, 64), st.integers(2, 64), st.integers(0, 2**32 - 1),
                  st.sampled_from(("random", "low_rank", "ridge")),
                  st.sampled_from(("random", "one_sided", "two_sided", "dicke")))


@pytest.mark.parametrize("name", ROUTES)
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=cases, k=st.integers(-900, 900))
def test_route_keeps_the_invariants(name, case, k):
    route, tol = ROUTES[name], TOLERANCE[name]
    grid, amplitude, values = case
    output = amplitude * values
    entropy = route(grid, output)
    assert abs(route(grid, amplitude * np.abs(values)) - entropy) <= tol
    assert abs(route(FrequencyGrid(grid.idler_axis, grid.signal_axis), output.T) - entropy) <= tol
    assert abs(route(grid, np.ldexp(1.0, k) * output) - entropy) <= tol
    all_pass = CavityModel("one_sided", float(grid.idler_axis.mean()), 50.0 * grid.idler_step)
    assert abs(route(grid, amplitude * transfer_for(all_pass, grid.idler_axis).values)
               - route(grid, amplitude)) <= tol


def _trapezoid_root_weights(axis):
    """Square roots of the trapezoid-rule weights of a strictly monotone axis."""
    steps = np.abs(np.diff(axis))
    return np.sqrt(np.append(steps, 0.0) + np.insert(steps, 0, 0.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=cases, seed=st.integers(0, 2**32 - 1), flips=st.tuples(st.booleans(), st.booleans()))
def test_routes_agree(case, seed, flips):
    grid, amplitude, values = case
    output = amplitude * values
    assert (abs(ROUTES["entropy_oracle"](grid, output) - ROUTES["entropy_of"](grid, output))
            <= TOLERANCE["entropy_oracle"])
    # on axes that are not uniform, and run either way, the sampled route is
    # the dense route on the amplitude times the square roots of the weights
    rng = np.random.default_rng(seed)
    axes = [np.sort(rng.uniform(2.6, 2.9, size)) for size in output.shape]
    axes = [axis[::-1] if flip else axis for axis, flip in zip(axes, flips)]
    weighted = (output * _trapezoid_root_weights(axes[0])[:, None]
                * _trapezoid_root_weights(axes[1])[None, :])
    assert abs(entropy_of_samples(*axes, output) - ROUTES["entropy_of"](grid, weighted)) <= 1e-13


@pytest.fixture(scope="module")
def reference():
    config = load_config(REFERENCE_CFG)
    grid = grid_from_config(config)
    return config, grid, input_state_from_config(config, grid).amplitude


@pytest.mark.parametrize("detuning_nm", [
    2.0,
    pytest.param(4.0, marks=pytest.mark.xfail(strict=True, reason=(
        "the 512-point idler axis gives the emitter's notch about two samples at 4 nm: "
        "Delta S is -0.003030735 at +4 nm and -0.003076014 at -4 nm, a 4.5e-5-nat gap"))),
])
@pytest.mark.parametrize("name", ROUTES)
def test_mirror_about_the_emitter(reference, name, detuning_nm):
    config, grid, amplitude = reference
    dicke = apply_overrides(config, ["kind=dicke"])
    entropies = [
        ROUTES[name](grid, amplitude * transfer_for(
            dicke.cavity.model(coupling_ratio=0.5, detuning_nm=sign),
            grid.idler_axis).values)
        for sign in (detuning_nm, -detuning_nm)
    ]
    assert abs(entropies[0] - entropies[1]) < 1e-6
