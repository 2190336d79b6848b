import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biphoton_cavity import (
    BiphotonAmplitude,
    FrequencyGrid,
    build_grid,
    entropy_of,
    load_config,
    normalize,
    omega_from_wavelength,
    parse_config_text,
    schmidt_decompose,
)
from biphoton_cavity.grid import trapezoid_weights
from biphoton_cavity.pipeline import input_state_from_config
from conftest import entropy_oracle, make_input_state, transmitted_state
from test_acceptance import ORACLE_TOL, closed_form_entropy, gaussian_coefficients


def random_state(rng, n=32):
    grid = build_grid(685.0, 40.0, n)
    amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return BiphotonAmplitude(grid=grid, amplitude=amp)


def separable_state(n=48):
    grid = build_grid(685.0, 40.0, n)
    f = np.exp(-np.linspace(-2.0, 2.0, n) ** 2)
    g = np.exp(-np.linspace(-1.0, 3.0, n) ** 2) * np.exp(1j * np.linspace(0.0, 1.0, n))
    return BiphotonAmplitude(grid=grid, amplitude=np.outer(f, g))


def two_mode_state(n=48):
    """Exactly two equal Schmidt modes with disjoint support."""
    grid = build_grid(685.0, 40.0, n)
    amp = np.zeros((n, n), dtype=complex)
    w = 1.0 / np.sqrt(grid.signal_weights[0]) / np.sqrt(grid.idler_weights[0])
    amp[0, 0] = w / np.sqrt(2.0)
    amp[1, 1] = w / np.sqrt(2.0)
    return BiphotonAmplitude(grid=grid, amplitude=amp)


class TestNormalize:
    def test_idempotent(self):
        state = normalize(make_input_state(points=48))
        again = normalize(state)
        np.testing.assert_allclose(again.amplitude, state.amplitude, rtol=1e-12)

    def test_scale_invariant(self):
        state = make_input_state(points=48)
        scaled = BiphotonAmplitude(grid=state.grid, amplitude=7.0 * state.amplitude)
        np.testing.assert_allclose(
            normalize(scaled).amplitude, normalize(state).amplitude, rtol=1e-12
        )

    def test_unit_norm(self):
        state = normalize(make_input_state(points=48))
        axis = state.grid.signal_axis
        step = (axis[-1] - axis[0]) / (axis.size - 1)
        total = np.sum(np.abs(state.amplitude) ** 2) * step**2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_on_a_trapezoid_grid(self, rng):
        signal = np.sort(rng.uniform(2.6, 2.9, 40))
        idler = np.sort(rng.uniform(2.6, 2.9, 30))
        amp = rng.normal(size=(40, 30)) + 1j * rng.normal(size=(40, 30))
        state = normalize(BiphotonAmplitude(trapezoid_grid(signal, idler), amp))

        def panels(values, axis):  # the trapezoid rule, panel by panel, along the last axis
            return np.sum(0.5 * (values[..., 1:] + values[..., :-1]) * np.diff(axis), axis=-1)

        total = panels(panels(np.abs(state.amplitude) ** 2, idler), signal)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        grid = build_grid(685.0, 40.0, 8)
        zero = BiphotonAmplitude(grid=grid, amplitude=np.zeros((8, 8), dtype=complex))
        with pytest.raises(ValueError):
            normalize(zero)


class TestSchmidtDecompose:
    def test_separable_state_has_zero_entropy(self):
        spectrum = schmidt_decompose(normalize(separable_state()))
        assert spectrum.entropy == pytest.approx(0.0, abs=1e-9)
        assert spectrum.coefficients[0] == pytest.approx(1.0, abs=1e-9)
        assert spectrum.effective_modes == pytest.approx(1.0, abs=1e-6)

    def test_two_equal_modes_give_ln2(self):
        spectrum = schmidt_decompose(two_mode_state())
        assert spectrum.entropy == pytest.approx(np.log(2.0), abs=1e-9)
        assert spectrum.effective_modes == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(spectrum.coefficients[:2], np.sqrt(0.5), atol=1e-12)

    def test_coefficients_sorted_and_normalized(self, rng):
        for _ in range(5):
            spectrum = schmidt_decompose(normalize(random_state(rng)))
            coeffs = spectrum.coefficients
            assert np.all(coeffs[:-1] >= coeffs[1:])
            assert np.all(coeffs >= 0.0)
            assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-10)
            assert spectrum.effective_modes >= 1.0

    def test_any_scale_gives_the_normalized_spectrum(self):
        state = make_input_state(points=32)
        expected = schmidt_decompose(normalize(state))
        for scale in (1.001, 7.0, 1e-3):
            spectrum = schmidt_decompose(
                BiphotonAmplitude(grid=state.grid, amplitude=scale * state.amplitude)
            )
            np.testing.assert_allclose(spectrum.coefficients, expected.coefficients,
                                       rtol=1e-12, atol=1e-15)
            assert spectrum.entropy == pytest.approx(expected.entropy, abs=1e-14)
            assert spectrum.effective_modes == pytest.approx(expected.effective_modes, rel=1e-12)

    def test_all_zero_rejected(self):
        grid = build_grid(685.0, 40.0, 8)
        zero = BiphotonAmplitude(grid=grid, amplitude=np.zeros((8, 8), dtype=complex))
        for route in (schmidt_decompose, entropy_oracle):  # the oracle refuses it the same way
            with pytest.raises(ValueError, match="all-zero"):
                route(zero)


class TestEntropyOracle:
    def test_separable(self):
        assert entropy_oracle(normalize(separable_state())) == pytest.approx(0.0, abs=1e-9)

    def test_two_mode(self):
        assert entropy_oracle(two_mode_state()) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_matches_svd_on_random_states(self, rng):
        # the two decompositions are mathematically identical, at any scale
        worst = 0.0
        for _ in range(100):
            state = normalize(random_state(rng, n=32))
            for scale in (1.0, 1e3, 1e-3):
                scaled = BiphotonAmplitude(grid=state.grid, amplitude=scale * state.amplitude)
                gap = abs(entropy_oracle(scaled) - schmidt_decompose(scaled).entropy)
                worst = max(worst, gap)
        assert worst <= 1e-9

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_matches_svd_at_extreme_scales(self, rng, scale):
        # F F^dagger of the unscaled state overflows at 1e160 and underflows to 0 at 1e-170
        state = random_state(rng, n=8)
        for amp in (state.amplitude, state.amplitude.real):
            scaled = BiphotonAmplitude(grid=state.grid, amplitude=scale * amp)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gap = abs(entropy_oracle(scaled) - schmidt_decompose(scaled).entropy)
            assert gap <= 1e-9


class TestEntropyInvariances:
    def test_global_phase_and_scale(self, rng):
        state = random_state(rng)
        rotated = BiphotonAmplitude(
            grid=state.grid, amplitude=state.amplitude * (3.7 * np.exp(1.3j))
        )
        assert entropy_of(rotated) == pytest.approx(entropy_of(state), abs=1e-10)

    def test_diagonal_unitary_factors(self, rng):
        state = random_state(rng)
        n = state.grid.n_idler
        col_phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        row_phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        twisted = BiphotonAmplitude(
            grid=state.grid,
            amplitude=row_phases[:, None] * state.amplitude * col_phases[None, :],
        )
        assert entropy_of(twisted) == pytest.approx(entropy_of(state), abs=1e-9)

    def test_transpose(self, rng):
        state = random_state(rng)
        swapped = BiphotonAmplitude(grid=state.grid, amplitude=state.amplitude.T.copy())
        assert entropy_of(swapped) == pytest.approx(entropy_of(state), abs=1e-10)


class TestEntropyDelta:
    def test_identical_states(self):
        state = make_input_state(points=48)
        assert entropy_of(state) - entropy_of(state) == pytest.approx(0.0, abs=1e-12)

    def test_scaling_cancels(self):
        state = make_input_state(points=48)
        scaled = BiphotonAmplitude(grid=state.grid, amplitude=0.125 * state.amplitude)
        assert entropy_of(scaled) - entropy_of(state) == pytest.approx(0.0, abs=1e-12)


class TestGridStability:
    def test_entropy_stable_under_refinement(self):
        coarse = entropy_of(make_input_state(points=96))
        fine = entropy_of(make_input_state(points=192))
        assert abs(fine - coarse) < 1e-3


def trapezoid_grid(signal, idler):
    return FrequencyGrid(signal, idler, trapezoid_weights(signal), trapezoid_weights(idler))


def sampled_entropy(signal, idler, amplitude):
    """entropy_of on the trapezoid-weighted grid of the axes: the route of measured maps."""
    return entropy_of(BiphotonAmplitude(trapezoid_grid(signal, idler), amplitude))


class TestEntropyOfSamples:
    def test_matches_uniform_grid_path(self):
        state = normalize(make_input_state(points=64))
        uniform = schmidt_decompose(state).entropy
        sampled = sampled_entropy(state.grid.signal_axis, state.grid.idler_axis, state.amplitude)
        # trapezoid vs rectangle weights differ only at the (filtered-out) edges
        assert sampled == pytest.approx(uniform, abs=1e-6)

    def test_separable_on_nonuniform_axes(self):
        axis = np.sort(np.concatenate([np.linspace(2.6, 2.8, 20), [2.61, 2.73]]))
        amp = np.outer(np.exp(-np.linspace(-1, 1, 22) ** 2), np.ones(22)).astype(complex)
        assert sampled_entropy(axis, axis, amp) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scale_far_from_one_keeps_entropy(self, scale):
        """On 3-point axes with trapezoid weights w, the diagonal's Schmidt weights are
        w**2 / sum(w**2), also where the squared singular values over- or underflow."""
        axis = omega_from_wavelength(np.array([700.0, 695.0, 690.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entropy = sampled_entropy(axis, axis, scale * np.eye(3, dtype=complex))
        p = trapezoid_weights(axis) ** 2 / np.sum(trapezoid_weights(axis) ** 2)
        assert entropy == pytest.approx(-np.sum(p * np.log(p)), abs=1e-12)

    @pytest.mark.parametrize("exponent", [1023, -1060])
    def test_weighted_map_at_the_float_limits(self, rng, exponent):
        """The copy that is weighted is scaled first: a map near the largest float
        does not overflow, and a map of few-bit subnormals loses none of its bits."""
        axis = omega_from_wavelength(np.array([700.0, 695.0, 690.0]))
        amp = np.ldexp(rng.uniform(0.5, 1.0, (3, 3)), exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entropy = sampled_entropy(axis, axis, amp)
        assert entropy == sampled_entropy(axis, axis, np.ldexp(amp, -exponent))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_entropy_of_state_far_from_unit_scale(self, scale):
        """entropy_of works where |F|**2 over- or underflows."""
        state = make_input_state(points=64)
        scaled = BiphotonAmplitude(grid=state.grid, amplitude=scale * state.amplitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entropy = entropy_of(scaled)
        assert entropy == pytest.approx(entropy_of(state), abs=1e-15)

    def test_descending_axes_give_the_mirrored_map_entropy(self, rng):
        signal = np.sort(rng.uniform(2.6, 2.8, 7))
        idler = np.sort(rng.uniform(2.6, 2.8, 6))
        amp = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
        ascending = sampled_entropy(signal, idler, amp)
        for mirrored in (sampled_entropy(signal[::-1], idler, amp[::-1]),
                         sampled_entropy(signal, idler[::-1], amp[:, ::-1])):
            assert mirrored == pytest.approx(ascending, abs=1e-12)

    def test_rejects_bad_axes(self):
        axis = np.array([1.0, 0.9, 1.2])
        with pytest.raises(ValueError):
            sampled_entropy(axis, axis, np.ones((3, 3), dtype=complex))


def test_equal_weights_add_no_copy_of_the_amplitude():
    """On a build_grid grid the SVD takes the amplitude as it is: no weighted copy
    is traced.  LAPACK's own work buffers are not allocated through Python."""
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.cfg")
    state = transmitted_state(config)
    tracemalloc.start()
    try:
        schmidt_decompose(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * state.amplitude.nbytes


@pytest.mark.parametrize("points", [2, 3, 64])
@pytest.mark.parametrize("exponent", [1023, -1060])
def test_equal_weights_at_the_float_limits_give_the_unit_scale_entropy(rng, points, exponent):
    """On a build_grid grid an amplitude near the largest float is decomposed
    without its singular values overflowing, and one of subnormals without
    losing bits: each is scaled first.  Entries of 14 bits below 2 are exact
    at both scales; two of them in one row are the largest, so the largest
    singular value of the map at 2**1023 exceeds the largest float."""
    grid = build_grid(685.0, 40.0, points)
    parts = rng.integers(1 - 2**14, 2**14, (2, points, points)) / 2.0**13
    parts[:, 0, :2] = 2.0 - 2.0**-13
    for amp in (parts[0], parts[0] + 1j * parts[1]):
        unit = entropy_of(BiphotonAmplitude(grid, amp))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entropy = entropy_of(BiphotonAmplitude(grid, np.ldexp(amp.view(float), exponent)
                                                   .view(amp.dtype)))
        assert entropy == pytest.approx(unit, abs=1e-12)


def boundary_mass(state):
    """Share of |F|^2 on the outermost rows and columns of the grid."""
    p = np.abs(state.amplitude) ** 2
    edge = p[[0, -1], :].sum() + p[1:-1, [0, -1]].sum()
    return float(edge / p.sum())


class TestClosedFormProperty:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(convention=st.sampled_from(["at_degeneracy", "at_pump"]), pump_nm=st.floats(2.0, 10.0),
           pm_nm=st.none() | st.floats(2.0, 20.0),
           signal=st.tuples(st.floats(682.0, 688.0), st.floats(4.0, 10.0)),
           idler=st.tuples(st.floats(682.0, 688.0), st.floats(4.0, 10.0)),
           points=st.sampled_from([128, 192, 256]))
    def test_input_entropy_matches_closed_form(self, convention, pump_nm, pm_nm, signal, idler,
                                               points):
        """Law, Walmsley & Eberly, PRL 84, 5304 (2000), on any resolved Gaussian state:
        either pump convention, flat or gaussian phase matching, unequal and off-centre
        filters."""
        config = parse_config_text(
            f"grid.points = {points}\npump.bandwidth_nm = {pump_nm!r}\n"
            f"pump.bandwidth_convention = {convention}\n"
            + ("" if pm_nm is None else
               f"phase_matching.kind = gaussian\nphase_matching.width_nm = {pm_nm!r}\n")
            + f"filters.signal.center_nm = {signal[0]!r}\nfilters.signal.fwhm_nm = {signal[1]!r}\n"
            f"filters.idler.center_nm = {idler[0]!r}\nfilters.idler.fwhm_nm = {idler[1]!r}\n")
        state = input_state_from_config(config)
        assume(boundary_mass(state) <= 1e-12)
        expected = closed_form_entropy(*gaussian_coefficients(
            convention, pump_nm, pm_nm=pm_nm, signal_filter=signal, idler_filter=idler))
        assert abs(entropy_of(state) - expected) < ORACLE_TOL
