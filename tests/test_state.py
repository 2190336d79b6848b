import tracemalloc
import warnings

import numpy as np
import pytest

from biphoton_cavity import (
    BiphotonAmplitude,
    CavityModel,
    FilterSpec,
    FrequencyGrid,
    PhaseMatchingSpec,
    PumpSpec,
    TransferCurve,
    apply_idler_transfer,
    build_grid,
    compose_input_state,
    detection_filter_profile,
    normalize,
    omega_from_wavelength,
    parse_config_text,
    phase_matching_envelope,
    pump_envelope,
    transfer_for,
)
from biphoton_cavity.pipeline import grid_from_config, input_state_from_config
from conftest import entropy_oracle, make_input_state

# half of bandwidth_nm_to_rad_fs(6, 342.5), oracle-computed
HALF_PUMP_WIDTH_AT_PUMP = 0.04817266515574882
# bandwidth_nm_to_rad_fs(8, 685)
FILTER_WIDTH = 0.03211511010383255


def _grid_around(center_omega, half_width, n=5):
    axis = np.linspace(center_omega - half_width, center_omega + half_width, n)
    return FrequencyGrid(signal_axis=axis, idler_axis=axis.copy())


class TestPumpEnvelope:
    def test_peak_on_antidiagonal(self):
        pump = PumpSpec(685.0, 6.0, bandwidth_convention="at_pump")
        grid = _grid_around(pump.sum_frequency / 2.0, 0.02, n=5)
        env = pump_envelope(pump, grid)
        # entries (i, n-1-i) all have omega_s + omega_i = omega_p
        n = grid.n_signal
        for i in range(n):
            assert env[i, n - 1 - i] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(env)) <= 1.0 + 1e-15

    def test_symmetric_under_axis_swap(self):
        pump = PumpSpec(685.0, 6.0)
        grid = build_grid(685.0, 40.0, 64)
        env = pump_envelope(pump, grid)
        np.testing.assert_array_equal(env, env.T)

    def test_half_intensity_point_at_pump_convention(self):
        pump = PumpSpec(685.0, 6.0, bandwidth_convention="at_pump")
        half_omega = pump.sum_frequency / 2.0
        grid = _grid_around(half_omega, HALF_PUMP_WIDTH_AT_PUMP, n=3)
        env = pump_envelope(pump, grid)
        # entry (1, 2): omega_s + omega_i - omega_p = +half width
        assert np.abs(env[1, 2]) ** 2 == pytest.approx(0.5, abs=1e-9)
        assert np.abs(env[0, 1]) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            PumpSpec(-685.0, 6.0)
        with pytest.raises(ValueError):
            PumpSpec(685.0, 0.0)
        with pytest.raises(ValueError):
            PumpSpec(685.0, 6.0, bandwidth_convention="at_nowhere")


class TestPhaseMatchingEnvelope:
    def test_flat_is_all_ones(self):
        grid = build_grid(685.0, 40.0, 32)
        env = phase_matching_envelope(PhaseMatchingSpec("flat"), grid)
        np.testing.assert_array_equal(env, np.ones((32, 32), dtype=complex))

    def test_gaussian_peaks_on_diagonal(self):
        grid = build_grid(685.0, 40.0, 33)
        env = phase_matching_envelope(PhaseMatchingSpec("gaussian", width_nm=5.0), grid)
        assert np.all(np.abs(np.diagonal(env) - 1.0) < 1e-14)

    def test_gaussian_symmetric_under_swap(self):
        grid = build_grid(685.0, 40.0, 32)
        env = phase_matching_envelope(PhaseMatchingSpec("gaussian", width_nm=5.0), grid)
        np.testing.assert_allclose(env, env.T, rtol=0.0, atol=1e-16)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            PhaseMatchingSpec("gaussian", width_nm=0.0)
        with pytest.raises(ValueError):
            PhaseMatchingSpec("gaussian")


class TestFlatPhaseMatchingTakesNoWidth:
    @pytest.mark.parametrize("width", [5.0, 1e300])
    def test_width_refused(self, width):
        with pytest.raises(ValueError, match="flat phase matching reads no width_nm"):
            PhaseMatchingSpec("flat", width_nm=width)


class TestSpecsRefuseNonFinite:
    """NaN passes every `<=` test, so each spec checks finiteness itself."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build, message", [
        (lambda v: PumpSpec(v, 6.0), "pump center wavelength and bandwidth must be finite"),
        (lambda v: PumpSpec(685.0, v), "pump center wavelength and bandwidth must be finite"),
        (lambda v: FilterSpec(v, 8.0), "filter center wavelength and bandwidth must be finite"),
        (lambda v: FilterSpec(685.0, v), "filter center wavelength and bandwidth must be finite"),
        (lambda v: PhaseMatchingSpec("gaussian", v), "requires a finite, positive width_nm"),
    ], ids=["pump center", "pump bandwidth", "filter center", "filter fwhm", "pm width"])
    def test_each_field(self, build, message, bad):
        with pytest.raises(ValueError, match=message):
            build(bad)


class TestSpecsRefuseUnconvertibleValues:
    """A spec evaluates the unit conversions it later uses, so a value they refuse fails here."""

    @pytest.mark.parametrize("build", [
        lambda: PumpSpec(1e300, 6.0),
        lambda: PumpSpec(1.7e308, 6.0, bandwidth_convention="at_pump"),
        lambda: FilterSpec(1e300, 8.0),
        lambda: FilterSpec(1.7e308, 8.0),
        lambda: FilterSpec(1e-320, 8.0),
        lambda: FilterSpec(5e-324, 8.0),
        lambda: FilterSpec(685.0, 1.7e308),
    ])
    def test_construction_fails(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                build()


class TestDetectionFilterProfile:
    def test_center_value(self):
        filt = FilterSpec(685.0, 8.0)
        center = omega_from_wavelength(685.0)
        assert detection_filter_profile(filt, np.array([center]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_even_about_center(self):
        filt = FilterSpec(685.0, 8.0)
        center = omega_from_wavelength(685.0)
        deltas = np.linspace(0.001, 0.05, 17)
        up = detection_filter_profile(filt, center + deltas)
        down = detection_filter_profile(filt, center - deltas)
        np.testing.assert_allclose(up, down, rtol=1e-14)

    def test_half_maximum_at_half_fwhm(self):
        filt = FilterSpec(685.0, 8.0)
        center = omega_from_wavelength(685.0)
        g = detection_filter_profile(filt, np.array([center + FILTER_WIDTH / 2.0]))
        assert g[0] == pytest.approx(0.5, abs=1e-9)


class TestComposeInputState:
    def test_swapping_identical_filters_leaves_state_unchanged(self):
        grid = build_grid(685.0, 40.0, 48)
        pump = PumpSpec(685.0, 6.0)
        pm = PhaseMatchingSpec("flat")
        f1 = FilterSpec(685.0, 8.0)
        f2 = FilterSpec(685.0, 8.0)
        a = compose_input_state(pump, pm, f1, f2, grid).amplitude
        b = compose_input_state(pump, pm, f2, f1, grid).amplitude
        np.testing.assert_array_equal(a, b)

    def test_config_sections_are_the_specs(self):
        config = parse_config_text(
            "grid.points = 48\npump.bandwidth_nm = 4\npump.bandwidth_convention = at_pump\n"
            "phase_matching.kind = gaussian\nphase_matching.width_nm = 12\n"
            "filters.signal.center_nm = 684\nfilters.idler.fwhm_nm = 7\n"
        )
        grid = grid_from_config(config)
        state = compose_input_state(
            config.pump, config.phase_matching, config.signal_filter, config.idler_filter, grid
        )
        expected = input_state_from_config(config, grid)
        assert state.amplitude.tobytes() == expected.amplitude.tobytes()

    def test_real_nonnegative_under_defaults(self):
        state = make_input_state(points=48)
        assert state.amplitude.dtype == np.float64
        assert np.all(state.amplitude >= 0.0)

    def test_broad_pump_narrow_filters_nearly_separable(self):
        # product-form limit, checked with the reduced-density-matrix oracle
        grid = build_grid(685.0, 40.0, 96)
        pump = PumpSpec(685.0, 100.0, bandwidth_convention="at_degeneracy")
        filt = FilterSpec(685.0, 2.0)
        state = compose_input_state(pump, PhaseMatchingSpec("flat"), filt, filt, grid)
        assert entropy_oracle(normalize(state)) < 0.05

    def test_flat_pm_depends_only_on_sum_and_filter_coordinates(self):
        state = make_input_state(points=48)
        grid = state.grid
        gs = detection_filter_profile(FilterSpec(685.0, 8.0), grid.signal_axis)
        gi = detection_filter_profile(FilterSpec(685.0, 8.0), grid.idler_axis)
        core = state.amplitude.real / np.outer(gs, gi)
        # (i+1, j-1) has the same omega_s + omega_i as (i, j) on a uniform grid
        np.testing.assert_allclose(core[1:, :-1], core[:-1, 1:], rtol=1e-10)


class TestDtypeContract:
    """Input states are float64; the idler transfer is the step that makes them complex128."""

    def test_input_state_is_real_until_the_idler_transfer(self):
        config = parse_config_text("grid.points = 48\nphase_matching.kind = gaussian\n"
                                   "phase_matching.width_nm = 12\n")
        grid = grid_from_config(config)
        for state in (make_input_state(points=48), input_state_from_config(config, grid)):
            assert state.amplitude.dtype == np.float64
            curve = transfer_for(CavityModel("two_sided", omega_from_wavelength(685.0), 1 / 150.0),
                                 state.grid.idler_axis)
            assert apply_idler_transfer(state, curve).amplitude.dtype == np.complex128

    def test_fitting_array_is_taken_over_read_only(self):
        grid = build_grid(685.0, 40.0, 2)
        given = np.eye(2)
        state = BiphotonAmplitude(grid, given)
        assert state.amplitude is given and not given.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            given[0, 0] = 2.0
        fortran = np.asfortranarray(np.arange(4.0).reshape(2, 2))
        assert BiphotonAmplitude(grid, fortran).amplitude is not fortran
        assert fortran.flags.writeable

    def test_apply_allocates_its_result_once(self):
        state = make_input_state(points=512)
        curve = TransferCurve(axis=state.grid.idler_axis, values=np.full(512, 0.5 + 0.5j))
        result_bytes = 512 * 512 * 16
        tracemalloc.start()
        try:
            out = apply_idler_transfer(state, curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.amplitude.nbytes == result_bytes
        assert result_bytes <= peak < 1.25 * result_bytes  # a copy in the state would double it

    def test_amplitude_keeps_its_kind(self):
        grid = build_grid(685.0, 40.0, 2)
        assert BiphotonAmplitude(grid, [[1, 0], [0, 1]]).amplitude.dtype == np.float64
        zero_imag = np.eye(2, dtype=np.complex64)
        assert BiphotonAmplitude(grid, zero_imag).amplitude.dtype == np.complex128


class TestApplyIdlerTransfer:
    def test_identity_transfer_is_bit_exact(self):
        state = make_input_state(points=32)
        curve = TransferCurve(axis=state.grid.idler_axis, values=np.ones(32, dtype=complex))
        out = apply_idler_transfer(state, curve)
        np.testing.assert_array_equal(out.amplitude, state.amplitude)

    def test_scalar_half_transfer(self):
        state = make_input_state(points=32)
        curve = TransferCurve(axis=state.grid.idler_axis, values=np.full(32, 0.5 + 0j))
        out = apply_idler_transfer(state, curve)
        np.testing.assert_array_equal(out.amplitude, 0.5 * state.amplitude)
        np.testing.assert_allclose(np.abs(out.amplitude) ** 2, 0.25 * np.abs(state.amplitude) ** 2,
                                   rtol=1e-15)

    def test_axis_mismatch_rejected(self):
        state = make_input_state(points=32)
        other = build_grid(685.0, 30.0, 32)
        curve = TransferCurve(axis=other.idler_axis, values=np.ones(32, dtype=complex))
        with pytest.raises(ValueError):
            apply_idler_transfer(state, curve)

    def test_all_pass_leaves_jsi_unchanged(self):
        state = make_input_state(points=64)
        model = CavityModel(kind="one_sided", omega_0=omega_from_wavelength(685.0), gamma=1.0 / 150.0)
        curve = transfer_for(model, state.grid.idler_axis)
        out = apply_idler_transfer(state, curve)
        before, after = np.abs(state.amplitude) ** 2, np.abs(out.amplitude) ** 2
        scale = np.max(before)
        assert np.max(np.abs(after - before)) <= 1e-12 * scale

    def test_signal_filtering_commutes_with_idler_transfer(self, rng):
        state = make_input_state(points=48)
        gs = detection_filter_profile(FilterSpec(683.0, 5.0), state.grid.signal_axis)
        values = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 48)) * rng.uniform(0.1, 1.0, 48)
        curve = TransferCurve(axis=state.grid.idler_axis, values=values)
        a = apply_idler_transfer(
            type(state)(grid=state.grid, amplitude=state.amplitude * gs[:, None]), curve
        ).amplitude
        b = apply_idler_transfer(state, curve).amplitude * gs[:, None]
        np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)


class TestJsi:
    def test_real_entry(self):
        grid = build_grid(685.0, 40.0, 2)
        amp = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        state = make_input_state(points=2)
        state = type(state)(grid=grid, amplitude=amp)
        assert abs(state.amplitude[0, 0]) ** 2 == 1.0

    def test_imaginary_entry(self):
        grid = build_grid(685.0, 40.0, 2)
        amp = np.array([[0.3j, 0.0], [0.0, 0.0]], dtype=complex)
        state = make_input_state(points=2)
        state = type(state)(grid=grid, amplitude=amp)
        assert abs(state.amplitude[0, 0]) ** 2 == pytest.approx(0.09, rel=1e-15)

    def test_global_phase_invariance(self):
        state = make_input_state(points=32)
        rotated = type(state)(grid=state.grid, amplitude=state.amplitude * np.exp(0.7j))
        np.testing.assert_allclose(np.abs(rotated.amplitude) ** 2, np.abs(state.amplitude) ** 2,
                                   rtol=1e-12)
