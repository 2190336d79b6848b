import warnings

import numpy as np
import pytest

from biphoton_cavity import (
    C_NM_PER_FS,
    FrequencyGrid,
    bandwidth_nm_to_rad_fs,
    build_grid,
    omega_from_wavelength,
    wavelength_from_omega,
)

TWO_PI_C = 2.0 * np.pi * C_NM_PER_FS


class TestOmegaFromWavelength:
    def test_center_685(self):
        # 2*pi*299.792458/685, hand-checked
        assert omega_from_wavelength(685.0) == pytest.approx(2.7498563026406617, abs=1e-12)
        assert omega_from_wavelength(685.0) == pytest.approx(2.749857, abs=1e-5)

    def test_definition_of_c(self):
        assert omega_from_wavelength(TWO_PI_C) == pytest.approx(1.0, rel=1e-15)

    def test_halving_wavelength_doubles_omega(self):
        assert omega_from_wavelength(342.5) == pytest.approx(
            2.0 * omega_from_wavelength(685.0), rel=1e-15
        )
        assert omega_from_wavelength(342.5) == pytest.approx(5.499714, abs=1e-5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            omega_from_wavelength(bad)

    def test_strictly_decreasing(self, rng):
        lams = np.sort(rng.uniform(300.0, 1100.0, 200))
        omegas = omega_from_wavelength(lams)
        assert np.all(np.diff(omegas) < 0.0)


class TestWavelengthFromOmega:
    def test_inverse_of_center_685(self):
        assert wavelength_from_omega(2.7498563026406617) == pytest.approx(685.0, abs=1e-3)

    def test_unit_omega(self):
        assert wavelength_from_omega(1.0) == pytest.approx(TWO_PI_C, rel=1e-15)

    def test_round_trip(self, rng):
        lams = rng.uniform(300.0, 1100.0, 1000)
        back = wavelength_from_omega(omega_from_wavelength(lams))
        assert np.max(np.abs(back - lams) / lams) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            wavelength_from_omega(bad)


@pytest.mark.parametrize("convert, message", [
    (omega_from_wavelength, "wavelength must be finite and positive, with a finite frequency"),
    (wavelength_from_omega, "angular frequency must be finite and positive, with a finite "
                            "wavelength"),
])
@pytest.mark.parametrize("tiny", [1e-320, np.array([1.0, 1e-320])])
def test_overflowing_reciprocal_is_refused_without_a_warning(convert, message, tiny):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            convert(tiny)


class TestBandwidthConversion:
    def test_filter_bandwidth(self):
        # 2*pi*299.792458*8/685^2
        assert bandwidth_nm_to_rad_fs(8.0, 685.0) == pytest.approx(0.03211511010383255, abs=1e-12)
        assert bandwidth_nm_to_rad_fs(8.0, 685.0) == pytest.approx(0.032116, abs=1e-5)

    def test_pump_bandwidth(self):
        assert bandwidth_nm_to_rad_fs(6.0, 342.5) == pytest.approx(0.09634533031149764, abs=1e-12)
        assert bandwidth_nm_to_rad_fs(6.0, 342.5) == pytest.approx(0.096349, abs=1e-5)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            bandwidth_nm_to_rad_fs(0.0, 685.0)
        with pytest.raises(ValueError):
            bandwidth_nm_to_rad_fs(8.0, -685.0)

    @pytest.mark.parametrize("fwhm, center", [
        (8.0, 1e300), (8.0, 1.7e308), (8.0, 1e-200), (1.7e308, 685.0), (1e-300, 1e200),
    ])
    def test_width_outside_the_float_range_is_refused_without_a_warning(self, fwhm, center):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rad/fs"):
                bandwidth_nm_to_rad_fs(fwhm, center)

    def test_linear_in_fwhm(self, rng):
        base = bandwidth_nm_to_rad_fs(1.0, 685.0)
        for f in rng.uniform(0.1, 30.0, 50):
            assert bandwidth_nm_to_rad_fs(f, 685.0) == pytest.approx(f * base, rel=1e-12)


class TestBuildGrid:
    def test_default_endpoints(self):
        grid = build_grid(685.0, 40.0, 512)
        assert grid.n_signal == grid.n_idler == 512
        assert grid.signal_axis[0] == pytest.approx(omega_from_wavelength(705.0), rel=1e-15)
        assert grid.signal_axis[-1] == pytest.approx(omega_from_wavelength(665.0), rel=1e-15)

    def test_two_point_grid(self):
        grid = build_grid(685.0, 40.0, 2)
        assert grid.n_signal == 2
        np.testing.assert_allclose(
            grid.idler_axis,
            [omega_from_wavelength(705.0), omega_from_wavelength(665.0)],
            rtol=1e-15,
        )

    def test_uniform_spacing(self):
        grid = build_grid(685.0, 40.0, 513)
        steps = np.diff(grid.signal_axis)
        assert steps.max() - steps.min() <= 1e-12 * grid.signal_axis.max()

    def test_deterministic(self):
        a = build_grid(685.0, 40.0, 128)
        b = build_grid(685.0, 40.0, 128)
        assert np.array_equal(a.signal_axis, b.signal_axis)
        assert np.array_equal(a.idler_axis, b.idler_axis)

    @pytest.mark.parametrize("args", [(685.0, 40.0, 1), (685.0, 0.0, 64), (685.0, -5.0, 64),
                                      (10.0, 40.0, 64)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            build_grid(*args)

    def test_measure(self):
        grid = build_grid(685.0, 40.0, 64)
        assert grid.measure == pytest.approx(grid.signal_step * grid.idler_step, rel=1e-15)


class TestFrequencyGridInvariants:
    def test_rejects_decreasing_axis(self):
        good = np.linspace(1.0, 2.0, 8)
        with pytest.raises(ValueError):
            FrequencyGrid(signal_axis=good[::-1].copy(), idler_axis=good)

    def test_rejects_nonuniform_axis(self):
        bad = np.array([1.0, 1.1, 1.3, 1.4])
        with pytest.raises(ValueError):
            FrequencyGrid(signal_axis=bad, idler_axis=bad)

    def test_rejects_negative_values(self):
        bad = np.linspace(-1.0, 1.0, 8)
        with pytest.raises(ValueError):
            FrequencyGrid(signal_axis=bad, idler_axis=bad)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            FrequencyGrid(signal_axis=np.array([1.0]), idler_axis=np.array([1.0, 2.0]))

    def test_axes_are_read_only(self):
        grid = build_grid(685.0, 40.0, 16)
        with pytest.raises(ValueError):
            grid.signal_axis[0] = 0.0
