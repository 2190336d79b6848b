import numpy as np
import pytest

from biphoton_cavity import (
    CavityModel,
    TransferCurve,
    omega_from_wavelength,
    transfer_for,
    wavelength_from_omega,
)

W0 = omega_from_wavelength(685.0)
GAMMA = 1.0 / 150.0


def one_sided(omega_0=W0, gamma=GAMMA):
    return CavityModel(kind="one_sided", omega_0=omega_0, gamma=gamma)


def two_sided(omega_0=W0, gamma=GAMMA):
    return CavityModel(kind="two_sided", omega_0=omega_0, gamma=gamma)


def dicke(omega_0=W0, gamma=GAMMA, lambda_c=GAMMA, omega_e=W0, gamma_e=0.0):
    return CavityModel(kind="dicke", omega_0=omega_0, gamma=gamma,
                       lambda_c=lambda_c, omega_e=omega_e, gamma_e=gamma_e)


def sym_axis(half_width, n, center=W0):
    return np.linspace(center - half_width, center + half_width, n)



class TestOneSided:
    def test_on_resonance(self):
        curve = transfer_for(one_sided(), np.array([W0 - GAMMA, W0, W0 + GAMMA]))
        assert curve.values[1] == 1.0 + 0.0j

    def test_half_gamma_detuning_gives_minus_i(self):
        curve = transfer_for(one_sided(), np.array([W0, W0 + GAMMA / 2.0]))
        assert abs(curve.values[1] - (-1j)) < 1e-12
        assert curve.phase[1] == pytest.approx(-np.pi / 2.0, abs=1e-12)

    def test_unit_modulus_everywhere(self, rng):
        axis = np.sort(rng.uniform(W0 - 50 * GAMMA, W0 + 50 * GAMMA, 1000))
        curve = transfer_for(one_sided(), axis)
        assert np.max(np.abs(np.abs(curve.values) - 1.0)) < 1e-12


class TestTwoSided:
    def test_on_resonance(self):
        curve = transfer_for(two_sided(), np.array([W0 - GAMMA, W0]))
        assert curve.values[1] == 1.0 + 0.0j

    def test_gamma_detuning(self):
        # dyadic parameters keep omega - omega_0 == gamma exact in floating point
        model = two_sided(omega_0=2.0, gamma=0.25)
        curve = transfer_for(model, np.array([2.0, 2.25]))
        assert abs(curve.values[1] - 1.0 / (1.0 + 1j)) < 1e-15
        assert curve.transmission[1] == pytest.approx(0.5, abs=1e-12)
        assert curve.phase[1] == pytest.approx(-np.pi / 4.0, abs=1e-12)
        reference = transfer_for(two_sided(), np.array([W0, W0 + GAMMA]))
        assert abs(reference.values[1] - 1.0 / (1.0 + 1j)) < 1e-12

    def test_fwhm_from_numeric_scan(self):
        # independent scan oracle: locate half-maximum crossings on a fine axis
        axis = sym_axis(20 * GAMMA, 2_000_001)
        curve = transfer_for(two_sided(), axis)
        above = axis[curve.transmission >= 0.5]
        fwhm_omega = above[-1] - above[0]
        assert fwhm_omega == pytest.approx(2.0 * GAMMA, abs=2 * (axis[1] - axis[0]))
        fwhm_nm = wavelength_from_omega(above[0]) - wavelength_from_omega(above[-1])
        assert fwhm_nm == pytest.approx(3.32, abs=5e-3)


class TestDicke:
    def test_zero_coupling_equals_two_sided(self):
        axis = sym_axis(10 * GAMMA, 4096)
        a = transfer_for(dicke(lambda_c=0.0), axis)
        b = transfer_for(two_sided(), axis)
        assert np.max(np.abs(a.values - b.values)) <= 1e-15

    def test_unit_transmission_at_polaritons(self):
        lam = GAMMA
        axis = np.array([W0 - lam, W0, W0 + lam])
        curve = transfer_for(dicke(lambda_c=lam), axis)
        assert abs(curve.values[0] - 1.0) < 1e-12
        assert abs(curve.values[2] - 1.0) < 1e-12

    def test_zero_at_emitter(self):
        axis = np.array([W0 - GAMMA, W0, W0 + GAMMA])
        curve = transfer_for(dicke(), axis)
        assert curve.values[1] == 0.0

    def test_phase_jump_across_emitter(self):
        # numeric left/right limit oracle: phase -> -pi/2 from below, +pi/2 above
        axis = sym_axis(4 * GAMMA, 8193)
        curve = transfer_for(dicke(), axis)
        left = curve.phase[axis < W0]
        right = curve.phase[axis > W0]
        jump = right[0] - left[-1]
        assert jump == pytest.approx(np.pi, abs=0.02)
        assert left[-1] == pytest.approx(-np.pi / 2.0, abs=0.02)
        assert right[0] == pytest.approx(np.pi / 2.0, abs=0.02)

    def test_modulus_vanishes_toward_emitter(self):
        eps = GAMMA * 1e-6
        axis = np.array([W0 - eps, W0 + eps])
        curve = transfer_for(dicke(), axis)
        assert np.all(np.abs(curve.values) < 1e-4)

    def test_transmission_symmetric_at_zero_detuning(self):
        axis = sym_axis(6 * GAMMA, 4097)
        curve = transfer_for(dicke(lambda_c=1.7 * GAMMA), axis)
        np.testing.assert_allclose(curve.transmission, curve.transmission[::-1],
                                   rtol=0.0, atol=1e-12)

    def test_twin_peaks_at_polariton_positions(self):
        lam = GAMMA
        axis = sym_axis(6 * GAMMA, 4097)
        step = axis[1] - axis[0]
        t = transfer_for(dicke(lambda_c=lam), axis).transmission
        interior = (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:])
        peaks = axis[1:-1][interior]
        assert peaks.size == 2
        assert abs(peaks[0] - (W0 - lam)) <= step
        assert abs(peaks[1] - (W0 + lam)) <= step

    def test_detuned_polaritons(self):
        # transmission maxima where (w-w0)(w-we) = lam^2
        lam, det = 1.5 * GAMMA, 2.0 * GAMMA
        w0 = W0 + det
        axis = np.linspace(W0 - 8 * GAMMA, W0 + 8 * GAMMA, 16385)
        t = transfer_for(dicke(omega_0=w0, lambda_c=lam), axis).transmission
        interior = (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:])
        peaks = axis[1:-1][interior]
        disc = np.sqrt(det**2 + 4 * lam**2)
        expected = np.array([W0 + (det - disc) / 2.0, W0 + (det + disc) / 2.0])
        step = axis[1] - axis[0]
        assert peaks.size == 2
        np.testing.assert_allclose(np.sort(peaks), expected, atol=step, rtol=0.0)

    def test_kind_mismatch_and_validation(self):
        with pytest.raises(ValueError):
            CavityModel(kind="dicke", omega_0=W0, gamma=GAMMA, lambda_c=GAMMA)  # no emitter
        with pytest.raises(ValueError):
            CavityModel(kind="dicke", omega_0=W0, gamma=GAMMA, lambda_c=-1.0, omega_e=W0)
        with pytest.raises(ValueError):
            CavityModel(kind="nonsense", omega_0=W0, gamma=GAMMA)
        with pytest.raises(ValueError):
            CavityModel(kind="two_sided", omega_0=W0, gamma=0.0)

    def test_critical_point_guard(self):
        with pytest.raises(ValueError):
            dicke(lambda_c=0.51 * W0)

    def test_strong_coupling_flag(self):
        assert dicke(lambda_c=GAMMA).strong_coupling
        weak = dicke(lambda_c=0.4 * GAMMA)
        assert not weak.strong_coupling
        assert "weak_coupling" in weak.flags()
        curve = transfer_for(weak, sym_axis(4 * GAMMA, 257))
        assert "weak_coupling" in curve.flags

    def test_emitter_damping_extension(self):
        damped = dicke(gamma_e=0.5 * GAMMA)
        axis = np.array([W0 - GAMMA, W0, W0 + GAMMA])
        curve = transfer_for(damped, axis)
        assert "extension:emitter_damping" in curve.flags
        assert np.abs(curve.values[1]) > 0.0  # pole is regularized


class TestTransmissionBound:
    def test_all_kinds_bounded_by_one(self, rng):
        axis = sym_axis(30 * GAMMA, 2001)
        for _ in range(20):
            gamma = rng.uniform(0.2, 5.0) * GAMMA
            w0 = W0 + rng.uniform(-5.0, 5.0) * GAMMA
            models = [
                CavityModel(kind="one_sided", omega_0=w0, gamma=gamma),
                CavityModel(kind="two_sided", omega_0=w0, gamma=gamma),
                CavityModel(kind="dicke", omega_0=w0, gamma=gamma,
                            lambda_c=rng.uniform(0.0, 3.0) * gamma, omega_e=W0),
            ]
            for model in models:
                curve = transfer_for(model, axis)
                assert np.all(curve.transmission <= 1.0 + 1e-9)

    def test_transfer_curve_rejects_gain(self):
        with pytest.raises(ValueError):
            TransferCurve(axis=np.array([1.0, 2.0]), values=np.array([1.5 + 0j, 0.1 + 0j]))

def phase_step_sharpness(model, axis):
    """Width (rad/fs) of the central pi phase transition across the emitter line.

    The unwrapped phase approaches -pi/2 just below the emitter frequency and
    +pi/2 just above it.  The returned width is the distance between the
    10% and 90% levels of that step (phase = -0.4 pi on the left, +0.4 pi on
    the right), each located by linear interpolation on the sampled curve.
    The width grows with lambda_c/gamma: a larger self-energy pushes the
    +-pi/2 approach region outward.
    """
    if model.kind != "dicke":
        raise ValueError("phase step sharpness is defined for dicke cavities")
    if model.lambda_c <= 0.0:
        raise ValueError("phase step sharpness requires lambda_c > 0")
    curve = transfer_for(model, axis)
    w = curve.axis
    left = w < model.omega_e
    right = w > model.omega_e
    if left.sum() < 2 or right.sum() < 2:
        raise ValueError("axis must bracket the emitter frequency")
    lo_level = -0.4 * np.pi
    hi_level = 0.4 * np.pi

    w_left = _crossing_nearest(w[left], curve.phase[left], lo_level, side="last")
    w_right = _crossing_nearest(w[right], curve.phase[right], hi_level, side="first")
    if w_left is None or w_right is None:
        raise ValueError("phase step not resolved on this axis; widen or refine it")
    return float(w_right - w_left)


def _crossing_nearest(x, y, level, side):
    """Interpolated x where y crosses `level`; first or last such crossing."""
    sign = np.sign(y - level)
    idx = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
    if idx.size == 0:
        return None
    i = idx[-1] if side == "last" else idx[0]
    y0, y1 = y[i], y[i + 1]
    if y1 == y0:
        return float(x[i])
    t = (level - y0) / (y1 - y0)
    return float(x[i] + t * (x[i + 1] - x[i]))


class TestPhaseStepSharpness:
    def test_positive_width(self):
        axis = sym_axis(10 * GAMMA, 8193)
        width = phase_step_sharpness(dicke(lambda_c=GAMMA), axis)
        assert width > 0.0

    def test_requires_positive_coupling(self):
        axis = sym_axis(10 * GAMMA, 1025)
        with pytest.raises(ValueError):
            phase_step_sharpness(dicke(lambda_c=0.0), axis)
        with pytest.raises(ValueError):
            phase_step_sharpness(two_sided(), axis)

    def test_converges_under_refinement(self):
        coarse = phase_step_sharpness(dicke(lambda_c=GAMMA), sym_axis(10 * GAMMA, 4097))
        fine = phase_step_sharpness(dicke(lambda_c=GAMMA), sym_axis(10 * GAMMA, 8193))
        assert abs(fine - coarse) < 0.05 * coarse

    def test_monotone_in_coupling(self):
        # the self-energy tail widens the +-pi/2 approach region as the
        # coupling grows, so the measured 10-90 width increases with it
        axis = sym_axis(40 * GAMMA, 65537)
        widths = [phase_step_sharpness(dicke(lambda_c=r * GAMMA), axis) for r in (1.0, 2.0, 3.0)]
        assert widths[0] < widths[1] < widths[2]
