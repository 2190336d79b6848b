import os
import re

import numpy as np
import pytest

from biphoton_cavity import (
    CavityModel,
    SweepPlan,
    export_curve,
    export_jsi,
    export_sweep,
    ingest_measured_jsi,
    jsi_of,
    measured_entropy,
    omega_from_wavelength,
    one_sided_transfer,
    parse_config_text,
    run_coupling_sweep,
    run_single,
)
from biphoton_cavity.dataio import INTENSITY_ONLY_FLAG, render_jsi, render_sweep
from biphoton_cavity.schmidt import entropy_of
from test_sweep import small_config
from conftest import make_input_state


class TestJsiRoundTrip:
    def test_intensity_round_trips_within_print_precision(self, tmp_path):
        state = make_input_state(points=32)
        path = tmp_path / "jsi.csv"
        export_jsi(state, path)
        measured = ingest_measured_jsi(path)
        assert measured.intensity.shape == (32, 32)
        np.testing.assert_allclose(measured.intensity, jsi_of(state), rtol=1e-8, atol=1e-300)
        assert measured.amplitude is not None
        np.testing.assert_allclose(measured.amplitude, state.amplitude, rtol=1e-8, atol=1e-12)

    def test_axes_round_trip(self, tmp_path):
        state = make_input_state(points=16)
        path = tmp_path / "jsi.csv"
        export_jsi(state, path)
        measured = ingest_measured_jsi(path)
        # exported in nm, decreasing along increasing omega
        from biphoton_cavity import wavelength_from_omega

        np.testing.assert_allclose(
            measured.signal_nm, wavelength_from_omega(state.grid.signal_axis), rtol=1e-8
        )

    def test_header_carries_format_and_config(self, tmp_path):
        config = parse_config_text("grid.points = 16")
        state = make_input_state(points=16)
        path = tmp_path / "jsi.csv"
        export_jsi(state, path, config)
        text = path.read_text()
        assert text.startswith("# format: jsiv1\n")
        assert "# config.grid.points = 16" in text
        assert "# columns: signal_nm,idler_nm,re,im,intensity" in text
        assert text.endswith("\n") and "\r" not in text

    def test_entropy_from_round_trip_matches(self, tmp_path):
        state = make_input_state(points=48)
        path = tmp_path / "jsi.csv"
        export_jsi(state, path)
        measured = ingest_measured_jsi(path)
        entropy, flags = measured_entropy(measured)
        assert flags == ()
        assert entropy == pytest.approx(entropy_of(state), abs=1e-5)

    def test_deterministic_bytes(self, tmp_path):
        state = make_input_state(points=16)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_jsi(state, a)
        export_jsi(state, b)
        assert a.read_bytes() == b.read_bytes()


class TestCurveExport:
    def test_one_sided_curve_has_unit_transmission_column(self, tmp_path):
        model = CavityModel(kind="one_sided", omega_0=omega_from_wavelength(685.0), gamma=1 / 150)
        axis = np.linspace(2.70, 2.80, 33)
        curve = one_sided_transfer(model, axis)
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 33
        for row in rows:
            assert row.split(",")[3] == "1"

    def test_format_header(self, tmp_path):
        model = CavityModel(kind="two_sided", omega_0=2.75, gamma=0.01)
        curve = one_sided_transfer(
            CavityModel(kind="one_sided", omega_0=2.75, gamma=0.01), np.linspace(2.7, 2.8, 5)
        )
        path = tmp_path / "curve.csv"
        export_curve(curve, path)
        assert path.read_text().startswith("# format: curvev1\n")


class TestSweepExport:
    def test_row_count(self, tmp_path):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 1.0, 1.4),
                         series_parameter="cavity_detuning_nm", series_values=(-2.0, 0.0))
        result = run_coupling_sweep(plan)
        path = tmp_path / "sweep.csv"
        export_sweep(result, path)
        text = path.read_text()
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert len(rows) == 6  # |series| x |values|
        assert "# format: sweepv1" in text
        assert "# reference.input_entropy_nats" in text
        assert "# reference.empty_cavity_entropy_nats" in text

    def test_deterministic(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.8, 1.2),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        assert render_sweep(run_coupling_sweep(plan)) == render_sweep(run_coupling_sweep(plan))


class TestAtomicWrites:
    def test_missing_directory_fails_without_partial_file(self, tmp_path):
        state = make_input_state(points=8)
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError):
            export_jsi(state, target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_no_stray_temp_files(self, tmp_path):
        state = make_input_state(points=8)
        export_jsi(state, tmp_path / "out.csv")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["out.csv"]


class TestIngestValidation:
    def test_negative_intensity_names_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,1.0\n700,690,2.0\n690,700,-0.5\n690,690,1.0\n"
        )
        with pytest.raises(ValueError, match=r"signal_nm=690.*idler_nm=700"):
            ingest_measured_jsi(path)

    def test_non_monotone_axis_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,1.0\n700,710,2.0\n700,705,0.5\n"
        )
        with pytest.raises(ValueError):
            ingest_measured_jsi(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,1.0\n700,690,2.0\n690,700,0.5\n"
        )
        with pytest.raises(ValueError, match="row-major"):
            ingest_measured_jsi(path)

    def test_all_zero_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,0\n700,690,0\n690,700,0\n690,690,0\n"
        )
        with pytest.raises(ValueError, match="all zero"):
            ingest_measured_jsi(path)

    def test_single_point_axis_names_file(self, tmp_path):
        for name, text in (("one.csv", "700,700,1\n"), ("column.csv", "700,700,1\n690,700,1\n")):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(name) + ".*at least 2"):
                ingest_measured_jsi(path)

    def test_non_finite_names_line(self, tmp_path):
        rows = ["700,700,1,0,1", "700,690,1,0,1", "690,700,1,0,1", "690,690,1,0,1"]
        for cell in (2, 3, 4):
            bad = rows[2].split(",")
            bad[cell] = "nan"
            path = tmp_path / "bad.csv"
            path.write_text("# columns: signal_nm,idler_nm,re,im,intensity\n"
                            + "\n".join(rows[:2] + [",".join(bad)] + rows[3:]) + "\n")
            with pytest.raises(ValueError, match=r"bad\.csv:4:.*non-finite"):
                ingest_measured_jsi(path)

    def test_non_numeric_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("700,700,abc\n")
        with pytest.raises(ValueError, match=":1:"):
            ingest_measured_jsi(path)


class TestMeasuredIntensityOnly:
    def test_flat_phase_entropy_is_flagged(self, tmp_path):
        # hand-made measured map on a non-uniform wavelength grid
        signal = np.array([695.0, 690.0, 686.0, 683.0, 680.0])
        idler = np.array([694.0, 689.0, 685.0, 682.0, 679.0])
        lines = ["# columns: signal_nm,idler_nm,intensity"]
        rng = np.random.default_rng(7)
        for s in signal:
            for i in idler:
                lines.append(f"{s},{i},{np.exp(-((s - 687) ** 2 + (i - 687) ** 2) / 40.0):.9g}")
        path = tmp_path / "measured.csv"
        path.write_text("\n".join(lines) + "\n")
        measured = ingest_measured_jsi(path)
        assert measured.amplitude is None
        entropy, flags = measured_entropy(measured)
        assert INTENSITY_ONLY_FLAG in flags
        assert entropy == pytest.approx(0.0, abs=1e-9)  # separable test map
