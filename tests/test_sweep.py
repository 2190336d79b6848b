import dataclasses

import numpy as np
import pytest

from biphoton_cavity import (
    CavityModel,
    SweepPlan,
    find_entropy_crossing,
    omega_from_wavelength,
    parse_config_text,
    run_coupling_sweep,
    run_detuning_sweep,
    run_pump_bandwidth_sweep,
    run_single,
    run_with_model,
    transfer_for,
)
from biphoton_cavity.pipeline import cavity_model_from_config
from biphoton_cavity.sweep import SweepResult, SweepRow

SMALL = """
grid.points = 96
cavity.kind = dicke
cavity.coupling_ratio = 1.0
"""


def small_config(**cavity_updates):
    config = parse_config_text(SMALL)
    if cavity_updates:
        config = dataclasses.replace(
            config, cavity=dataclasses.replace(config.cavity, **cavity_updates)
        )
    return config


class TestPlanValidation:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepPlan(small_config(), "pump_power", (1.0,))

    def test_rejects_empty_or_unsorted_values(self):
        with pytest.raises(ValueError):
            SweepPlan(small_config(), "coupling_ratio", ())
        with pytest.raises(ValueError):
            SweepPlan(small_config(), "coupling_ratio", (1.0, 0.5))

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            SweepPlan(small_config(), "coupling_ratio", (0.0, 1.0))
        with pytest.raises(ValueError):
            SweepPlan(small_config(), "pump_bandwidth_nm", (-1.0, 1.0))

    def test_series_needs_values(self):
        with pytest.raises(ValueError):
            SweepPlan(small_config(), "coupling_ratio", (1.0,), series_parameter="cavity_detuning_nm")


class TestCouplingSweep:
    def test_single_value_matches_direct_run(self):
        config = small_config()
        plan = SweepPlan(config, "coupling_ratio", (1.0,),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        result = run_coupling_sweep(plan)
        assert len(result.rows) == 1
        direct = run_single(config)  # zero detuning: center == emitter
        assert result.rows[0].entropy == pytest.approx(direct.output_entropy, abs=1e-12)
        assert result.input_entropy == pytest.approx(direct.input_entropy, abs=1e-12)

    def test_deterministic(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 1.0, 1.4),
                         series_parameter="cavity_detuning_nm", series_values=(-2.0, 0.0))
        a = run_coupling_sweep(plan)
        b = run_coupling_sweep(plan)
        assert a.rows == b.rows
        assert a.input_entropy == b.input_entropy

    def test_row_count_and_order(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 1.0, 1.4),
                         series_parameter="cavity_detuning_nm", series_values=(-2.0, 0.0, 2.0))
        result = run_coupling_sweep(plan)
        assert len(result.rows) == 9
        keys = [(r.series_value, r.sweep_value) for r in result.rows]
        assert keys == sorted(keys)

    def test_entropy_ordering_across_threshold(self):
        # weak coupling suppresses the entropy, strong coupling raises it
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 2.0),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        result = run_coupling_sweep(plan)
        low, high = result.rows[0], result.rows[1]
        assert low.entropy < result.input_entropy < high.entropy

    def test_weak_coupling_rows_flagged(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.4, 1.0),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        result = run_coupling_sweep(plan)
        assert "weak_coupling" in result.rows[0].flags
        assert "weak_coupling" not in result.rows[1].flags

    def test_requires_dicke_config(self):
        config = small_config(kind="two_sided")
        plan = SweepPlan(config, "coupling_ratio", (1.0,))
        with pytest.raises(ValueError):
            run_coupling_sweep(plan)


class TestDetuningSweep:
    def test_zero_detuning_row_matches_direct(self):
        config = small_config()
        plan = SweepPlan(config, "cavity_detuning_nm", (-2.0, 0.0, 2.0))
        result = run_detuning_sweep(plan)
        direct = run_single(config)
        zero_row = [r for r in result.rows if r.sweep_value == 0.0][0]
        assert zero_row.entropy == pytest.approx(direct.output_entropy, abs=1e-12)

    def test_symmetric_detunings_nearly_equal(self):
        # pump and filters symmetric about the emitter line
        plan = SweepPlan(small_config(), "cavity_detuning_nm", (-2.0, 2.0))
        result = run_detuning_sweep(plan)
        assert result.rows[0].entropy == pytest.approx(result.rows[1].entropy, abs=0.01)

    def test_emitter_stays_fixed(self):
        config = small_config()
        plan = SweepPlan(config, "cavity_detuning_nm", (-4.0, 4.0))
        result = run_detuning_sweep(plan)
        emitter_omega = omega_from_wavelength(config.cavity.emitter_nm)
        # detuned runs differ from each other but share the emitter zero
        assert result.rows[0].entropy != result.rows[1].entropy
        around = emitter_omega + np.array([-1e-9, 0.0, 1e-9])
        for detuning in plan.values:
            model = cavity_model_from_config(config, kind="dicke", detuning_nm=detuning)
            assert model.omega_e == emitter_omega
            transmission = transfer_for(model, around).transmission
            assert transmission[1] == 0.0
            assert np.all(transmission < 1e-10)


class TestPumpBandwidthSweep:
    def test_single_bandwidth_matches_direct(self):
        config = small_config()
        plan = SweepPlan(config, "pump_bandwidth_nm", (6.0,),
                         series_parameter="coupling_ratio", series_values=(1.0,))
        result = run_pump_bandwidth_sweep(plan)
        direct = run_single(config)
        assert result.rows[0].entropy == pytest.approx(direct.output_entropy, abs=1e-12)

    def test_reference_rows_per_bandwidth(self):
        plan = SweepPlan(small_config(), "pump_bandwidth_nm", (3.0, 6.0, 9.0),
                         series_parameter="coupling_ratio", series_values=(1.0, 2.0))
        result = run_pump_bandwidth_sweep(plan)
        assert len(result.rows) == 6
        kinds = {(r.kind, r.sweep_value) for r in result.reference_rows}
        assert len(result.reference_rows) == 6
        assert ("input", 3.0) in kinds and ("empty_cavity", 9.0) in kinds

    def test_input_entropy_decreases_with_bandwidth(self):
        plan = SweepPlan(small_config(), "pump_bandwidth_nm", (1.0, 3.0, 6.0, 9.0),
                         series_parameter="coupling_ratio", series_values=(1.0,))
        result = run_pump_bandwidth_sweep(plan)
        inputs = [r.entropy for r in result.reference_rows if r.kind == "input"]
        assert all(b < a for a, b in zip(inputs, inputs[1:]))


class TestSweepTable:
    """Sweep rows against run_with_model with hand-built cavity models."""

    @staticmethod
    def dicke(config, ratio, detuning_nm):
        gamma = 1.0 / config.cavity.lifetime_fs
        emitter = omega_from_wavelength(config.cavity.emitter_nm)
        return CavityModel(
            kind="dicke",
            omega_0=emitter + detuning_nm * emitter / config.cavity.emitter_nm,
            gamma=gamma,
            lambda_c=ratio * gamma,
            omega_e=emitter,
        )

    def check_row(self, row, config, ratio, detuning_nm):
        direct = run_with_model(config, self.dicke(config, ratio, detuning_nm))
        assert row.entropy == pytest.approx(direct.output_entropy, abs=1e-12)
        assert row.delta_vs_input == pytest.approx(direct.entropy_delta, abs=1e-12)
        return direct

    def test_detuned_points(self):
        config = small_config()
        result = run_detuning_sweep(SweepPlan(
            config, "cavity_detuning_nm", (-2.5, 3.0),
            series_parameter="coupling_ratio", series_values=(1.5,)))
        for row in result.rows:
            self.check_row(row, config, 1.5, row.sweep_value)
        result = run_coupling_sweep(SweepPlan(
            config, "coupling_ratio", (0.8,),
            series_parameter="cavity_detuning_nm", series_values=(2.5,)))
        self.check_row(result.rows[0], config, 0.8, 2.5)
        assert result.reference_rows == ()

    def test_pump_bandwidth_points_use_their_own_input(self):
        config = small_config()
        result = run_pump_bandwidth_sweep(SweepPlan(
            config, "pump_bandwidth_nm", (3.0, 9.0),
            series_parameter="coupling_ratio", series_values=(2.0,)))
        inputs = {r.sweep_value: r.entropy for r in result.reference_rows if r.kind == "input"}
        for row in result.rows:
            point = dataclasses.replace(
                config, pump=dataclasses.replace(config.pump, bandwidth_nm=row.sweep_value))
            direct = self.check_row(row, point, 2.0, 0.0)
            assert inputs[row.sweep_value] == pytest.approx(direct.input_entropy, abs=1e-12)
        assert result.input_entropy == pytest.approx(run_single(config).input_entropy, abs=1e-12)

    def test_series_must_match_table(self):
        with pytest.raises(ValueError, match="series must be coupling_ratio"):
            SweepPlan(small_config(), "pump_bandwidth_nm", (1.0,),
                      series_parameter="cavity_detuning_nm", series_values=(0.0,))


class TestCrossing:
    def test_crossing_found_in_real_sweep(self):
        plan = SweepPlan(small_config(), "coupling_ratio",
                         tuple(np.arange(0.5, 2.01, 0.25)),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        result = run_coupling_sweep(plan)
        crossing = find_entropy_crossing(result, 0.0)
        assert crossing is not None
        assert not crossing.boundary
        assert 0.5 < crossing.value < 2.0

    def test_refining_moves_crossing_less_than_coarse_step(self):
        coarse_vals = tuple(np.arange(0.5, 2.01, 0.25))
        fine_vals = tuple(np.arange(0.5, 2.01, 0.125))
        config = small_config()
        coarse = find_entropy_crossing(run_coupling_sweep(
            SweepPlan(config, "coupling_ratio", coarse_vals,
                      series_parameter="cavity_detuning_nm", series_values=(0.0,))), 0.0)
        fine = find_entropy_crossing(run_coupling_sweep(
            SweepPlan(config, "coupling_ratio", fine_vals,
                      series_parameter="cavity_detuning_nm", series_values=(0.0,))), 0.0)
        assert abs(coarse.value - fine.value) < 0.25

    def test_boundary_flag_when_all_above(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (1.0, 2.0),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        rows = tuple(
            SweepRow(series_value=0.0, sweep_value=v, entropy=1.0, delta_vs_input=0.5)
            for v in (1.0, 2.0)
        )
        synthetic = SweepResult(plan=plan, rows=rows, input_entropy=0.5,
                                empty_cavity_entropy=0.4)
        crossing = find_entropy_crossing(synthetic, 0.0)
        assert crossing.boundary and crossing.value == 1.0

    def test_no_crossing_returns_none(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (1.0, 2.0),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        rows = tuple(
            SweepRow(series_value=0.0, sweep_value=v, entropy=0.1, delta_vs_input=-0.5)
            for v in (1.0, 2.0)
        )
        synthetic = SweepResult(plan=plan, rows=rows, input_entropy=0.6,
                                empty_cavity_entropy=0.4)
        assert find_entropy_crossing(synthetic, 0.0) is None

    def test_needs_two_rows(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (1.0,),
                         series_parameter="cavity_detuning_nm", series_values=(0.0,))
        result = run_coupling_sweep(plan)
        with pytest.raises(ValueError):
            find_entropy_crossing(result, 0.0)


class TestRunWithModel:
    def test_matches_config_route(self):
        config = small_config()
        gamma = 1.0 / config.cavity.lifetime_fs
        model = CavityModel(
            kind="dicke",
            omega_0=omega_from_wavelength(685.0),
            gamma=gamma,
            lambda_c=gamma,
            omega_e=omega_from_wavelength(685.0),
        )
        a = run_with_model(config, model)
        b = run_single(config)
        assert a.output_entropy == pytest.approx(b.output_entropy, abs=1e-12)
