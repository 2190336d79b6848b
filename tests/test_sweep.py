import dataclasses
import re

import numpy as np
import pytest

from biphoton_cavity import (
    CavityModel,
    SweepPlan,
    entropy_of,
    find_entropy_crossing,
    omega_from_wavelength,
    parse_config_text,
    run_sweep,
    transfer_for,
)
from biphoton_cavity import pipeline, sweep
from biphoton_cavity.pipeline import cavity_model_from_config, input_state_from_config
from biphoton_cavity.sweep import SweepResult, SweepRow
from conftest import transmitted_state

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_pump_bandwidth_naming_it(self, bad):
        with pytest.raises(ValueError, match=rf"pump_bandwidth_nm value {bad:g} .*must be finite"):
            SweepPlan(small_config(), "pump_bandwidth_nm", (bad,))

    def test_rejects_too_wide_pump_bandwidth(self):
        # half the down-converted center is where the pump spec itself gives up
        with pytest.raises(ValueError, match=r"pump_bandwidth_nm value 400 .*pump\.center_down_nm"):
            SweepPlan(small_config(), "pump_bandwidth_nm", (1.0, 400.0))
        with pytest.raises(ValueError, match="pump.center_down_nm"):
            SweepPlan(small_config(), "pump_bandwidth_nm", (342.5,))
        assert SweepPlan(small_config(), "pump_bandwidth_nm", (342.4,)).values == (342.4,)

    @pytest.mark.parametrize("swept, values, series, named, reason", [
        ("pump_bandwidth_nm", (1.0, 2.0), (-1.0,), "coupling_ratio value -1", "lambda_c must be"),
        ("coupling_ratio", (1.0,), (-700.0,), "cavity_detuning_nm value -700", "omega_0 must be"),
        ("cavity_detuning_nm", (-1000.0, 1.0), (), "cavity_detuning_nm value -1000",
         "omega_0 must be"),
        ("coupling_ratio", (1e9,), (), "coupling_ratio value 1e+09", "Dicke critical point"),
    ])
    def test_rejects_bad_cavity_values_naming_them(self, swept, values, series, named, reason):
        with pytest.raises(ValueError, match=rf"{re.escape(named)}\b.*: .*{reason}"):
            SweepPlan(small_config(), swept, values, series_values=series)


class TestCouplingSweep:
    def test_single_value_matches_direct_run(self):
        config = small_config()
        plan = SweepPlan(config, "coupling_ratio", (1.0,), series_values=(0.0,))
        result = run_sweep(plan)
        assert len(result.rows) == 1
        # zero detuning: center == emitter
        assert result.rows[0].entropy == pytest.approx(
            entropy_of(transmitted_state(config)), abs=1e-12)
        assert result.input_entropy == pytest.approx(
            entropy_of(input_state_from_config(config)), abs=1e-12)

    def test_deterministic(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 1.0, 1.4),
                         series_values=(-2.0, 0.0))
        a = run_sweep(plan)
        b = run_sweep(plan)
        assert a.rows == b.rows
        assert a.input_entropy == b.input_entropy

    def test_row_count_and_order(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 1.0, 1.4),
                         series_values=(-2.0, 0.0, 2.0))
        result = run_sweep(plan)
        assert len(result.rows) == 9
        keys = [(r.series_value, r.sweep_value) for r in result.rows]
        assert keys == sorted(keys)

    def test_entropy_ordering_across_threshold(self):
        # weak coupling suppresses the entropy, strong coupling raises it
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 2.0), series_values=(0.0,))
        result = run_sweep(plan)
        low, high = result.rows[0], result.rows[1]
        assert low.entropy < result.input_entropy < high.entropy

    def test_weak_coupling_rows_flagged(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.4, 1.0), series_values=(0.0,))
        result = run_sweep(plan)
        assert "weak_coupling" in result.rows[0].flags
        assert "weak_coupling" not in result.rows[1].flags

    def test_series_values_imply_series_parameter(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (1.0, 2.0), series_values=(-2.0, 4.0))
        assert plan.series_parameter == "cavity_detuning_nm"
        result = run_sweep(plan)
        assert [(r.series_value, r.sweep_value) for r in result.rows] == [
            (-2.0, 1.0), (-2.0, 2.0), (4.0, 1.0), (4.0, 2.0)]
        assert SweepPlan(small_config(), "coupling_ratio", (1.0,)).series_parameter is None

    def test_requires_dicke_config(self):
        config = small_config(kind="two_sided")
        plan = SweepPlan(config, "coupling_ratio", (1.0,))
        with pytest.raises(ValueError):
            run_sweep(plan)


class TestDetuningSweep:
    def test_zero_detuning_row_matches_direct(self):
        config = small_config()
        plan = SweepPlan(config, "cavity_detuning_nm", (-2.0, 0.0, 2.0))
        result = run_sweep(plan)
        zero_row = [r for r in result.rows if r.sweep_value == 0.0][0]
        assert zero_row.entropy == pytest.approx(entropy_of(transmitted_state(config)), abs=1e-12)

    def test_symmetric_detunings_nearly_equal(self):
        # pump and filters symmetric about the emitter line
        plan = SweepPlan(small_config(), "cavity_detuning_nm", (-2.0, 2.0))
        result = run_sweep(plan)
        assert result.rows[0].entropy == pytest.approx(result.rows[1].entropy, abs=0.01)

    def test_emitter_stays_fixed(self):
        config = small_config()
        plan = SweepPlan(config, "cavity_detuning_nm", (-4.0, 4.0))
        result = run_sweep(plan)
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
        plan = SweepPlan(config, "pump_bandwidth_nm", (6.0,), series_values=(1.0,))
        result = run_sweep(plan)
        assert result.rows[0].entropy == pytest.approx(
            entropy_of(transmitted_state(config)), abs=1e-12)

    def test_reference_rows_per_bandwidth(self):
        plan = SweepPlan(small_config(), "pump_bandwidth_nm", (3.0, 6.0, 9.0),
                         series_values=(1.0, 2.0))
        result = run_sweep(plan)
        assert len(result.rows) == 6
        kinds = {(r.kind, r.sweep_value) for r in result.reference_rows}
        assert len(result.reference_rows) == 6
        assert ("input", 3.0) in kinds and ("empty_cavity", 9.0) in kinds

    def test_input_entropy_decreases_with_bandwidth(self):
        plan = SweepPlan(small_config(), "pump_bandwidth_nm", (1.0, 3.0, 6.0, 9.0),
                         series_values=(1.0,))
        result = run_sweep(plan)
        inputs = [r.entropy for r in result.reference_rows if r.kind == "input"]
        assert all(b < a for a, b in zip(inputs, inputs[1:]))


class TestSweepTable:
    """Sweep rows against the direct steps with hand-built cavity models."""

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
        """Returns the point's input entropy."""
        s_in = entropy_of(input_state_from_config(config))
        s_out = entropy_of(transmitted_state(config, self.dicke(config, ratio, detuning_nm)))
        assert row.entropy == pytest.approx(s_out, abs=1e-12)
        assert row.delta_vs_input == pytest.approx(s_out - s_in, abs=1e-12)
        return s_in

    def test_detuned_points(self):
        config = small_config()
        result = run_sweep(SweepPlan(
            config, "cavity_detuning_nm", (-2.5, 3.0), series_values=(1.5,)))
        for row in result.rows:
            self.check_row(row, config, 1.5, row.sweep_value)
        result = run_sweep(SweepPlan(
            config, "coupling_ratio", (0.8,), series_values=(2.5,)))
        self.check_row(result.rows[0], config, 0.8, 2.5)
        assert result.reference_rows == ()

    def test_pump_bandwidth_points_use_their_own_input(self):
        config = small_config()
        result = run_sweep(SweepPlan(
            config, "pump_bandwidth_nm", (3.0, 9.0), series_values=(2.0,)))
        inputs = {r.sweep_value: r.entropy for r in result.reference_rows if r.kind == "input"}
        for row in result.rows:
            point = dataclasses.replace(
                config, pump=dataclasses.replace(config.pump, bandwidth_nm=row.sweep_value))
            s_in = self.check_row(row, point, 2.0, 0.0)
            assert inputs[row.sweep_value] == pytest.approx(s_in, abs=1e-12)
        assert result.input_entropy == pytest.approx(
            entropy_of(input_state_from_config(config)), abs=1e-12)


class TestSweepWork:
    """Each point's model is built once, each model's curve sampled once, and each
    distinct input state composed once."""

    @pytest.mark.parametrize("swept, values, series", [
        ("coupling_ratio", (0.8, 1.2), (2.0, -2.0, 0.0)),
        ("cavity_detuning_nm", (-1.0, 1.0), ()),
        ("pump_bandwidth_nm", (3.0, 6.0, 9.0), (1.0, 2.0)),
    ])
    def test_one_model_per_point(self, monkeypatch, swept, values, series):
        calls = []
        build = sweep.cavity_model_from_config
        monkeypatch.setattr(sweep, "cavity_model_from_config",
                            lambda *a, **k: calls.append(k) or build(*a, **k))
        plan = SweepPlan(small_config(), swept, values, series_values=series)
        result = run_sweep(plan)
        assert len(calls) == len(result.rows) + 1
        assert [point[:2] for point in plan.points] == [
            (r.series_value, r.sweep_value) for r in result.rows]

    @pytest.mark.parametrize("swept, values, series, curves", [
        ("coupling_ratio", (0.8, 1.2), (2.0, -2.0, 0.0), 6),
        ("pump_bandwidth_nm", (3.0, 6.0, 9.0), (1.0, 2.0), 2),
    ])
    def test_one_transfer_curve_per_model(self, monkeypatch, swept, values, series, curves):
        sampled = []
        monkeypatch.setattr(sweep, "transfer_for",
                            lambda model, axis: sampled.append(model) or transfer_for(model, axis))
        plan = SweepPlan(small_config(), swept, values, series_values=series)
        result = run_sweep(plan)
        assert len(sampled) == curves + 1  # and one for the empty-cavity reference
        assert len(set(sampled)) == len(sampled)
        assert [r.entropy for r in result.rows] == [
            entropy_of(transmitted_state(config, model)) for *_, config, model in plan.points]

    def test_pump_sweep_composes_each_input_state_once(self, monkeypatch):
        composed = []
        compose = pipeline.compose_input_state
        monkeypatch.setattr(pipeline, "compose_input_state",
                            lambda pump, *a: composed.append(pump.bandwidth_nm) or compose(pump, *a))
        # 6 nm is the base bandwidth: its rows reuse the base input state
        result = run_sweep(SweepPlan(small_config(), "pump_bandwidth_nm", (3.0, 6.0, 9.0),
                                     series_values=(1.0, 2.0)))
        assert composed == [6.0, 3.0, 9.0]
        inputs = {r.sweep_value: r.entropy for r in result.reference_rows if r.kind == "input"}
        assert inputs[6.0] == result.input_entropy


class TestCrossing:
    def test_crossing_found_in_real_sweep(self):
        plan = SweepPlan(small_config(), "coupling_ratio",
                         tuple(np.arange(0.5, 2.01, 0.25)), series_values=(0.0,))
        result = run_sweep(plan)
        crossing = find_entropy_crossing(result, 0.0)
        assert crossing is not None
        assert not crossing.boundary
        assert 0.5 < crossing.value < 2.0

    def test_refining_moves_crossing_less_than_coarse_step(self):
        coarse_vals = tuple(np.arange(0.5, 2.01, 0.25))
        fine_vals = tuple(np.arange(0.5, 2.01, 0.125))
        config = small_config()
        coarse = find_entropy_crossing(run_sweep(
            SweepPlan(config, "coupling_ratio", coarse_vals, series_values=(0.0,))), 0.0)
        fine = find_entropy_crossing(run_sweep(
            SweepPlan(config, "coupling_ratio", fine_vals, series_values=(0.0,))), 0.0)
        assert abs(coarse.value - fine.value) < 0.25

    def test_boundary_flag_when_all_above(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (1.0, 2.0), series_values=(0.0,))
        rows = tuple(
            SweepRow(series_value=0.0, sweep_value=v, entropy=1.0, delta_vs_input=0.5)
            for v in (1.0, 2.0)
        )
        synthetic = SweepResult(plan=plan, rows=rows, input_entropy=0.5,
                                empty_cavity_entropy=0.4)
        crossing = find_entropy_crossing(synthetic, 0.0)
        assert crossing.boundary and crossing.value == 1.0

    def test_no_crossing_returns_none(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (1.0, 2.0), series_values=(0.0,))
        rows = tuple(
            SweepRow(series_value=0.0, sweep_value=v, entropy=0.1, delta_vs_input=-0.5)
            for v in (1.0, 2.0)
        )
        synthetic = SweepResult(plan=plan, rows=rows, input_entropy=0.6,
                                empty_cavity_entropy=0.4)
        assert find_entropy_crossing(synthetic, 0.0) is None

    def test_needs_two_rows(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (1.0,), series_values=(0.0,))
        result = run_sweep(plan)
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
        by_hand = entropy_of(transmitted_state(config, model))
        assert by_hand == pytest.approx(entropy_of(transmitted_state(config)), abs=1e-12)
