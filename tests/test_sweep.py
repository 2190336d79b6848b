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
from biphoton_cavity.config import CavityConfig
from biphoton_cavity.pipeline import input_state_from_config
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

    @pytest.mark.parametrize("swept, values, bad", [
        ("coupling_ratio", (2.0, 1.0), "1"),
        ("coupling_ratio", (0.5, 1.0, 1.0), "1"),
        ("pump_bandwidth_nm", (1.0, 3.0, 2.5, 4.0), "2.5"),
        ("cavity_detuning_nm", (-1.0, -1.0), "-1"),
    ])
    def test_values_out_of_order_name_the_first_such_value(self, swept, values, bad):
        with pytest.raises(ValueError, match=rf"^{swept} value {bad}: sweep values must be "
                                             r"strictly increasing$"):
            SweepPlan(small_config(), swept, values)

    @pytest.mark.parametrize("swept, series, repeated", [
        ("coupling_ratio", (0.0, 0.0), "0"),
        ("coupling_ratio", (2.0, -2.0, 0.0, -2.0), "-2"),
        ("pump_bandwidth_nm", (1.0, 1.0), "1"),
        ("cavity_detuning_nm", (2.0, 1.0, 2.0), "2"),
    ])
    def test_repeated_series_value_is_named(self, swept, series, repeated):
        parameter = sweep.SWEEPS[swept].series_parameter
        with pytest.raises(ValueError, match=rf"^{parameter} value {repeated}: repeated in the "
                                             r"series$"):
            SweepPlan(small_config(), swept, (1.0,), series_values=series)

    @pytest.mark.parametrize("values, first", [((0.0,), "0"), ((-3.0, -1.0, 1.0), "-3")])
    def test_nonpositive_coupling_names_the_first_value(self, values, first):
        with pytest.raises(ValueError, match=rf"^coupling_ratio value {first}: must be positive$"):
            SweepPlan(small_config(), "coupling_ratio", values)

    def test_oversize_table_is_refused_before_any_point_is_built(self, monkeypatch):
        built, config, build = [], small_config(), CavityConfig.model
        monkeypatch.setattr(CavityConfig, "model",
                            lambda *a, **k: built.append(k) or build(*a, **k))
        values = tuple(0.5 + 0.0005 * i for i in range(5001))
        with pytest.raises(ValueError, match=r"^coupling_ratio x cavity_detuning_nm: 5001 x 2 "
                                             r"points; the limit is 10000$"):
            SweepPlan(config, "coupling_ratio", values, series_values=(0.0, 1.0))
        assert built == []

    @pytest.mark.parametrize("values, series", [(10_000, 0), (5000, 2), (1, 10_000)])
    def test_table_at_the_point_limit_is_planned(self, monkeypatch, values, series):
        config = small_config()
        model = config.cavity.model()
        monkeypatch.setattr(CavityConfig, "model", lambda *a, **k: model)
        plan = SweepPlan(config, "cavity_detuning_nm", tuple(range(values)),
                         series_values=tuple(0.5 + i for i in range(series)))
        assert len(plan.points) == sweep.MAX_SWEEP_POINTS

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


class TestPointTable:
    """Each point's config and model against the ones built from its named values."""

    @pytest.mark.parametrize("swept, values", [
        ("coupling_ratio", (0.8, 1.2)),
        ("cavity_detuning_nm", (-1.0, 1.5)),
        ("pump_bandwidth_nm", (3.0, 6.0, 9.0)),
    ])
    @pytest.mark.parametrize("series", [(), (0.9, 1.7)])
    def test_points_match_their_named_values(self, swept, values, series):
        base = small_config(coupling_ratio=1.3, center_nm=686.0)
        plan = SweepPlan(base, swept, values, series_values=series)
        series_parameter = sweep.SWEEPS[swept].series_parameter
        at_base = {"coupling_ratio": 1.3, "cavity_detuning_nm": 0.0,
                   "pump_bandwidth_nm": base.pump.bandwidth_nm}
        assert [point[:2] for point in plan.points] == [
            (s, v) for s in series or (at_base[series_parameter],) for v in values]
        for series_value, value, config, model in plan.points:
            named = at_base | {series_parameter: series_value, swept: value}
            assert model == base.cavity.model(coupling_ratio=named["coupling_ratio"],
                                              detuning_nm=named["cavity_detuning_nm"])
            assert config == dataclasses.replace(base, pump=dataclasses.replace(
                base.pump, bandwidth_nm=named["pump_bandwidth_nm"]))


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
        with pytest.raises(ValueError, match=r"^coupling_ratio sweep requires a dicke cavity in "
                                             r"the base config, not cavity\.kind = two_sided$"):
            SweepPlan(config, "coupling_ratio", (1.0,))


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
            model = config.cavity.model(detuning_nm=detuning)
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
        assert [(r.kind, r.sweep_value) for r in result.reference_rows] == [
            (kind, value) for value in (3.0, 6.0, 9.0) for kind in ("input", "empty_cavity")]

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


class TestEmptyCavityReference:
    """The empty-cavity reference is the two-sided filter at the configured cavity.center_nm,
    also for a base cavity off the emitter line and with emitter damping."""

    def test_reference_entropies_equal_the_two_sided_route(self):
        base = small_config(center_nm=686.0, emitter_damping_ratio=0.1)
        result = run_sweep(SweepPlan(base, "pump_bandwidth_nm", (3.0, 6.0), series_values=(1.0,)))
        empty = CavityModel("two_sided", omega_from_wavelength(686.0),
                            1.0 / base.cavity.lifetime_fs)
        assert result.empty_cavity_entropy == entropy_of(transmitted_state(base, empty))
        references = [r for r in result.reference_rows if r.kind == "empty_cavity"]
        assert [r.sweep_value for r in references] == [3.0, 6.0]
        for row in references:
            point = dataclasses.replace(
                base, pump=dataclasses.replace(base.pump, bandwidth_nm=row.sweep_value))
            assert row.entropy == entropy_of(transmitted_state(point, empty))


class TestSweepWork:
    """Each point's model is built once, each point's curve sampled once, and each
    distinct input state composed once."""

    @pytest.mark.parametrize("swept, values, series", [
        ("coupling_ratio", (0.8, 1.2), (2.0, -2.0, 0.0)),
        ("cavity_detuning_nm", (-1.0, 1.0), ()),
        ("pump_bandwidth_nm", (3.0, 6.0, 9.0), (1.0, 2.0)),
    ])
    def test_one_model_per_point(self, monkeypatch, swept, values, series):
        calls, config, build = [], small_config(), CavityConfig.model
        monkeypatch.setattr(CavityConfig, "model",
                            lambda *a, **k: calls.append(k) or build(*a, **k))
        plan = SweepPlan(config, swept, values, series_values=series)
        result = run_sweep(plan)
        assert len(calls) == len(result.rows) + 1
        assert [point[:2] for point in plan.points] == [
            (r.series_value, r.sweep_value) for r in result.rows]

    @pytest.mark.parametrize("swept, values, series", [
        ("coupling_ratio", (0.8, 1.2), (2.0, -2.0, 0.0)),
        ("pump_bandwidth_nm", (3.0, 6.0, 9.0), (1.0, 2.0)),
    ])
    def test_one_transfer_curve_per_model(self, monkeypatch, swept, values, series):
        sampled = []
        monkeypatch.setattr(sweep, "transfer_for",
                            lambda model, axis: sampled.append(model) or transfer_for(model, axis))
        plan = SweepPlan(small_config(), swept, values, series_values=series)
        result = run_sweep(plan)
        assert len(sampled) == len(result.rows) + 1  # and one for the empty-cavity reference
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
