"""Parameter sweeps: entropy vs coupling strength, cavity detuning, and pump
bandwidth, with the input-state and empty-cavity reference entropies carried
alongside every result.

Sweep points are independent pure computations; rows come out sorted by
(series value, sweep value) so results are deterministic.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .cavity import CavityModel, transfer_for
from .config import SimConfig
from .pipeline import cavity_model_from_config, grid_from_config, input_state_from_config
from .schmidt import entropy_of
from .state import apply_idler_transfer

# Bracketing defaults: the resolved-polariton boundary sits at coupling
# ratio 0.5, and the couplings of interest for the bandwidth comparison
# cluster between 0.75 and 2.
DEFAULT_COUPLING_VALUES = tuple(np.round(np.arange(0.5, 3.0 + 1e-9, 0.05), 10))
DEFAULT_DETUNING_SERIES = (-4.0, -2.0, 0.0, 2.0, 4.0)
DEFAULT_BANDWIDTH_VALUES = tuple(np.round(np.arange(0.5, 10.0 + 1e-9, 0.25), 10))
DEFAULT_COUPLING_SERIES = (0.75, 1.0, 1.35, 2.0)


@dataclass(frozen=True)
class SweepSpec:
    """How a swept parameter enters each sweep point.

    cavity_arg is the cavity_model_from_config override the parameter sets;
    None means the parameter changes the config and so the input state.
    default_series None means one series at the base value of
    series_parameter.
    """

    cavity_arg: str | None
    series_parameter: str
    default_values: tuple[float, ...]
    default_series: tuple[float, ...] | None


SWEEPS = {
    "coupling_ratio": SweepSpec(
        "coupling_ratio", "cavity_detuning_nm", DEFAULT_COUPLING_VALUES, DEFAULT_DETUNING_SERIES
    ),
    "cavity_detuning_nm": SweepSpec("detuning_nm", "coupling_ratio", DEFAULT_DETUNING_SERIES, None),
    "pump_bandwidth_nm": SweepSpec(
        None, "coupling_ratio", DEFAULT_BANDWIDTH_VALUES, DEFAULT_COUPLING_SERIES
    ),
}
SWEEP_PARAMETERS = tuple(SWEEPS)


@dataclass(frozen=True)
class SweepPlan:
    """A swept parameter, its values, and optional values of the series
    parameter that the swept parameter implies (SWEEPS).  Construction
    builds every point's cavity model, so a bad value fails up front."""

    base_config: SimConfig
    swept_parameter: str
    values: tuple[float, ...]
    series_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.swept_parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown swept parameter {self.swept_parameter!r}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.swept_parameter in ("coupling_ratio", "pump_bandwidth_nm") and values[0] <= 0.0:
            raise ValueError(f"{self.swept_parameter} values must be positive")
        center = self.base_config.pump.center_down_nm
        if self.swept_parameter == "pump_bandwidth_nm" and values[-1] >= center / 2.0:
            raise ValueError(f"pump_bandwidth_nm value {values[-1]:g} must be below half of "
                             f"pump.center_down_nm ({center:g})")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "series_values", tuple(float(v) for v in self.series_values))
        _point_models(self)

    @property
    def series_parameter(self) -> str | None:
        """The parameter the series values set; None without series values."""
        return SWEEPS[self.swept_parameter].series_parameter if self.series_values else None


@dataclass(frozen=True)
class SweepRow:
    series_value: float
    sweep_value: float
    entropy: float
    delta_vs_input: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReferenceRow:
    """Per-sweep-value reference entropy (input state or empty cavity)."""

    kind: str
    sweep_value: float
    entropy: float


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    rows: tuple[SweepRow, ...]
    input_entropy: float
    empty_cavity_entropy: float
    reference_rows: tuple[ReferenceRow, ...] = ()

    def series(self, series_value: float) -> list[SweepRow]:
        return [r for r in self.rows if r.series_value == series_value]


@dataclass(frozen=True)
class Crossing:
    """Interpolated sweep value where the output entropy first reaches the
    input entropy; boundary=True when already above at the first sample."""

    value: float
    boundary: bool = False


def _point_models(plan: SweepPlan) -> dict[float, list[tuple[float, CavityModel]]]:
    """Each sweep value's (series value, dicke model) pairs, in row order; the
    cavity mode sits at cavity_detuning_nm (default 0) from the emitter line.
    An invalid model raises a ValueError that names the point's values."""
    spec = SWEEPS[plan.swept_parameter]
    series_arg = SWEEPS[spec.series_parameter].cavity_arg
    cavity_args = {"coupling_ratio": plan.base_config.cavity.coupling_ratio, "detuning_nm": 0.0}
    series = plan.series_values or (cavity_args[series_arg],)
    models = {}
    try:
        for value in plan.values:
            if spec.cavity_arg is not None:
                cavity_args[spec.cavity_arg] = value
            models[value] = []
            for series_value in series:
                cavity_args[series_arg] = series_value
                model = cavity_model_from_config(plan.base_config, kind="dicke", **cavity_args)
                models[value].append((series_value, model))
    except ValueError as exc:
        named = f"{plan.swept_parameter} value {value:g}, " if spec.cavity_arg is not None else ""
        raise ValueError(f"{named}{spec.series_parameter} value {series_value:g}: {exc}") from None
    return models


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Entropy of the dicke-transformed state at every (series, sweep) point.

    The base config must select a dicke cavity; the cavity models are the
    plan's (_point_models).  Each distinct input state is composed once, and
    delta_vs_input is taken against the point's own input state.  When the
    swept parameter changes the input state, per-value input and
    empty-cavity reference rows are added.
    """
    spec = SWEEPS[plan.swept_parameter]
    base = plan.base_config
    if base.cavity.kind != "dicke":
        raise ValueError(f"{plan.swept_parameter} sweep requires a dicke cavity in the base config")
    point_models = _point_models(plan)

    grid = grid_from_config(base)
    empty_curve = transfer_for(cavity_model_from_config(base, kind="two_sided"), grid.idler_axis)

    def measure_input(config):
        state = input_state_from_config(config, grid)
        return state, entropy_of(state), entropy_of(apply_idler_transfer(state, empty_curve))

    base_state, input_entropy, empty_entropy = measure_input(base)
    rows = []
    reference_rows = []
    for value in plan.values:
        state, s_in = base_state, input_entropy
        if spec.cavity_arg is None:
            config = dataclasses.replace(
                base, pump=dataclasses.replace(base.pump, bandwidth_nm=value)
            )
            state, s_in, s_empty = measure_input(config)
            reference_rows.append(ReferenceRow("input", value, s_in))
            reference_rows.append(ReferenceRow("empty_cavity", value, s_empty))
        for series_value, model in point_models[value]:
            curve = transfer_for(model, grid.idler_axis)
            entropy = entropy_of(apply_idler_transfer(state, curve))
            rows.append(
                SweepRow(
                    series_value=series_value,
                    sweep_value=value,
                    entropy=entropy,
                    delta_vs_input=entropy - s_in,
                    flags=curve.flags,
                )
            )
    rows.sort(key=lambda r: (r.series_value, r.sweep_value))
    return SweepResult(
        plan=plan,
        rows=tuple(rows),
        input_entropy=input_entropy,
        empty_cavity_entropy=empty_entropy,
        reference_rows=tuple(reference_rows),
    )


def find_entropy_crossing(result: SweepResult, series_value: float) -> Crossing | None:
    """Sweep value where the output entropy first crosses the input entropy.

    Linear interpolation between adjacent samples; None when the output stays
    below the input over the whole range; flagged boundary when the first
    sample is already at or above it.
    """
    rows = result.series(series_value)
    if len(rows) < 2:
        raise ValueError("crossing detection needs at least 2 rows in the series")
    rows = sorted(rows, key=lambda r: r.sweep_value)
    deltas = [r.delta_vs_input for r in rows]
    if deltas[0] >= 0.0:
        return Crossing(value=rows[0].sweep_value, boundary=True)
    for (row_a, row_b) in zip(rows, rows[1:]):
        if row_a.delta_vs_input < 0.0 <= row_b.delta_vs_input:
            span = row_b.delta_vs_input - row_a.delta_vs_input
            t = -row_a.delta_vs_input / span
            return Crossing(value=row_a.sweep_value + t * (row_b.sweep_value - row_a.sweep_value))
    return None
