"""Parameter sweeps: entropy vs coupling strength, cavity detuning, and pump
bandwidth, with the input-state and empty-cavity reference entropies carried
alongside every result.

Sweep points are independent pure computations; rows come out sorted by
(series value, sweep value) so results are deterministic.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityModel, transfer_for
from .config import SimConfig, section_keys
from .pipeline import grid_from_config, input_state_from_config
from .schmidt import entropy_of
from .state import apply_idler_transfer

# Bracketing defaults: the resolved-polariton boundary sits at coupling
# ratio 0.5, and the couplings of interest for the bandwidth comparison
# cluster between 0.75 and 2.
DEFAULT_COUPLING_VALUES = tuple(np.round(np.arange(0.5, 3.0 + 1e-9, 0.05), 10))
DEFAULT_DETUNING_SERIES = (-4.0, -2.0, 0.0, 2.0, 4.0)
DEFAULT_BANDWIDTH_VALUES = tuple(np.round(np.arange(0.5, 10.0 + 1e-9, 0.25), 10))
DEFAULT_COUPLING_SERIES = (0.75, 1.0, 1.35, 2.0)
# Most points a sweep's table, or one --values or --series range, may hold.
MAX_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class SweepSpec:
    """The series parameter a swept parameter implies, and the CLI defaults;
    an empty default_series means one series at the base value of series_parameter."""

    series_parameter: str
    default_values: tuple[float, ...]
    default_series: tuple[float, ...]


SWEEPS = {
    "coupling_ratio": SweepSpec("cavity_detuning_nm", DEFAULT_COUPLING_VALUES,
                                DEFAULT_DETUNING_SERIES),
    "cavity_detuning_nm": SweepSpec("coupling_ratio", DEFAULT_DETUNING_SERIES, ()),
    "pump_bandwidth_nm": SweepSpec("coupling_ratio", DEFAULT_BANDWIDTH_VALUES,
                                   DEFAULT_COUPLING_SERIES),
}


@dataclass(frozen=True)
class SweepPlan:
    """A swept parameter, its values, and optional values of the series
    parameter that the swept parameter implies (SWEEPS).

    Construction builds `points`, the sweep's table in output order: one
    (series value, sweep value, point config, dicke CavityModel) row per
    point, sorted by series value, then sweep value.  A point is named by its
    coupling_ratio, cavity_detuning_nm (default 0: the cavity mode on the
    emitter line) and pump_bandwidth_nm, the one that sets its config's input
    state.  A bad value fails here, naming the point's values, as do a base
    config without a dicke cavity, a sweep value not above the one before it,
    a series value given twice and a table of more than MAX_SWEEP_POINTS.
    """

    base_config: SimConfig
    swept_parameter: str
    values: tuple[float, ...]
    series_values: tuple[float, ...] = ()
    points: tuple[tuple[float, float, SimConfig, CavityModel], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        base, swept = self.base_config, self.swept_parameter
        if swept not in SWEEPS:
            raise ValueError(f"unknown swept parameter {swept!r}")
        if base.cavity.kind != "dicke":
            raise ValueError(f"{swept} sweep requires a dicke cavity in the base config, "
                             f"not cavity.kind = {base.cavity.kind}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("sweep needs at least one value")
        for a, b in zip(values, values[1:]):
            if b <= a:
                raise ValueError(f"{swept} value {b:g}: sweep values must be strictly increasing")
        if swept == "coupling_ratio" and values[0] <= 0.0:
            raise ValueError(f"coupling_ratio value {values[0]:g}: must be positive")
        series, seen = SWEEPS[swept].series_parameter, set()
        series_values = tuple(float(v) for v in self.series_values)
        for series_value in series_values:
            if series_value in seen:
                raise ValueError(f"{series} value {series_value:g}: repeated in the series")
            seen.add(series_value)
        if len(values) * max(len(series_values), 1) > MAX_SWEEP_POINTS:
            raise ValueError(f"{swept} x {series}: {len(values)} x {max(len(series_values), 1)} "
                             f"points; the limit is {MAX_SWEEP_POINTS}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "series_values", series_values)
        named = {"coupling_ratio": base.cavity.coupling_ratio, "cavity_detuning_nm": 0.0,
                 "pump_bandwidth_nm": base.pump.bandwidth_nm}
        points = []
        for value in values:
            named[swept] = value
            config, width = base, named["pump_bandwidth_nm"]
            if width != base.pump.bandwidth_nm:  # the one parameter that sets the input state
                try:
                    pump = dataclasses.replace(base.pump, bandwidth_nm=width)
                except ValueError as exc:
                    raise ValueError(f"pump_bandwidth_nm value {width:g} with pump.center_down_nm "
                                     f"= {base.pump.center_down_nm:g}: {exc}") from None
                config = dataclasses.replace(base, pump=pump)
            for series_value in self.series_values or (named[series],):
                named[series] = series_value
                try:
                    model = base.cavity.model(coupling_ratio=named["coupling_ratio"],
                                              detuning_nm=named["cavity_detuning_nm"])
                except ValueError as exc:  # a pump sweep's models do not depend on its value
                    where = "" if swept == "pump_bandwidth_nm" else f"{swept} value {value:g}, "
                    raise ValueError(f"{where}{series} value {series_value:g}: "
                                     f"{section_keys('cavity')}: {exc}") from None
                points.append((series_value, value, config, model))
        object.__setattr__(self, "points", tuple(sorted(points, key=lambda point: point[:2])))

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


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Entropy of the dicke-transformed state at every point of the plan's table.

    Each distinct input state is composed and measured once, and each point's
    curve is sampled where it is used.  The empty-cavity reference is the base
    cavity at zero coupling, the two-sided filter.  delta_vs_input is taken
    against the point's own input state.  When the swept parameter changes the
    input state, per-value input and empty-cavity reference rows are added.
    """
    base = plan.base_config
    grid = grid_from_config(base)
    empty_curve = transfer_for(base.cavity.model(coupling_ratio=0.0), grid.idler_axis)

    def measure_input(config):
        state = input_state_from_config(config, grid)
        return state, entropy_of(state), entropy_of(apply_idler_transfer(state, empty_curve))

    base_input = measure_input(base)
    point_indices = {}
    for index, (_, _, config, _) in enumerate(plan.points):
        point_indices.setdefault(config, []).append(index)
    rows = [None] * len(plan.points)
    reference_rows = []
    for config, indices in point_indices.items():
        try:  # a point's config differs from the base only in its swept pump bandwidth
            state, s_in, s_empty = base_input if config == base else measure_input(config)
        except ValueError as exc:
            width = config.pump.bandwidth_nm
            raise ValueError(f"pump_bandwidth_nm value {width:g}: {exc}") from None
        for index in indices:
            series_value, value, _, model = plan.points[index]
            curve = transfer_for(model, grid.idler_axis)
            entropy = entropy_of(apply_idler_transfer(state, curve))
            rows[index] = SweepRow(series_value, value, entropy, entropy - s_in, curve.flags)
        if plan.swept_parameter == "pump_bandwidth_nm":
            reference_rows.append(ReferenceRow("input", config.pump.bandwidth_nm, s_in))
            reference_rows.append(ReferenceRow("empty_cavity", config.pump.bandwidth_nm, s_empty))
        del state  # no input state but the base one is held while the next is composed
    return SweepResult(plan, tuple(rows), base_input[1], base_input[2], tuple(reference_rows))


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
    if rows[0].delta_vs_input >= 0.0:
        return Crossing(value=rows[0].sweep_value, boundary=True)
    for (row_a, row_b) in zip(rows, rows[1:]):
        if row_a.delta_vs_input < 0.0 <= row_b.delta_vs_input:
            span = row_b.delta_vs_input - row_a.delta_vs_input
            t = -row_a.delta_vs_input / span
            return Crossing(value=row_a.sweep_value + t * (row_b.sweep_value - row_a.sweep_value))
    return None
