"""Parameter sweeps: entropy vs coupling strength, cavity detuning, and pump
bandwidth, with the input-state and empty-cavity reference entropies carried
alongside every result.

Sweep points are independent pure computations; rows come out sorted by
(series value, sweep value) so results are deterministic.
"""

from dataclasses import dataclass, field

from .cavity import CavityModel, transfer_for
from .config import SimConfig, section_keys, with_values
from .pipeline import grid_from_config, input_state_from_config
from .schmidt import entropy_of
from .state import apply_idler_transfer

# Most points a sweep's table, or one --values or --series range, may hold.
MAX_SWEEP_POINTS = 10_000
# The series parameter each swept parameter implies.
SWEEPS = {"coupling_ratio": "cavity_detuning_nm", "cavity_detuning_nm": "coupling_ratio",
          "pump_bandwidth_nm": "coupling_ratio"}


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
        series, seen = SWEEPS[swept], set()
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
                config = with_values(base, {"pump.bandwidth_nm": width},
                                     f"pump_bandwidth_nm value {width:g}")
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
        return SWEEPS[self.swept_parameter] if self.series_values else None


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


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Entropy of the dicke-transformed state at every point of the plan's table.

    Each distinct input state is composed and measured once, the base first,
    and held only while its own points run, so one input state is held at a
    time.  Each point's curve is sampled where it is used.  The empty-cavity
    reference is the base cavity at zero coupling, the two-sided filter.
    delta_vs_input is taken against the point's own input state.  When the
    swept parameter changes the input state, per-value input and empty-cavity
    reference rows are added.
    """
    base = plan.base_config
    grid = grid_from_config(base)
    empty_curve = transfer_for(base.cavity.model(coupling_ratio=0.0), grid.idler_axis)
    states = {base: []}  # input state -> its points; the base first, with or without points
    for point in plan.points:
        states.setdefault(point[2], []).append(point)
    rows, references = [], {}  # references: pump bandwidth -> (input, empty-cavity entropy)
    for config, points in states.items():
        width = config.pump.bandwidth_nm
        try:  # a point's config differs from the base only in its swept pump bandwidth
            state = input_state_from_config(config, grid)
        except ValueError as exc:
            if config is base:
                raise
            raise ValueError(f"pump_bandwidth_nm value {width:g}: {exc}") from None
        s_in, _ = references[width] = (
            entropy_of(state), entropy_of(apply_idler_transfer(state, empty_curve)))
        for series_value, value, _, model in points:
            curve = transfer_for(model, grid.idler_axis)
            entropy = entropy_of(apply_idler_transfer(state, curve))
            rows.append(SweepRow(series_value, value, entropy, entropy - s_in, curve.flags))
        del state  # the one input state held: it is freed before the next is composed
    reference_rows = () if plan.swept_parameter != "pump_bandwidth_nm" else tuple(
        ReferenceRow(kind, width, entropy) for width in plan.values
        for kind, entropy in zip(("input", "empty_cavity"), references[width]))
    rows.sort(key=lambda row: (row.series_value, row.sweep_value))  # plan.points' order
    return SweepResult(plan, tuple(rows), *references[base.pump.bandwidth_nm], reference_rows)
