"""Simulation configuration: dataclasses, defaults, and the flat key-value
file format (dotted keys, one `key = value` per line, '#' comments).

The pump, phase-matching and filter sections are the state specs that
compose_input_state takes.  Every section checks itself when built (the grid
section builds its grid, the cavity section its CavityModel).

Unknown keys are rejected; omitted keys take the documented defaults and the
applied defaults are recorded on the returned config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .cavity import CAVITY_KINDS, CavityModel
from .grid import build_grid, omega_from_wavelength
from .state import PM_KINDS, PUMP_CONVENTIONS, FilterSpec, PhaseMatchingSpec, PumpSpec


# grid.points is rejected when one n x n complex128 array (16 n^2 bytes) would
# exceed this, i.e. above 8192 points; the pipeline holds several such arrays.
MAX_GRID_ARRAY_BYTES = 1 << 30


class ConfigError(ValueError):
    """Invalid configuration file or value; carries the offending key."""


@dataclass(frozen=True)
class GridConfig:
    center_nm: float = 685.0
    span_nm: float = 40.0
    points: int = 512

    def __post_init__(self):
        build_grid(self.center_nm, self.span_nm, self.points)  # the span rule lives there


@dataclass(frozen=True)
class CavityConfig:
    kind: str = "two_sided"
    center_nm: float = 685.0
    lifetime_fs: float = 150.0
    coupling_ratio: float = 1.0
    emitter_nm: float = 685.0
    emitter_damping_ratio: float = 0.0

    def __post_init__(self):
        self.model()  # so a cavity that CavityModel or a unit conversion refuses fails here

    def model(self, coupling_ratio: float | None = None,
              detuning_nm: float | None = None) -> CavityModel:
        """This cavity, with an optional coupling_ratio override.  A detuning_nm
        places the cavity mode that far from the emitter line, to first order at
        the emitter wavelength (|d omega / d lambda| = omega/lambda; positive is
        higher frequency), instead of at center_nm."""
        dicke = self.kind == "dicke"
        ratio = self.coupling_ratio if coupling_ratio is None else coupling_ratio
        gamma = 1.0 / self.lifetime_fs
        emitter = omega_from_wavelength(self.emitter_nm) if dicke or detuning_nm is not None else None
        omega_0 = (omega_from_wavelength(self.center_nm) if detuning_nm is None
                   else emitter + detuning_nm * (emitter / self.emitter_nm))
        return CavityModel(self.kind, omega_0, gamma, lambda_c=ratio * gamma if dicke else 0.0,
                           omega_e=emitter if dicke else None,
                           gamma_e=self.emitter_damping_ratio * gamma if dicke else 0.0)


@dataclass(frozen=True)
class SimConfig:
    grid: GridConfig = GridConfig()
    pump: PumpSpec = PumpSpec(685.0, 6.0)
    phase_matching: PhaseMatchingSpec = PhaseMatchingSpec()
    signal_filter: FilterSpec = FilterSpec(685.0, 8.0)
    idler_filter: FilterSpec = FilterSpec(685.0, 8.0)
    cavity: CavityConfig = CavityConfig()
    applied_defaults: tuple[str, ...] = field(default=(), compare=False)

    def echo_lines(self) -> list[str]:
        """Deterministic `key = value` lines reproducing this config."""
        return [f"{key} = {_format_value(value)}" for key, value in _flatten(self)]


# key -> (section attr, field attr, parser name or tuple of allowed values)
_SCHEMA: dict[str, tuple[str, str, str | tuple[str, ...]]] = {
    "grid.center_nm": ("grid", "center_nm", "pos_float"),
    "grid.span_nm": ("grid", "span_nm", "pos_float"),
    "grid.points": ("grid", "points", "points"),
    "pump.center_down_nm": ("pump", "center_down_nm", "pos_float"),
    "pump.bandwidth_nm": ("pump", "bandwidth_nm", "pos_float"),
    "pump.bandwidth_convention": ("pump", "bandwidth_convention", PUMP_CONVENTIONS),
    "phase_matching.kind": ("phase_matching", "kind", PM_KINDS),
    "phase_matching.width_nm": ("phase_matching", "width_nm", "pos_float"),
    "filters.signal.center_nm": ("signal_filter", "center_nm", "pos_float"),
    "filters.signal.fwhm_nm": ("signal_filter", "fwhm_nm", "pos_float"),
    "filters.idler.center_nm": ("idler_filter", "center_nm", "pos_float"),
    "filters.idler.fwhm_nm": ("idler_filter", "fwhm_nm", "pos_float"),
    "cavity.kind": ("cavity", "kind", CAVITY_KINDS),
    "cavity.center_nm": ("cavity", "center_nm", "pos_float"),
    "cavity.lifetime_fs": ("cavity", "lifetime_fs", "pos_float"),
    "cavity.coupling_ratio": ("cavity", "coupling_ratio", "nonneg_float"),
    "cavity.emitter_nm": ("cavity", "emitter_nm", "pos_float"),
    "cavity.emitter_damping_ratio": ("cavity", "emitter_damping_ratio", "nonneg_float"),
}


def section_keys(section: str) -> str:
    """The keys of a config section, as a refusal of that section names them."""
    return ", ".join(key for key, (owner, _, _) in _SCHEMA.items() if owner == section)


def _parse_value(key: str, raw: str, kind: str | tuple[str, ...], where: str):
    def fail(message):
        return ConfigError(f"{where}: key {key!r}: {message}")

    if kind in ("pos_float", "nonneg_float"):
        try:
            value = float(raw)
        except ValueError:
            raise fail(f"expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise fail(f"must be finite, got {raw!r}")
        if kind == "pos_float" and not value > 0.0:
            raise fail(f"must be positive, got {value!r}")
        if kind == "nonneg_float" and value < 0.0:
            raise fail(f"must be non-negative, got {value!r}")
        return value
    if kind == "points":
        try:
            value = int(raw)
        except ValueError:
            raise fail(f"expected an integer, got {raw!r}") from None
        if value < 2:
            raise fail("grid needs at least 2 points")
        array_bytes = 16 * value * value
        if array_bytes > MAX_GRID_ARRAY_BYTES:
            raise fail(f"one {value}x{value} complex grid array needs {array_bytes} bytes, "
                       f"over the {MAX_GRID_ARRAY_BYTES}-byte limit")
        return value
    if isinstance(kind, tuple):
        if raw not in kind:
            raise fail(f"must be one of {kind}, got {raw!r}")
        return raw
    raise AssertionError(kind)


def parse_config_text(text: str, source: str = "<config>") -> SimConfig:
    """Parse the flat key-value format into a validated SimConfig."""
    seen: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        _, _, kind = _SCHEMA[key]
        seen[key] = _parse_value(key, raw_value, kind, f"{source}:{lineno}")

    default = SimConfig()
    sections: dict[str, dict[str, object]] = {}
    for key, (section, attr, _) in _SCHEMA.items():
        if key in seen:
            sections.setdefault(section, {})[attr] = seen[key]
    for section, given in sections.items():
        try:  # each cross-key rule lives in the section's spec, which checks itself when built
            sections[section] = dataclasses.replace(getattr(default, section), **given)
        except ValueError as exc:
            raise ConfigError(f"{source}: {section_keys(section)}: {exc}") from None
    return dataclasses.replace(
        default,
        applied_defaults=tuple(sorted(key for key, _ in _flatten(default) if key not in seen)),
        **sections)


def load_config(path) -> SimConfig:
    """Read and parse a configuration file."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
    return parse_config_text(text, source=str(path))


def apply_overrides(config: SimConfig, overrides: list[str], where: str = "override") -> SimConfig:
    """Apply repeatable KEY=VALUE overrides limited to the cavity section, checked as
    the parser checks it; an overridden key is no longer listed as defaulted."""
    updates: dict[str, object] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"{where}: expected KEY=VALUE, got {item!r}")
        short, _, raw = item.partition("=")
        key = f"cavity.{short.strip()}" if not short.strip().startswith("cavity.") else short.strip()
        if key not in _SCHEMA or _SCHEMA[key][0] != "cavity":
            raise ConfigError(f"{where}: unknown cavity key {short.strip()!r}")
        _, attr, kind = _SCHEMA[key]
        updates[attr] = _parse_value(key, raw.strip(), kind, where)
    if not updates:
        return config
    try:
        cavity = dataclasses.replace(config.cavity, **updates)
    except ValueError as exc:
        raise ConfigError(f"{where}: {section_keys('cavity')}: {exc}") from None
    overridden = {f"cavity.{attr}" for attr in updates}
    return dataclasses.replace(
        config, cavity=cavity,
        applied_defaults=tuple(key for key in config.applied_defaults if key not in overridden))


def _flatten(config: SimConfig):
    for key, (section, attr, _) in _SCHEMA.items():
        value = getattr(getattr(config, section), attr)
        if value is None:
            continue
        yield key, value


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)
