"""Simulation configuration: dataclasses, defaults, and the flat key-value
file format (dotted keys, one `key = value` per line, '#' comments).

Unknown keys are rejected; omitted keys take the documented defaults and the
applied defaults are recorded on the returned config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .cavity import CAVITY_KINDS
from .state import PM_KINDS, PUMP_CONVENTIONS


class ConfigError(ValueError):
    """Invalid configuration file or value; carries the offending key."""


@dataclass(frozen=True)
class GridConfig:
    center_nm: float = 685.0
    span_nm: float = 40.0
    points: int = 512


@dataclass(frozen=True)
class PumpConfig:
    center_down_nm: float = 685.0
    bandwidth_nm: float = 6.0
    # at_degeneracy is by far the closer match to the reference base
    # entropy; both conventions remain selectable (see README).
    bandwidth_convention: str = "at_degeneracy"


@dataclass(frozen=True)
class PhaseMatchingConfig:
    kind: str = "flat"
    width_nm: float | None = None


@dataclass(frozen=True)
class FilterConfig:
    center_nm: float = 685.0
    fwhm_nm: float = 8.0


@dataclass(frozen=True)
class CavityConfig:
    kind: str = "two_sided"
    center_nm: float = 685.0
    lifetime_fs: float = 150.0
    coupling_ratio: float = 1.0
    emitter_nm: float = 685.0
    emitter_damping_ratio: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    grid: GridConfig = GridConfig()
    pump: PumpConfig = PumpConfig()
    phase_matching: PhaseMatchingConfig = PhaseMatchingConfig()
    signal_filter: FilterConfig = FilterConfig()
    idler_filter: FilterConfig = FilterConfig()
    cavity: CavityConfig = CavityConfig()
    applied_defaults: tuple[str, ...] = field(default=(), compare=False)

    def echo_lines(self) -> list[str]:
        """Deterministic `key = value` lines reproducing this config."""
        return [f"{key} = {_format_value(value)}" for key, value in _flatten(self)]


# key -> (section attr, field attr, parser)
_SCHEMA: dict[str, tuple[str, str, str]] = {
    "grid.center_nm": ("grid", "center_nm", "pos_float"),
    "grid.span_nm": ("grid", "span_nm", "pos_float"),
    "grid.points": ("grid", "points", "points"),
    "pump.center_down_nm": ("pump", "center_down_nm", "pos_float"),
    "pump.bandwidth_nm": ("pump", "bandwidth_nm", "pos_float"),
    "pump.bandwidth_convention": ("pump", "bandwidth_convention", "pump_convention"),
    "phase_matching.kind": ("phase_matching", "kind", "pm_kind"),
    "phase_matching.width_nm": ("phase_matching", "width_nm", "pos_float"),
    "filters.signal.center_nm": ("signal_filter", "center_nm", "pos_float"),
    "filters.signal.fwhm_nm": ("signal_filter", "fwhm_nm", "pos_float"),
    "filters.idler.center_nm": ("idler_filter", "center_nm", "pos_float"),
    "filters.idler.fwhm_nm": ("idler_filter", "fwhm_nm", "pos_float"),
    "cavity.kind": ("cavity", "kind", "cavity_kind"),
    "cavity.center_nm": ("cavity", "center_nm", "pos_float"),
    "cavity.lifetime_fs": ("cavity", "lifetime_fs", "pos_float"),
    "cavity.coupling_ratio": ("cavity", "coupling_ratio", "nonneg_float"),
    "cavity.emitter_nm": ("cavity", "emitter_nm", "pos_float"),
    "cavity.emitter_damping_ratio": ("cavity", "emitter_damping_ratio", "nonneg_float"),
}

_SECTION_TO_PREFIX = {
    "grid": "grid",
    "pump": "pump",
    "phase_matching": "phase_matching",
    "signal_filter": "filters.signal",
    "idler_filter": "filters.idler",
    "cavity": "cavity",
}


def _parse_value(key: str, raw: str, kind: str, where: str):
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
        return value
    if kind == "pump_convention":
        if raw not in PUMP_CONVENTIONS:
            raise fail(f"must be one of {PUMP_CONVENTIONS}, got {raw!r}")
        return raw
    if kind == "pm_kind":
        if raw not in PM_KINDS:
            raise fail(f"must be one of {PM_KINDS}, got {raw!r}")
        return raw
    if kind == "cavity_kind":
        if raw not in CAVITY_KINDS:
            raise fail(f"must be one of {CAVITY_KINDS}, got {raw!r}")
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

    sections: dict[str, dict[str, object]] = {}
    for key, (section, attr, _) in _SCHEMA.items():
        if key in seen:
            sections.setdefault(section, {})[attr] = seen[key]
    applied_defaults = tuple(sorted(set(_SCHEMA) - set(seen)))

    config = SimConfig(
        grid=GridConfig(**sections.get("grid", {})),
        pump=PumpConfig(**sections.get("pump", {})),
        phase_matching=PhaseMatchingConfig(**sections.get("phase_matching", {})),
        signal_filter=FilterConfig(**sections.get("signal_filter", {})),
        idler_filter=FilterConfig(**sections.get("idler_filter", {})),
        cavity=CavityConfig(**sections.get("cavity", {})),
        applied_defaults=applied_defaults,
    )
    _cross_validate(config, source)
    return config


def _cross_validate(config: SimConfig, source: str) -> None:
    if config.phase_matching.kind == "gaussian" and config.phase_matching.width_nm is None:
        raise ConfigError(
            f"{source}: missing required key 'phase_matching.width_nm' for gaussian kind"
        )
    if config.grid.span_nm >= 2.0 * config.grid.center_nm:
        raise ConfigError(f"{source}: key 'grid.span_nm': span too wide for the center")
    if config.pump.bandwidth_nm >= config.pump.center_down_nm / 2.0:
        raise ConfigError(f"{source}: key 'pump.bandwidth_nm': too wide for the pump center")


def load_config(path) -> SimConfig:
    """Read and parse a configuration file."""
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def apply_overrides(config: SimConfig, overrides: list[str], where: str = "override") -> SimConfig:
    """Apply repeatable KEY=VALUE overrides limited to the cavity section."""
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
    return dataclasses.replace(config, cavity=dataclasses.replace(config.cavity, **updates))


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
