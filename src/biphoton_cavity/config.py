"""Simulation configuration: dataclasses, defaults, and the flat key-value
file format (dotted keys, one `key = value` per line, '#' comments).

The pump, phase-matching and filter sections are the state specs that
compose_input_state takes.  Every section checks itself when built (the grid
section builds its grid, the cavity section its CavityModel).

Unknown keys are rejected; omitted keys take the documented defaults and the
applied defaults are recorded on the returned config.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .cavity import CAVITY_KINDS, CavityModel
from .grid import MAX_GRID_ARRAY_BYTES, build_grid, omega_from_wavelength  # the bound: re-exported
from .state import PM_KINDS, PUMP_CONVENTIONS, FilterSpec, PhaseMatchingSpec, PumpSpec


# A config file longer than this is refused unread; its 18 keys fit in well under 1 kB.
MAX_CONFIG_BYTES = 1 << 16


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
        omega_from_wavelength(self.emitter_nm)  # dicke-only values, checked for every kind
        if not (self.coupling_ratio >= 0.0 and self.emitter_damping_ratio >= 0.0):
            raise ValueError("coupling_ratio and emitter_damping_ratio must be non-negative")

    def model(self, coupling_ratio: float | None = None,
              detuning_nm: float | None = None) -> CavityModel:
        """This cavity, with an optional coupling_ratio override.  A detuning_nm
        places the cavity mode that far from the emitter line, to first order at
        the emitter wavelength (|d omega / d lambda| = omega/lambda; positive is
        higher frequency), instead of at center_nm."""
        dicke = self.kind == "dicke"
        ratio = self.coupling_ratio if coupling_ratio is None else coupling_ratio
        gamma = 1.0 / self.lifetime_fs if self.lifetime_fs else math.inf  # CavityModel refuses inf
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
        return [f"{key} = {format_value(value)}" for key, value in _flatten(self)]


def _schema() -> dict[str, tuple[str, str, type | tuple[str, ...]]]:
    """key -> (section attr, field attr, float, int or the allowed words): a key is its
    section's prefix and its field's name, and a field neither str nor int takes a float.
    It reads each field's type as a class, so no section module postpones its annotations."""
    prefixes = {"signal_filter": "filters.signal", "idler_filter": "filters.idler"}
    words = {"pump.bandwidth_convention": PUMP_CONVENTIONS, "phase_matching.kind": PM_KINDS,
             "cavity.kind": CAVITY_KINDS}
    schema = {}
    for section in dataclasses.fields(SimConfig)[:-1]:  # every field but applied_defaults
        for item in dataclasses.fields(section.type):
            key = f"{prefixes.get(section.name, section.name)}.{item.name}"
            schema[key] = (section.name, item.name,
                           words[key] if item.type is str else int if item.type is int else float)
    return schema


_SCHEMA = _schema()


def section_keys(section: str) -> str:
    """The keys of a config section, as a refusal of that section names them."""
    return ", ".join(key for key, (owner, _, _) in _SCHEMA.items() if owner == section)


def _parse_value(key: str, raw: str, kind: type | tuple[str, ...], where: str):
    """`raw` as a finite float, an int or one of the allowed words; every range rule
    belongs to the section that uses the value."""
    def fail(message):
        return ConfigError(f"{where}: key {key!r}: {message}")

    if isinstance(kind, tuple):
        if raw not in kind:
            raise fail(f"must be one of {kind}, got {raw!r}")
        return raw
    try:
        value = kind(raw)
    except ValueError:
        raise fail(f"expected {'a number' if kind is float else 'an integer'}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise fail(f"must be finite, got {raw!r}")
    return value


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

    defaults = tuple(sorted(key for key, _ in _flatten(SimConfig())))
    return with_values(SimConfig(applied_defaults=defaults), seen, source)


def with_values(config: SimConfig, values: dict[str, object], where: str) -> SimConfig:
    """`config` with each dotted key in `values` set to its parsed value.  Every section
    a key touches is rebuilt, in schema order, so it checks itself; a refusal reads
    `<where>: <section keys>: <reason>`.  A set key is no longer listed as defaulted."""
    sections: dict[str, dict[str, object]] = {}
    for key, (section, attr, _) in _SCHEMA.items():
        if key in values:
            sections.setdefault(section, {})[attr] = values[key]
    for section, given in sections.items():
        try:  # each cross-key rule lives in the section's spec, which checks itself when built
            sections[section] = dataclasses.replace(getattr(config, section), **given)
        except ValueError as exc:
            raise ConfigError(f"{where}: {section_keys(section)}: {exc}") from None
    return dataclasses.replace(
        config, **sections,
        applied_defaults=tuple(key for key in config.applied_defaults if key not in values))


def load_config(path) -> SimConfig:
    """Read and parse a configuration file."""
    path = Path(path)
    with path.open("rb") as handle:
        data = handle.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"{path}: more than {MAX_CONFIG_BYTES} bytes, too long for a config file")
    data = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
    return parse_config_text(text, source=str(path))


def apply_overrides(config: SimConfig, overrides: list[str], where: str = "override") -> SimConfig:
    """Apply repeatable KEY=VALUE overrides limited to the cavity section, checked as
    the parser checks it, a repeated key included; an overridden key is not defaulted."""
    updates: dict[str, object] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"{where}: expected KEY=VALUE, got {item!r}")
        short, _, raw = item.partition("=")
        key = f"cavity.{short.strip()}" if not short.strip().startswith("cavity.") else short.strip()
        if key not in _SCHEMA or _SCHEMA[key][0] != "cavity":
            raise ConfigError(f"{where}: unknown cavity key {short.strip()!r}")
        if key in updates:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        updates[key] = _parse_value(key, raw.strip(), _SCHEMA[key][2], where)
    return with_values(config, updates, where)


def _flatten(config: SimConfig):
    for key, (section, attr, _) in _SCHEMA.items():
        value = getattr(getattr(config, section), attr)
        if value is None:
            continue
        yield key, value


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)
