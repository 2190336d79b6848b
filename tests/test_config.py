import dataclasses
import math
import re
from pathlib import Path

import pytest

from biphoton_cavity import ConfigError, load_config, parse_config_text
from biphoton_cavity.config import MAX_GRID_ARRAY_BYTES, apply_overrides

REFERENCE_TEXT = """
grid.center_nm = 685
grid.span_nm = 40
grid.points = 512
pump.center_down_nm = 685
pump.bandwidth_nm = 6
pump.bandwidth_convention = at_degeneracy
phase_matching.kind = flat
filters.signal.center_nm = 685
filters.signal.fwhm_nm = 8
filters.idler.center_nm = 685
filters.idler.fwhm_nm = 8
cavity.kind = two_sided
cavity.center_nm = 685
cavity.lifetime_fs = 150
cavity.coupling_ratio = 1.0
cavity.emitter_nm = 685
"""


class TestParsing:
    def test_reference_values(self):
        config = parse_config_text(REFERENCE_TEXT)
        assert config.grid.center_nm == 685.0
        assert config.grid.points == 512
        assert config.pump.bandwidth_nm == 6.0
        assert config.signal_filter.fwhm_nm == 8.0
        assert config.idler_filter.fwhm_nm == 8.0
        assert config.cavity.lifetime_fs == 150.0
        assert config.cavity.kind == "two_sided"

    def test_empty_text_gives_documented_defaults(self):
        config = parse_config_text("")
        assert config.grid.center_nm == 685.0
        assert config.grid.span_nm == 40.0
        assert config.grid.points == 512
        assert config.pump.bandwidth_nm == 6.0
        assert config.signal_filter.fwhm_nm == 8.0
        assert config.cavity.lifetime_fs == 150.0
        # every schema key that has a default was defaulted and is echoed in metadata
        assert "grid.center_nm" in config.applied_defaults
        assert "cavity.kind" in config.applied_defaults
        assert len(config.applied_defaults) == 17

    def test_comments_and_blank_lines(self):
        config = parse_config_text("# a comment\n\ngrid.points = 64  # trailing\n")
        assert config.grid.points == 64
        assert "grid.points" not in config.applied_defaults

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"(?s)3.*grid\.sixe_nm"):
            parse_config_text("\n\ngrid.sixe_nm = 12\n", source="<test>")

    def test_negative_coupling_names_key(self):
        with pytest.raises(ConfigError, match=r"cavity\.coupling_ratio"):
            parse_config_text("cavity.coupling_ratio = -1\n")

    def test_bad_number_names_key(self):
        for key, raw in (
            ("grid.points", "many"),
            ("cavity.coupling_ratio", "nan"),
            ("cavity.emitter_damping_ratio", "nan"),
            ("cavity.lifetime_fs", "inf"),
            ("grid.span_nm", "nan"),
            ("cavity.coupling_ratio", "inf"),
        ):
            with pytest.raises(ConfigError, match=re.escape(repr(key))):
                parse_config_text(f"{key} = {raw}\n")
        with pytest.raises(ConfigError, match=r"cavity\.coupling_ratio.*finite"):
            apply_overrides(parse_config_text(""), ["coupling_ratio=nan"])

    def test_grid_points_memory_guard(self):
        # parse only: no grid of these sizes is ever built
        largest = math.isqrt(MAX_GRID_ARRAY_BYTES // 16)
        assert parse_config_text(f"grid.points = {largest}\n").grid.points == largest == 8192
        assert parse_config_text("grid.points = 2048\n").grid.points == 2048
        for points in (largest + 1, 200000):
            with pytest.raises(ConfigError, match=rf"'grid\.points'.*{16 * points * points} bytes"):
                parse_config_text(f"grid.points = {points}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("grid.points = 4\ngrid.points = 8\n")

    def test_missing_assignment_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("grid.points\n")

    def test_gaussian_pm_requires_width(self):
        with pytest.raises(ConfigError, match=r"phase_matching\.width_nm"):
            parse_config_text("phase_matching.kind = gaussian\n")
        config = parse_config_text("phase_matching.kind = gaussian\nphase_matching.width_nm = 5\n")
        assert config.phase_matching.width_nm == 5.0

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError, match=r"pump\.bandwidth_convention"):
            parse_config_text("pump.bandwidth_convention = at_random\n")
        with pytest.raises(ConfigError, match=r"cavity\.kind"):
            parse_config_text("cavity.kind = three_sided\n")


class TestEchoRoundTrip:
    def test_echo_reparses_to_same_config(self):
        config = parse_config_text(REFERENCE_TEXT)
        echoed = parse_config_text("\n".join(config.echo_lines()))
        assert echoed == config  # applied_defaults excluded from comparison

    def test_echo_deterministic(self):
        a = parse_config_text(REFERENCE_TEXT).echo_lines()
        b = parse_config_text(REFERENCE_TEXT).echo_lines()
        assert a == b


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(REFERENCE_TEXT)
        config = load_config(path)
        assert config.grid.points == 512

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")

    def test_repo_reference_config_parses(self):
        config = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.cfg")
        assert config.pump.bandwidth_convention == "at_degeneracy"
        assert config.grid.points == 512


class TestOverrides:
    def test_cavity_override(self):
        config = parse_config_text(REFERENCE_TEXT)
        out = apply_overrides(config, ["kind=dicke", "coupling_ratio=1.5"])
        assert out.cavity.kind == "dicke"
        assert out.cavity.coupling_ratio == 1.5
        assert out.pump == config.pump

    def test_overridden_key_is_no_longer_defaulted(self):
        config = parse_config_text("grid.points = 64\n")
        assert "cavity.emitter_damping_ratio" in config.applied_defaults
        out = apply_overrides(config, ["emitter_damping_ratio=0.1", "cavity.kind=dicke"])
        assert out.applied_defaults == tuple(
            key for key in config.applied_defaults
            if key not in ("cavity.emitter_damping_ratio", "cavity.kind"))

    def test_unknown_override_rejected(self):
        config = parse_config_text(REFERENCE_TEXT)
        with pytest.raises(ConfigError, match="unknown cavity key"):
            apply_overrides(config, ["flavor=sour"])
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            apply_overrides(config, ["kind"])

    def test_non_cavity_override_rejected(self):
        config = parse_config_text(REFERENCE_TEXT)
        with pytest.raises(ConfigError):
            apply_overrides(config, ["grid.points=64"])

    def test_cavity_the_model_refuses_is_refused_naming_the_section(self):
        keys = ("cavity.kind, cavity.center_nm, cavity.lifetime_fs, cavity.coupling_ratio, "
                "cavity.emitter_nm, cavity.emitter_damping_ratio")
        with pytest.raises(ConfigError) as parsed:
            parse_config_text("cavity.kind = dicke\ncavity.coupling_ratio = 1e9\n",
                              source="run.cfg")
        assert str(parsed.value) == (
            f"run.cfg: {keys}: lambda_c is at or beyond the Dicke critical point")
        with pytest.raises(ConfigError) as overridden:
            apply_overrides(parse_config_text(REFERENCE_TEXT), ["kind=dicke", "emitter_nm=1e-320"],
                            where="--cavity-override")
        assert str(overridden.value) == (
            f"--cavity-override: {keys}: wavelength must be finite and positive, "
            "with a finite frequency (nm)")

    def test_configs_are_frozen(self):
        config = parse_config_text(REFERENCE_TEXT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.grid = None
