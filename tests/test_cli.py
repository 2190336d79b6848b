import itertools
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from biphoton_cavity import entropy_of, ingest_measured_jsi
from biphoton_cavity.cli import main
from biphoton_cavity.config import load_config
from biphoton_cavity.pipeline import input_state_from_config
from conftest import transmitted_state

SMALL_CFG = """
grid.points = 64
cavity.kind = two_sided
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


class TestEntropyCommand:
    def test_prints_entropy_line(self, config_path, capsys):
        assert main(["entropy", "--config", config_path]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("entropy_nats")][0]
        value = float(line.split("=")[1])
        expected = entropy_of(input_state_from_config(load_config(config_path)))
        assert value == pytest.approx(expected, rel=1e-8)
        assert "# config.grid.points = 64" in out

    def test_bits_flag(self, config_path, capsys):
        assert main(["entropy", "--config", config_path, "--bits"]) == 0
        out = capsys.readouterr().out
        bits = float([l for l in out.splitlines() if l.startswith("entropy_bits")][0].split("=")[1])
        nats = entropy_of(input_state_from_config(load_config(config_path)))
        assert bits == pytest.approx(nats / np.log(2.0), rel=1e-8)

    def test_separable_state_prints_plus_zero(self, tmp_path, capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text("grid.points = 3\n")
        assert main(["entropy", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "entropy_nats = 0"
        measured = tmp_path / "equal.csv"
        measured.write_text("# columns: signal_nm,idler_nm,re,im,intensity\n"
                            "700,700,1,0,1\n700,690,1,0,1\n690,700,1,0,1\n690,690,1,0,1\n")
        assert main(["ingest", "--config", str(cfg), "--in", str(measured)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "entropy_nats = 0"


    @pytest.mark.parametrize("extra, nats, bits, from_file", [
        ("", "0.249377769", "0.359776071", "0.249377737"),
        ("pump.bandwidth_nm = 0.7\nphase_matching.kind = gaussian\n"
         "phase_matching.width_nm = 5\nfilters.idler.center_nm = 690\n",
         "1.4531787", "2.09649371", "1.45317866"),
    ])
    def test_real_input_state_prints_the_complex_route_digits(self, tmp_path, capsys, extra,
                                                               nats, bits, from_file):
        # pinned from the complex128 input-state route; the real one must print the same
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_CFG + extra)
        state_file = tmp_path / "state.csv"
        for argv, line in ((["entropy"], f"entropy_nats = {nats}"),
                           (["entropy", "--bits"], f"entropy_bits = {bits}"),
                           (["state", "--out", str(state_file)], None),
                           (["entropy", "--in", str(state_file)], f"entropy_nats = {from_file}")):
            assert main([*argv, "--config", str(cfg)]) == 0
            out = capsys.readouterr().out
            assert line is None or out.splitlines()[-1] == line

    def test_intensity_only_file_prints_its_flag(self, config_path, tmp_path, capsys):
        measured = tmp_path / "m.csv"
        measured.write_text("700,700,1\n700,690,0.5\n690,700,0.5\n690,690,1\n")
        assert main(["entropy", "--config", config_path, "--in", str(measured)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:-1] == [f"# source: {measured}", "# flags: intensity-only lower-fidelity"]


class TestTransmitEntropyPipeline:
    def test_transformed_entropy_from_file(self, config_path, tmp_path, capsys):
        out_file = tmp_path / "transformed.csv"
        assert main(["transmit", "--config", config_path, "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["entropy", "--config", config_path, "--in", str(out_file)]) == 0
        out = capsys.readouterr().out
        value = float([l for l in out.splitlines() if l.startswith("entropy_nats")][0].split("=")[1])
        expected = entropy_of(transmitted_state(load_config(config_path)))
        assert value == pytest.approx(expected, abs=1e-5)

    def test_curve_export(self, config_path, tmp_path):
        curve_file = tmp_path / "curve.csv"
        assert main(["transmit", "--config", config_path, "--out", str(tmp_path / "j.csv"),
                     "--curve-out", str(curve_file)]) == 0
        assert curve_file.read_text().startswith("# format: curvev1")

    def test_empty_curve_out_is_refused_not_skipped(self, config_path, capsys, monkeypatch):
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        assert main(["transmit", "--config", config_path, "--curve-out="]) == 2
        assert capsys.readouterr().err == "i/o error: output path is a directory: .\n"


class TestStateCommand:
    def test_writes_jsi_file(self, config_path, tmp_path):
        out_file = tmp_path / "state.csv"
        assert main(["state", "--config", config_path, "--out", str(out_file)]) == 0
        measured, flags = ingest_measured_jsi(out_file)
        assert measured.amplitude.shape == (64, 64) and flags == ()

    def test_stdout_when_no_out(self, config_path, tmp_path, capsysbinary):
        from biphoton_cavity import dataio

        assert main(["state", "--config", config_path]) == 0
        out = capsysbinary.readouterr().out
        assert out.startswith(b"# format: jsiv1")
        assert out.count(b"\n") > dataio._BLOCK_CELLS  # crosses a block boundary
        out_file = tmp_path / "state.csv"
        assert main(["state", "--config", config_path, "--out", str(out_file)]) == 0
        assert out == out_file.read_bytes()


class TestOverrides:
    def test_one_sided_override_preserves_jsi(self, config_path, tmp_path):
        a, b = tmp_path / "input.csv", tmp_path / "through.csv"
        assert main(["state", "--config", config_path, "--out", str(a)]) == 0
        assert main(["transmit", "--config", config_path, "--out", str(b),
                     "--cavity-override", "kind=one_sided"]) == 0
        jsi_in = np.abs(ingest_measured_jsi(a)[0].amplitude) ** 2
        jsi_out = np.abs(ingest_measured_jsi(b)[0].amplitude) ** 2
        assert np.max(np.abs(jsi_in - jsi_out)) <= 1e-8 * np.max(jsi_in)

    def test_header_does_not_list_an_overridden_key_as_defaulted(self, config_path,
                                                                    capsysbinary):
        assert main(["state", "--config", config_path,
                     "--cavity-override", "emitter_damping_ratio=0.1"]) == 0
        out = capsysbinary.readouterr().out
        header = out[:out.index(b"# columns:")].split(b"\n")
        assert b"# config.cavity.emitter_damping_ratio = 0.1" in header
        defaulted = [line for line in header if line.startswith(b"# defaulted: ")]
        assert len(defaulted) == 1 and b"grid.center_nm" in defaulted[0]
        assert b"emitter_damping_ratio" not in defaulted[0]

    def test_reference_header_lists_only_keys_set_to_a_default(self, tmp_path):
        # phase_matching.width_nm has no default, so an omitted one is not defaulted
        reference = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"
        out_file = tmp_path / "state.csv"
        assert main(["state", "--config", str(reference), "--out", str(out_file)]) == 0
        with open(out_file, "rb") as handle:
            header = list(itertools.takewhile(lambda line: line.startswith(b"#"), handle))
        defaulted = [line for line in header if line.startswith(b"# defaulted: ")]
        assert defaulted == [b"# defaulted: cavity.emitter_damping_ratio\n"]

    def test_bad_override_exits_1(self, config_path, capsys):
        assert main(["transmit", "--config", config_path, "--cavity-override", "q=1"]) == 1
        assert "unknown cavity key" in capsys.readouterr().err

    @pytest.mark.parametrize("first, again", [("coupling_ratio=1", "coupling_ratio=2"),
                                              ("coupling_ratio=1", "cavity.coupling_ratio=1")])
    def test_repeated_override_key_exits_1(self, config_path, tmp_path, capsys, first, again):
        # as the config file refuses a repeated key, rather than keep the last value
        out_file = tmp_path / "t.csv"
        assert main(["transmit", "--config", config_path, "--out", str(out_file),
                     "--cavity-override", first, "--cavity-override", again]) == 1
        assert capsys.readouterr().err == (
            "error: --cavity-override: duplicate key 'cavity.coupling_ratio'\n")
        assert not out_file.exists()


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert main(["explode", "--config", "x"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: biphoton-cavity")
        assert "explode" in lines[0]

    def test_unknown_flag_creates_no_file(self, config_path, tmp_path, capsys):
        out_file = tmp_path / "never.csv"
        assert main(["state", "--config", config_path, "--out", str(out_file), "--frobnicate"]) == 1
        assert not out_file.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: biphoton-cavity")
        assert "--frobnicate" in lines[0]

    @pytest.mark.parametrize("argv, message", [
        (["transmit", "--config", "c.cfg", "--values=0"],
         "biphoton-cavity: unrecognized arguments: --values=0"),
        (["state"], "biphoton-cavity state: the following arguments are required: --config"),
        (["entropy", "--config", "c.cfg", "--in"],
         "biphoton-cavity entropy: argument --in: expected one argument"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["state", "--help"])
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: biphoton-cavity state ") and err == ""

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["entropy", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.points = -3\n")
        assert main(["entropy", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("argv", [
        ["state"], ["transmit", "--curve-out", "c.csv"], ["entropy", "--in", "missing.csv"],
        ["ingest", "--in", "missing.csv"], ["sweep-coupling", "--values=,"],
        ["sweep-pump", "--series=x"], ["sweep-detuning", "--values=1:0:1"],
    ], ids=lambda argv: argv[0])
    def test_the_config_is_loaded_once_and_refused_first(self, tmp_path, capsys, monkeypatch,
                                                          argv):
        """A bad config is refused before the command's own flags, its --in file
        and its output paths are looked at."""
        import biphoton_cavity.cli as cli

        loads = []
        monkeypatch.setattr(cli, "load_config", lambda path: loads.append(path) or load_config(path))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        (tmp_path / "dir").mkdir()
        (tmp_path / "bad.cfg").write_text("grid.points = 1\n")
        assert main([*argv, "--config", "bad.cfg", "--out", "dir"]) == 1
        assert capsys.readouterr().err == (
            "error: bad.cfg: grid.center_nm, grid.span_nm, grid.points: grid needs at least 2 points per axis\n")
        assert loads == ["bad.cfg"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.cfg", "dir"]

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(SMALL_CFG.encode() + b"# caf\xe9\n")
        assert main(["entropy", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {bad}:4: ")

    @pytest.mark.parametrize("setting, factor, key", [
        ("filters.signal.center_nm = 900", "signal filter", "filters.signal.center_nm"),
        ("filters.idler.center_nm = 500", "idler filter", "filters.idler.center_nm"),
        ("pump.center_down_nm = 900", "pump envelope", "pump.center_down_nm"),
        ("filters.signal.center_nm = 668\nfilters.signal.fwhm_nm = 0.5\n"
         "filters.idler.center_nm = 668\nfilters.idler.fwhm_nm = 0.5\npump.bandwidth_nm = 0.5",
         "do not overlap", "pump.bandwidth_nm"),
    ])
    def test_all_zero_input_names_factor_and_key(self, tmp_path, capsys, setting, factor, key):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SMALL_CFG + setting + "\n")
        for command in ("entropy", "state"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and factor in err and key in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("setting, key", [
        ("pump.bandwidth_nm = 1e-200", "pump.bandwidth_nm"),
        ("pump.bandwidth_nm = 1e-158", "pump.bandwidth_nm"),
        ("pump.bandwidth_nm = 1e-6", "pump.bandwidth_nm"),
        ("filters.signal.fwhm_nm = 1e-200", "filters.signal.fwhm_nm"),
        ("filters.signal.fwhm_nm = 1e-6", "filters.signal.fwhm_nm"),
        ("filters.idler.fwhm_nm = 1e-200", "filters.idler.fwhm_nm"),
        ("filters.idler.fwhm_nm = 1e-6", "filters.idler.fwhm_nm"),
        ("phase_matching.kind = gaussian\nphase_matching.width_nm = 1e-200",
         "phase_matching.width_nm"),
    ])
    def test_too_narrow_width_names_the_width_key(self, tmp_path, capsys, setting, key):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(SMALL_CFG + setting + "\n")
        for command in ("entropy", "state"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ") and key in err

    @pytest.mark.parametrize("setting, argv, key", [
        ("grid.span_nm = 1e-12", ["state"], "grid.span_nm"),
        ("", ["transmit", "--cavity-override", "kind=dicke",
              "--cavity-override", "coupling_ratio=1e9"], "cavity.coupling_ratio"),
        ("cavity.lifetime_fs = 1e-320", ["transmit"], "cavity.lifetime_fs"),
        ("", ["sweep-coupling", "--values=1"], "cavity.kind"),
    ])
    def test_bad_grid_or_cavity_names_the_key(self, tmp_path, capsys, setting, argv, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + setting + "\n")
        out_file = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and key in err
        assert not out_file.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["state", "ingest"])
    @pytest.mark.parametrize("setting", [
        # rules across keys, each kept by the spec or grid builder that uses the values
        "grid.center_nm = 3", "grid.center_nm = 1e300", "grid.span_nm = 2000",
        "grid.span_nm = 1e-12", "pump.center_down_nm = 3", "pump.bandwidth_nm = 400",
        "phase_matching.kind = gaussian",
        # centers outside the range of the nm to rad/fs conversions
        *(f"{key} = {value}" for key in ("filters.signal.center_nm", "filters.idler.center_nm",
                                         "pump.center_down_nm") for value in ("1e300", "1.7e308")),
        *(f"{key} = {value}" for key in ("filters.signal.center_nm", "filters.idler.center_nm")
          for value in ("1e-320", "5e-324")),
    ])
    def test_parse_refusal_names_the_file_and_the_key_set_in_it(self, tmp_path, capsys, setting,
                                                                command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + setting + "\n")
        measured = tmp_path / "two.csv"
        measured.write_text("# columns: signal_nm,idler_nm,intensity\n"
                            "700,700,1\n700,690,1\n690,700,1\n690,690,2\n")
        out_file = tmp_path / "o"
        extra = ["--in", str(measured)] if command == "ingest" else []
        assert main([command, "--config", str(cfg), "--out", str(out_file), *extra]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {cfg}: ")
        assert setting.partition(" =")[0] in err
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["state", "entropy", "ingest"])
    @pytest.mark.parametrize("setting", ["", "phase_matching.kind = flat\n"])
    def test_width_under_flat_phase_matching_is_refused(self, tmp_path, capsys, setting, command):
        # the flat envelope never reads the width, so an output header must not echo one
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(f"grid.points = 16\n{setting}phase_matching.width_nm = 1e300\n")
        measured = tmp_path / "two.csv"
        measured.write_text("# columns: signal_nm,idler_nm,intensity\n"
                            "700,700,1\n700,690,1\n690,700,1\n690,690,2\n")
        out_file = tmp_path / "o"
        extra = ["--in", str(measured)] if command == "ingest" else []
        assert main([command, "--config", str(cfg), "--out", str(out_file), *extra]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: phase_matching.kind, phase_matching.width_nm: "
            "flat phase matching reads no width_nm\n")
        assert not out_file.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", ["cavity.lifetime_fs", "cavity.center_nm", "cavity.emitter_nm"])
    @pytest.mark.parametrize("argv", [
        ["transmit"], ["sweep-coupling", "--values=1"], ["sweep-pump", "--values=1,2"],
        ["sweep-detuning", "--values=0"],
    ])
    def test_subnormal_cavity_value_names_the_key(self, tmp_path, capsys, argv, key):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text(SMALL_CFG.replace("two_sided", "dicke") + f"{key} = 1e-320\n")
        out_file = tmp_path / "o"
        assert main([*argv, "--config", str(cfg), "--out", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and key in err
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["state", "entropy"])
    def test_out_of_memory_names_grid_points(self, config_path, capsys, monkeypatch, command):
        import biphoton_cavity.cli as cli

        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "input_state_from_config", no_memory)
        assert main([command, "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "grid.points" in err
        assert "Traceback" not in err

    def test_unwritable_out_is_io_error(self, config_path, tmp_path, capsys):
        target = tmp_path / "no" / "dir" / "x.csv"
        assert main(["state", "--config", config_path, "--out", str(target)]) == 2

    @pytest.mark.parametrize("command", [["state"], ["sweep-detuning", "--values=0,1"]])
    @pytest.mark.parametrize("out", ["dir", ".", "", "ABSOLUTE", "new/"])
    def test_out_naming_a_directory_is_refused(self, tmp_path, capsys, monkeypatch, command, out):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        (tmp_path / "dir").mkdir()
        (tmp_path / "dicke.cfg").write_text("grid.points = 16\ncavity.kind = dicke\n")
        out = str(tmp_path / "dir") if out == "ABSOLUTE" else out
        assert main([*command, "--config", "dicke.cfg", "--out", out]) == 2
        assert capsys.readouterr().err == f"i/o error: output path is a directory: {out or '.'}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dicke.cfg", "dir"]

    @pytest.mark.parametrize("out", ["f.csv/", "f.csv/."])
    def test_out_ending_in_a_separator_leaves_the_file_there(self, tmp_path, capsys, monkeypatch,
                                                               out):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        (tmp_path / "dicke.cfg").write_text("grid.points = 16\ncavity.kind = dicke\n")
        (tmp_path / "f.csv").write_text("kept\n")
        assert main(["sweep-detuning", "--values=0,1", "--config", "dicke.cfg", "--out", out]) == 2
        assert capsys.readouterr().err == f"i/o error: output path is a directory: {out}\n"
        assert (tmp_path / "f.csv").read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dicke.cfg", "f.csv"]

    @pytest.mark.parametrize("curve_out, message", [
        (".", "output path is a directory: ."),
        ("nowhere/c.csv", "output directory does not exist: nowhere"),
    ])
    def test_refused_curve_out_leaves_no_out_file(self, tmp_path, capsys, monkeypatch,
                                                  curve_out, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        (tmp_path / "dicke.cfg").write_text("grid.points = 16\ncavity.kind = dicke\n")
        assert main(["transmit", "--config", "dicke.cfg", "--out", "t2.csv",
                     "--curve-out", curve_out]) == 2
        assert capsys.readouterr().err == f"i/o error: {message}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dicke.cfg"]

    @pytest.mark.parametrize("command", ["sweep-coupling", "sweep-pump", "sweep-detuning"])
    @pytest.mark.parametrize("out, message", [
        ("dir", "output path is a directory: dir"),
        ("nowhere/s.csv", "output directory does not exist: nowhere"),
    ])
    def test_refused_out_runs_no_sweep_point(self, tmp_path, capsys, monkeypatch, command, out,
                                             message):
        import biphoton_cavity.sweep as sweep

        calls = []
        transfer_for = sweep.transfer_for
        monkeypatch.setattr(sweep, "transfer_for",
                            lambda model, axis: calls.append(model) or transfer_for(model, axis))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        (tmp_path / "dir").mkdir()
        (tmp_path / "dicke.cfg").write_text("grid.points = 16\ncavity.kind = dicke\n")
        assert main([command, "--config", "dicke.cfg", "--out", out]) == 2
        assert capsys.readouterr().err == f"i/o error: {message}\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dicke.cfg", "dir"]

    @pytest.mark.parametrize("command", ["sweep-coupling", "sweep-pump", "sweep-detuning"])
    def test_sweep_points_run_before_the_out_file_is_made(self, tmp_path, monkeypatch, command):
        """No temporary file sits beside --out while the sweep runs, so a sweep
        that is killed leaves nothing behind."""
        import biphoton_cavity.sweep as sweep

        listings = []
        transfer_for = sweep.transfer_for
        monkeypatch.setattr(sweep, "transfer_for", lambda model, axis: listings.append(
            sorted(p.name for p in tmp_path.iterdir())) or transfer_for(model, axis))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        (tmp_path / "dicke.cfg").write_text("grid.points = 16\ncavity.kind = dicke\n")
        assert main([command, "--config", "dicke.cfg", "--out", "s.csv"]) == 0
        assert listings and all(names == ["dicke.cfg"] for names in listings)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dicke.cfg", "s.csv"]

    def test_out_naming_a_fifo_is_refused_and_left_a_fifo(self, config_path, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        assert main(["entropy", "--config", config_path, "--out", str(fifo)]) == 2
        assert capsys.readouterr().err == f"i/o error: output path is not a regular file: {fifo}\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "small.cfg"]

    @pytest.mark.parametrize("curve_out", ["x.csv", "./x.csv", "ABSOLUTE"])
    def test_two_outputs_naming_one_file_are_refused(self, tmp_path, capsys, monkeypatch,
                                                     curve_out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dicke.cfg").write_text("grid.points = 16\ncavity.kind = dicke\n")
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "x.csv").write_text("kept\n")
        if curve_out == "ABSOLUTE":  # --out reaches the same file through the out dir
            monkeypatch.setenv("BIPHOTON_CAVITY_OUT_DIR", str(tmp_path / "out"))
            curve_out = str(tmp_path / "out" / "x.csv")
        else:
            monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
            monkeypatch.chdir(tmp_path / "out")
        assert main(["transmit", "--config", str(tmp_path / "dicke.cfg"), "--out", "x.csv",
                     "--curve-out", curve_out]) == 2
        clash = tmp_path / "out" / "x.csv"  # tmp_path is resolved, so it is also the cwd's form
        assert capsys.readouterr().err == f"i/o error: two outputs name the same file: {clash}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dicke.cfg", "out", "x.csv"]
        assert (tmp_path / "out" / "x.csv").read_text() == "kept\n"

    def test_a_link_and_its_target_are_two_outputs(self, tmp_path, monkeypatch):
        """An export replaces a link at its path, not the link's target."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("BIPHOTON_CAVITY_OUT_DIR", raising=False)
        (tmp_path / "dicke.cfg").write_text("grid.points = 16\ncavity.kind = dicke\n")
        (tmp_path / "t.csv").write_text("old\n")
        (tmp_path / "link.csv").symlink_to("t.csv")
        assert main(["transmit", "--config", "dicke.cfg", "--out", "link.csv",
                     "--curve-out", "t.csv"]) == 0
        assert not (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "link.csv").read_text().startswith("# format: jsiv1\n")
        assert (tmp_path / "t.csv").read_text().startswith("# format: curvev1\n")

    def test_out_under_a_file_names_that_file(self, config_path, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x\n")
        assert main(["state", "--config", config_path, "--out", str(taken / "x.csv")]) == 2
        assert capsys.readouterr().err == f"i/o error: output directory is not a directory: {taken}\n"
        assert taken.read_text() == "x\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg", "taken"]


class TestSweepCommands:
    def test_sweep_coupling_with_values(self, config_path, tmp_path):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text(SMALL_CFG.replace("two_sided", "dicke"))
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep-coupling", "--config", str(cfg), "--out", str(out_file),
                     "--values", "0.6,1.0", "--series", "0"]) == 0
        rows = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        assert rows[0].split(",")[0] == "cavity_detuning_nm"

    def test_sweep_pump_range_spec(self, config_path, tmp_path):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 48\ncavity.kind = dicke\n")
        out_file = tmp_path / "pump.csv"
        assert main(["sweep-pump", "--config", str(cfg), "--out", str(out_file),
                     "--values", "4:8:2", "--series", "1.0"]) == 0
        text = out_file.read_text()
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        # 3 sweep rows + 6 reference rows (input + empty_cavity per bandwidth)
        assert len(rows) == 9
        assert sum("reference:input" in r for r in rows) == 3

    def test_sweep_detuning_defaults(self, config_path, tmp_path):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 48\ncavity.kind = dicke\n")
        out_file = tmp_path / "det.csv"
        assert main(["sweep-detuning", "--config", str(cfg), "--out", str(out_file)]) == 0
        rows = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 5

    def test_negative_values_need_equals_form(self, tmp_path):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 48\ncavity.kind = dicke\n")
        out_file = tmp_path / "det.csv"
        assert main(["sweep-detuning", "--config", str(cfg), "--out", str(out_file),
                     "--values=-2:2:2", "--series=0.75"]) == 0
        rows = [l.split(",") for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert [(r[0], r[1], r[3]) for r in rows] == [
            ("coupling_ratio", "0.75", v) for v in ("-2", "0", "2")]

    @pytest.mark.parametrize("command", ["sweep-coupling", "sweep-pump", "sweep-detuning"])
    @pytest.mark.parametrize("flag", ["--values", "--series"])
    def test_empty_list_is_refused_not_defaulted(self, tmp_path, capsys, command, flag):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 16\ncavity.kind = dicke\n")
        out_file = tmp_path / "sweep.csv"
        assert main([command, "--config", str(cfg), "--out", str(out_file), f"{flag}="]) == 1
        assert capsys.readouterr().err == f"error: {flag}: expected numbers, got ''\n"
        assert not out_file.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_pump_bandwidth_names_the_swept_value(self, tmp_path, capsys):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 32\ncavity.kind = dicke\n")
        out_file = tmp_path / "pump.csv"
        assert main(["sweep-pump", "--config", str(cfg), "--out", str(out_file),
                     "--values=1e-300,1", "--series=1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: pump_bandwidth_nm value 1e-300: ")
        assert not out_file.exists()

    @pytest.mark.parametrize("values, zero", [
        ("--values=0,1", "0"), ("--values=-0,1", "-0"), ("--values=0:1:0.5", "0"),
    ])
    def test_zero_coupling_row_reads_the_empty_cavity_reference(self, tmp_path, values, zero):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 16\ncavity.kind = dicke\n")
        out_file = tmp_path / "coupling.csv"
        assert main(["sweep-coupling", "--config", str(cfg), "--out", str(out_file),
                     values, "--series=0"]) == 0
        lines = out_file.read_text().splitlines()
        empty = next(l for l in lines if l.startswith("# reference.empty_cavity_entropy_nats: "))
        row = [l for l in lines if not l.startswith("#")][0].split(",")
        assert row[3] == zero and row[4] == empty.rpartition(" ")[2] and row[6] == "weak_coupling"

    @pytest.mark.parametrize("argv, message", [
        (["sweep-coupling", "--values=1", "--series=0,0"],
         "cavity_detuning_nm value 0: repeated in the series"),
        (["sweep-pump", "--values=1", "--series=1,2,1"],
         "coupling_ratio value 1: repeated in the series"),
        (["sweep-coupling", "--values=2,1"],
         "coupling_ratio value 1: sweep values must be strictly increasing"),
        (["sweep-pump", "--values=1,2,2", "--series=1"],
         "pump_bandwidth_nm value 2: sweep values must be strictly increasing"),
    ])
    def test_repeated_or_backward_values_name_the_value(self, tmp_path, capsys, argv, message):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 16\ncavity.kind = dicke\n")
        out_file = tmp_path / "sweep.csv"
        assert main([*argv, "--config", str(cfg), "--out", str(out_file)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_file.exists()

    def test_oversize_table_is_refused_before_any_point_runs(self, tmp_path, capsys,
                                                             monkeypatch):
        import biphoton_cavity.cli as cli

        def refuse(plan):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 16\ncavity.kind = dicke\n")
        out_file = tmp_path / "coupling.csv"
        assert main(["sweep-coupling", "--config", str(cfg), "--out", str(out_file),
                     "--values=0.5:3:0.0005", "--series=0,1"]) == 1
        assert capsys.readouterr().err == ("error: coupling_ratio x cavity_detuning_nm: 5001 x 2 "
                                           "points; the limit is 10000\n")
        assert not out_file.exists()

    def test_bad_values_spec(self, config_path, capsys):
        for command, flag, spec, extra in (
            ("sweep-coupling", "--values", "a:b", []),
            ("sweep-coupling", "--values", "a:b:c", []),
            ("sweep-coupling", "--series", "a:1:1", []),
            ("sweep-coupling", "--values", "1,x", []),
            ("sweep-pump", "--values", "nan", ["--cavity-override=kind=dicke"]),
            ("sweep-pump", "--values", "1,inf", ["--cavity-override=kind=dicke"]),
            ("sweep-coupling", "--series", "nan", ["--values=1.0", "--cavity-override=kind=dicke"]),
            ("sweep-coupling", "--values", "1e307:1.7e308:1e307", ["--cavity-override=kind=dicke"]),
        ):
            argv = [command, "--config", config_path, f"{flag}={spec}", *extra]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"error: {flag}: ")
        # too wide for the pump spec: refused by the sweep plan, naming the value and the key
        argv = ["sweep-pump", "--config", config_path, "--values=1,400", "--series=1",
                "--cavity-override=kind=dicke"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "400" in err and "pump.center_down_nm" in err

    @pytest.mark.parametrize("argv, named", [
        (["sweep-pump", "--values=1,2", "--series=-1"], "coupling_ratio value -1"),
        (["sweep-coupling", "--values=1", "--series=-700"], "cavity_detuning_nm value -700"),
        (["sweep-detuning", "--values=-1000,1"], "cavity_detuning_nm value -1000"),
        (["sweep-coupling", "--values=1e9"], "coupling_ratio value 1e+09"),
    ])
    def test_bad_cavity_values_refused_before_state_work(self, config_path, capsys, monkeypatch,
                                                         argv, named):
        import biphoton_cavity.pipeline as pipeline

        def refuse(*args, **kwargs):
            raise AssertionError("input state composed")

        monkeypatch.setattr(pipeline, "compose_input_state", refuse)
        argv = [*argv, "--config", config_path, "--cavity-override=kind=dicke"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("flag, spec", [
        ("--values", "0.5:1e8:1e-9"),
        ("--series", "0:1e300:1e-300"),
        ("--values", "0:1:0.0000999"),
        ("--values", "-1e308:1e308:1"),
        ("--series", "0:inf:1"),
        ("--values", "nan:1:0.1"),
        ("--values", "0:1:inf"),
    ])
    def test_huge_or_non_finite_range_refused_before_allocating(self, config_path, capsys,
                                                               monkeypatch, flag, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("np.arange called")

        monkeypatch.setattr(np, "arange", refuse)
        assert main(["sweep-coupling", "--config", config_path, f"{flag}={spec}"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("flag, spec", [
        ("--values", "3:1:0.5"), ("--values", "1:3:0"), ("--values", "1:3:-0.5"),
        ("--series", "3:1:1"),
    ])
    def test_backward_or_stalled_range_is_a_bad_range(self, config_path, capsys, flag, spec):
        assert main(["sweep-coupling", "--config", config_path, f"{flag}={spec}"]) == 1
        assert capsys.readouterr().err == f"error: {flag}: bad range {spec!r}\n"

    def test_range_at_the_point_limit_is_accepted(self):
        from biphoton_cavity.cli import MAX_SWEEP_POINTS, _parse_values

        values = _parse_values(f"1:{MAX_SWEEP_POINTS}:1", "--values")
        assert len(values) == MAX_SWEEP_POINTS and values[-1] == MAX_SWEEP_POINTS

    @pytest.mark.parametrize("spec, value", [
        ("5:5:1", 5.0), ("1:1:1e-300", 1.0), ("1e20:1e20:1", 1e20),
        ("0.1234567890123:0.1234567890123:1", 0.123456789012),  # rounded to 12 decimals
    ])
    def test_range_whose_start_is_its_stop_is_that_value(self, spec, value):
        from biphoton_cavity.cli import _parse_values

        assert _parse_values(spec, "--values") == (value,)

    SPECS = {"sweep-coupling": ("--values=0.5:3:0.05", "--series=-4,-2,0,2,4"),
             "sweep-pump": ("--values=0.5:10:0.25", "--series=0.75,1,1.35,2"),
             "sweep-detuning": ("--values=-4,-2,0,2,4",)}

    @pytest.mark.parametrize("command", SPECS)
    def test_defaults_are_the_specs_typed_out(self, tmp_path, command):
        cfg = tmp_path / "dicke.cfg"
        cfg.write_text("grid.points = 32\ncavity.kind = dicke\n")
        outputs = []
        for flags in ((), self.SPECS[command]):
            outputs.append(tmp_path / f"sweep{len(outputs)}.csv")
            assert main([command, "--config", str(cfg), "--out", str(outputs[-1]), *flags]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    @pytest.mark.parametrize("command", SPECS)
    def test_help_names_the_defaults(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
        for spec in self.SPECS[command]:
            assert f"(default: {spec.partition('=')[2]})" in out
        for flag in ("--values VALUES sweep", "--series SERIES series"):  # a range or a list
            assert f"{flag} values: start:stop:step or v1,v2,..." in out
        if command == "sweep-detuning":
            assert "(default: one series at the configured value)" in out

    def test_default_ranges_are_the_benchmark_lists(self):
        """Float for float, the lists the benchmark's seed-0 sweeps are checked against."""
        from biphoton_cavity.cli import _parse_values, build_parser

        for command, step, count in (("sweep-coupling", 0.05, 51), ("sweep-pump", 0.25, 39)):
            args = build_parser().parse_args([command, "--config", "unused.cfg"])
            expected = [round(0.5 + step * k, 10) for k in range(count)]
            assert [v.hex() for v in _parse_values(args.values, "--values")] == [
                v.hex() for v in expected]


class TestIngestCommand:
    def test_ingest_reports_entropy_and_flag(self, config_path, tmp_path, capsys):
        measured = tmp_path / "m.csv"
        measured.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,1\n700,690,0.5\n690,700,0.5\n690,690,1\n"
        )
        assert main(["ingest", "--config", config_path, "--in", str(measured)]) == 0
        out = capsys.readouterr().out
        assert "intensity-only lower-fidelity" in out
        assert "entropy_nats" in out

    def test_ingest_rejects_bad_file(self, config_path, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        for data, where in (
            (b"700,700,-1\n700,690,1\n690,700,1\n690,690,1\n", ":1: "),
            (b"700,700,1\n", ": "),
            (b"700,700,nan,0,1\n700,690,1,0,1\n690,700,1,0,1\n690,690,1,0,1\n", ":1: "),
            (b"# columns: signal_nm,idler_nm,intensity\n700,700,\xff\n", ":2: "),
            (b"700,700,0\n700,690,0\n690,700,0\n690,690,0\n", ": "),  # all zero
            (b"700,700,0,0,1\n700,690,0,0,1\n690,700,0,0,1\n690,690,0,0,1\n", ": "),  # re/im zero
            # idler axis 700, 710, 705: not monotone
            (b"700,700,1\n700,710,1\n700,705,1\n690,700,1\n690,710,1\n690,705,1\n", ": "),
            (b"0,700,1\n0,690,1\n-10,700,1\n-10,690,1\n", ": "),  # wavelengths not positive
            (b"700,5,1\n700,0,1\n690,5,1\n690,0,1\n", ": "),
            # a wavelength so small that its frequency overflows
            (b"1e-320,700,1\n1e-320,690,1\n690,700,1\n690,690,1\n", ": "),
            # distinct wavelengths whose frequencies round equal
            (b"1e15,700,1\n1e15,690,1\n1000000000000000.125,700,1\n"
             b"1000000000000000.125,690,1\n", ": "),
        ):
            bad.write_bytes(data)
            assert main(["ingest", "--config", config_path, "--in", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{bad}{where}" in err

    @pytest.mark.parametrize("data", [b"", b"# format: jsiv1\n# columns: signal_nm,idler_nm,"
                                      b"re,im,intensity\n"], ids=["empty", "header only"])
    @pytest.mark.parametrize("command", ["ingest", "entropy"])
    def test_a_file_without_data_rows_is_one_line(self, config_path, tmp_path, capsys, command,
                                                  data):
        measured = tmp_path / "m.csv"
        measured.write_bytes(data)
        assert main([command, "--config", config_path, "--in", str(measured)]) == 1
        assert capsys.readouterr().err == f"error: {measured}: no data rows\n"

    @pytest.mark.parametrize("command", ["ingest", "entropy"])
    def test_a_map_past_the_row_bound_is_one_line(self, config_path, tmp_path, capsys,
                                                  monkeypatch, command):
        from biphoton_cavity import dataio

        monkeypatch.setattr(dataio, "_MAX_ROWS", 3)
        measured = tmp_path / "m.csv"
        measured.write_text("700,700,1\n700,690,0.5\n690,700,0.5\n690,690,1\n")
        assert main([command, "--config", config_path, "--in", str(measured)]) == 1
        assert capsys.readouterr().err == (
            f"error: {measured}:4: more than 3 data rows, the cells of the largest grid\n")

    @pytest.mark.parametrize("export", ["state", "transmit"])
    def test_a_byte_order_mark_leaves_the_reports_as_they_were(self, config_path, tmp_path,
                                                               monkeypatch, export):
        for name in ("plain", "marked"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "plain")
        assert main([export, "--config", config_path, "--out", "m.csv"]) == 0
        (tmp_path / "marked" / "m.csv").write_bytes(b"\xef\xbb\xbf" + Path("m.csv").read_bytes())
        reports = {}
        for name in ("plain", "marked"):
            monkeypatch.chdir(tmp_path / name)
            for command in ("ingest", "entropy"):
                assert main([command, "--config", config_path, "--in", "m.csv",
                             "--out", f"{command}.txt"]) == 0
                reports[name, command] = Path(f"{command}.txt").read_bytes()
        for command in ("ingest", "entropy"):
            assert reports["marked", command] == reports["plain", command]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("data, entropy", [
        # re/im at the float limit: weighting must not overflow to a silent 0
        (b"1,1,1e308,1e308,1e308\n1,2,1,1,1\n2,1,1,1,1\n2,2,1e308,0,1\n", "0.636514168"),
        (b"700,700,1.7e308,1.7e308,1\n700,690,0,0,1\n690,700,0,0,1\n690,690,1.7e308,0,1\n",
         "0.636514168"),
        # the smallest subnormal: weighting must not underflow to an all-zero map
        (b"700,700,5e-324,0,1\n700,690,0,0,1\n690,700,0,0,1\n690,690,5e-324,0,1\n",
         "0.693147181"),
    ], ids=["max-on-1-2-nm", "max-on-690-700-nm", "subnormal"])
    @pytest.mark.parametrize("command", ["ingest", "entropy"])
    def test_entropy_of_amplitudes_at_the_float_limits(self, config_path, tmp_path, capsys,
                                                       command, data, entropy):
        measured = tmp_path / "m.csv"
        measured.write_bytes(data)
        assert main([command, "--config", config_path, "--in", str(measured)]) == 0
        assert f"\nentropy_nats = {entropy}\n" in capsys.readouterr().out

    def test_jsiv1_files_never_reach_the_fallback_parser(self, config_path, tmp_path,
                                                        monkeypatch):
        from biphoton_cavity import dataio

        calls = []
        parse_rows = dataio._parse_rows
        monkeypatch.setattr(dataio, "_parse_rows", lambda *a: calls.append(a) or parse_rows(*a))
        for command in ("state", "transmit"):
            data = tmp_path / f"{command}.csv"
            assert main([command, "--config", config_path, "--out", str(data)]) == 0
            assert main(["ingest", "--config", config_path, "--in", str(data)]) == 0
            assert main(["entropy", "--config", config_path, "--in", str(data)]) == 0
        assert calls == []
        odd = tmp_path / "odd.csv"  # float() reads 1_0; np.loadtxt does not
        odd.write_text("700,700,1_0\n700,690,1\n690,700,1\n690,690,1\n")
        assert main(["ingest", "--config", config_path, "--in", str(odd)]) == 0
        assert len(calls) == 1


class TestLazyEntropy:
    def test_state_and_transmit_run_no_svd(self, config_path, tmp_path, monkeypatch):
        import biphoton_cavity.schmidt as schmidt

        calls = []
        decompose = schmidt.schmidt_decompose
        monkeypatch.setattr(schmidt, "schmidt_decompose",
                            lambda state: calls.append(state) or decompose(state))
        assert main(["state", "--config", config_path, "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["transmit", "--config", config_path, "--out", str(tmp_path / "t.csv"),
                     "--curve-out", str(tmp_path / "c.csv")]) == 0
        assert calls == []
        assert main(["entropy", "--config", config_path, "--out", str(tmp_path / "e.txt")]) == 0
        assert len(calls) == 1

    def test_state_and_entropy_build_no_transfer(self, config_path, tmp_path, monkeypatch):
        import biphoton_cavity.cli as cli
        import biphoton_cavity.pipeline as pipeline

        def refuse(*args, **kwargs):
            raise AssertionError("idler transfer built or applied")

        for module in (cli, pipeline):
            for name in ("transfer_for", "apply_idler_transfer"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert main(["state", "--config", config_path, "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["entropy", "--config", config_path, "--out", str(tmp_path / "e.txt")]) == 0


class TestOutDirEnv:
    def test_relative_out_prefixed(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIPHOTON_CAVITY_OUT_DIR", str(tmp_path))
        assert main(["entropy", "--config", config_path, "--out", "s.txt"]) == 0
        assert (tmp_path / "s.txt").exists()
