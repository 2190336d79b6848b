import numpy as np
import pytest

from biphoton_cavity import ingest_measured_jsi, run_single
from biphoton_cavity.cli import main
from biphoton_cavity.config import load_config

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
        expected = run_single(load_config(config_path)).input_entropy
        assert value == pytest.approx(expected, rel=1e-8)
        assert "# config.grid.points = 64" in out

    def test_bits_flag(self, config_path, capsys):
        assert main(["entropy", "--config", config_path, "--bits"]) == 0
        out = capsys.readouterr().out
        bits = float([l for l in out.splitlines() if l.startswith("entropy_bits")][0].split("=")[1])
        nats = run_single(load_config(config_path)).input_entropy
        assert bits == pytest.approx(nats / np.log(2.0), rel=1e-8)


class TestTransmitEntropyPipeline:
    def test_transformed_entropy_from_file(self, config_path, tmp_path, capsys):
        out_file = tmp_path / "transformed.csv"
        assert main(["transmit", "--config", config_path, "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["entropy", "--config", config_path, "--in", str(out_file)]) == 0
        out = capsys.readouterr().out
        value = float([l for l in out.splitlines() if l.startswith("entropy_nats")][0].split("=")[1])
        expected = run_single(load_config(config_path)).output_entropy
        assert value == pytest.approx(expected, abs=1e-5)

    def test_curve_export(self, config_path, tmp_path):
        curve_file = tmp_path / "curve.csv"
        assert main(["transmit", "--config", config_path, "--out", str(tmp_path / "j.csv"),
                     "--curve-out", str(curve_file)]) == 0
        assert curve_file.read_text().startswith("# format: curvev1")


class TestStateCommand:
    def test_writes_jsi_file(self, config_path, tmp_path):
        out_file = tmp_path / "state.csv"
        assert main(["state", "--config", config_path, "--out", str(out_file)]) == 0
        measured = ingest_measured_jsi(out_file)
        assert measured.intensity.shape == (64, 64)

    def test_stdout_when_no_out(self, config_path, capsys):
        assert main(["state", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# format: jsiv1")


class TestOverrides:
    def test_one_sided_override_preserves_jsi(self, config_path, tmp_path):
        a, b = tmp_path / "input.csv", tmp_path / "through.csv"
        assert main(["state", "--config", config_path, "--out", str(a)]) == 0
        assert main(["transmit", "--config", config_path, "--out", str(b),
                     "--cavity-override", "kind=one_sided"]) == 0
        jsi_in = ingest_measured_jsi(a).intensity
        jsi_out = ingest_measured_jsi(b).intensity
        assert np.max(np.abs(jsi_in - jsi_out)) <= 1e-8 * np.max(jsi_in)

    def test_bad_override_exits_1(self, config_path, capsys):
        assert main(["transmit", "--config", config_path, "--cavity-override", "q=1"]) == 1
        assert "unknown cavity key" in capsys.readouterr().err


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert main(["explode", "--config", "x"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_creates_no_file(self, config_path, tmp_path, capsys):
        out_file = tmp_path / "never.csv"
        assert main(["state", "--config", config_path, "--out", str(out_file), "--frobnicate"]) == 1
        assert not out_file.exists()
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["entropy", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.points = -3\n")
        assert main(["entropy", "--config", str(bad)]) == 1

    def test_unwritable_out_is_io_error(self, config_path, tmp_path, capsys):
        target = tmp_path / "no" / "dir" / "x.csv"
        assert main(["state", "--config", config_path, "--out", str(target)]) == 2


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

    def test_bad_values_spec(self, config_path, capsys):
        assert main(["sweep-coupling", "--config", config_path, "--values", "a:b"]) == 1


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
        for text in (
            "700,700,-1\n700,690,1\n690,700,1\n690,690,1\n",
            "700,700,1\n",
            "700,700,nan,0,1\n700,690,1,0,1\n690,700,1,0,1\n690,690,1,0,1\n",
        ):
            bad.write_text(text)
            assert main(["ingest", "--config", config_path, "--in", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and str(bad) in err


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


class TestOutDirEnv:
    def test_relative_out_prefixed(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIPHOTON_CAVITY_OUT_DIR", str(tmp_path))
        assert main(["entropy", "--config", config_path, "--out", "s.txt"]) == 0
        assert (tmp_path / "s.txt").exists()
