import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cavity import (
    BiphotonAmplitude,
    CavityModel,
    FrequencyGrid,
    SweepPlan,
    TransferCurve,
    apply_idler_transfer,
    ingest_measured_jsi,
    measured_entropy,
    omega_from_wavelength,
    parse_config_text,
    run_sweep,
    transfer_for,
    wavelength_from_omega,
)
from biphoton_cavity import _blockfmt, dataio
from biphoton_cavity.cli import main
from biphoton_cavity.config import load_config
from biphoton_cavity.dataio import INTENSITY_ONLY_FLAG, render_curve, render_jsi, render_sweep
from biphoton_cavity.pipeline import input_state_from_config
from biphoton_cavity.schmidt import entropy_of
from test_cavity import GAMMA, W0, dicke
from test_sweep import small_config
from conftest import make_input_state, transmitted_state


class TestJsiRoundTrip:
    def test_intensity_round_trips_within_print_precision(self, tmp_path):
        state = make_input_state(points=32)
        path = tmp_path / "jsi.csv"
        dataio.write_lines(path, render_jsi(state))
        measured = ingest_measured_jsi(path)
        assert measured.intensity.shape == (32, 32)
        np.testing.assert_allclose(measured.intensity, np.abs(state.amplitude) ** 2,
                                   rtol=1e-8, atol=1e-300)
        assert measured.amplitude is not None
        np.testing.assert_allclose(measured.amplitude, state.amplitude, rtol=1e-8, atol=1e-12)

    def test_axes_round_trip(self, tmp_path):
        state = make_input_state(points=16)
        path = tmp_path / "jsi.csv"
        dataio.write_lines(path, render_jsi(state))
        measured = ingest_measured_jsi(path)
        # exported in nm, decreasing along increasing omega
        np.testing.assert_allclose(
            measured.signal_nm, wavelength_from_omega(state.grid.signal_axis), rtol=1e-8
        )

    def test_header_carries_format_and_config(self, tmp_path):
        config = parse_config_text("grid.points = 16")
        state = make_input_state(points=16)
        path = tmp_path / "jsi.csv"
        dataio.write_lines(path, render_jsi(state, config))
        text = path.read_text()
        assert text.startswith("# format: jsiv1\n")
        assert "# config.grid.points = 16" in text
        assert "# columns: signal_nm,idler_nm,re,im,intensity" in text
        assert text.endswith("\n") and "\r" not in text

    def test_entropy_from_round_trip_matches(self, tmp_path):
        state = make_input_state(points=48)
        path = tmp_path / "jsi.csv"
        dataio.write_lines(path, render_jsi(state))
        measured = ingest_measured_jsi(path)
        entropy, flags = measured_entropy(measured)
        assert flags == ()
        assert entropy == pytest.approx(entropy_of(state), abs=1e-5)

    def test_deterministic_bytes(self, tmp_path):
        state = make_input_state(points=16)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dataio.write_lines(a, render_jsi(state))
        dataio.write_lines(b, render_jsi(state))
        assert a.read_bytes() == b.read_bytes()


def _awkward_floats(rng, size):
    """Random doubles over ~600 decades, with signed zeros, subnormals and the extremes."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
    specials = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1e300]
    values[rng.choice(size, len(specials), replace=False)] = specials
    return values


class TestRenderJsi:
    def test_every_line_matches_per_cell_format(self):
        rng = np.random.default_rng(11)
        grid = FrequencyGrid(np.linspace(2.70, 2.80, 7), np.linspace(2.65, 2.85, 5))
        amp = np.empty((7, 5), dtype=complex)
        amp.real = _awkward_floats(rng, 35).reshape(7, 5)
        amp.imag = _awkward_floats(rng, 35).reshape(7, 5)
        amp.imag[0] = -0.0
        amp[1, 1] = complex(1e-310, -3e-320)
        state = BiphotonAmplitude(grid, amp)

        def fmt(x):
            return format(float(x), ".9g")

        signal_nm = wavelength_from_omega(grid.signal_axis)
        idler_nm = wavelength_from_omega(grid.idler_axis)
        expected = []
        for i in range(7):
            for j in range(5):
                re_, im_ = float(state.amplitude[i, j].real), float(state.amplitude[i, j].imag)
                cells = (signal_nm[i], idler_nm[j], re_, im_, re_ * re_ + im_ * im_)
                expected.append(",".join(fmt(x) for x in cells))
        lines = "".join(render_jsi(state)).splitlines()
        assert lines[:2] == ["# format: jsiv1", "# columns: signal_nm,idler_nm,re,im,intensity"]
        assert lines[2:] == expected
        assert any(",-0," in line for line in lines)  # signed zero survives


class TestRealInputStates:
    """A real (float64) input state exports and transmits to the bytes of its complex copy."""

    @staticmethod
    def _complex_copy(state):
        return BiphotonAmplitude(state.grid, state.amplitude.astype(complex))

    def test_real_state_renders_like_its_complex_copy(self):
        state = make_input_state(points=24)
        assert state.amplitude.dtype == np.float64
        text = "".join(render_jsi(state))
        assert text == "".join(render_jsi(self._complex_copy(state)))
        im_column = [line.split(",")[3] for line in text.splitlines() if not line.startswith("#")]
        assert set(im_column) == {"0"}  # +0.0, never -0

    def test_underflowing_cells_transmit_like_the_complex_route(self):
        # a 0.05 nm pump leaves most cells exactly 0; 0 * (a + ib) must keep its zero signs
        state = make_input_state(points=64, pump_nm=0.05)
        assert np.any(state.amplitude == 0.0) and np.any(state.amplitude > 0.0)
        model = CavityModel(kind="one_sided", omega_0=omega_from_wavelength(685.0), gamma=1 / 150.0)
        curve = transfer_for(model, state.grid.idler_axis)
        assert np.any((curve.values.real < 0.0) & (curve.values.imag < 0.0))
        real_route = apply_idler_transfer(state, curve)
        complex_route = apply_idler_transfer(self._complex_copy(state), curve)
        assert real_route.amplitude.tobytes() == complex_route.amplitude.tobytes()
        text = "".join(render_jsi(real_route))
        assert text == "".join(render_jsi(complex_route))
        assert ",-0," in text  # 0 * (a + ib) with a, b < 0 has imaginary part -0


def _block_texts(values):
    """The texts format_block writes for `values`, with the padding dropped."""
    cells = _blockfmt.format_block(np.asarray(values, dtype=float)).view(np.uint8)
    return [bytes(cell[cell != 0]).decode("ascii") for cell in cells]


def _adversarial_floats():
    values = []
    for exp10 in range(-20, 21):  # exact 9-digit half-way decimals and their neighbours
        for digits in ("123456789", "100000000", "999999999", "500000000", "314159265"):
            x = float(f"{digits}.5e{exp10 - 8}")
            values += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    values += [float(f"1e{k}") for k in range(-300, 301)]
    values += [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.8e308, 9.99999999e-5, 1e-4,
               99999999.95, 999999999.5]
    return values + [-x for x in values]


class TestFormatBlock:
    """The block formatter against its oracle, format(x, ".9g")."""

    @settings(deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_matches_format_on_any_floats(self, values):
        assert _block_texts(values) == [format(x, ".9g") for x in values]

    def test_matches_format_on_adversarial_values(self):
        values = _adversarial_floats()
        assert _block_texts(values) == [format(float(x), ".9g") for x in values]

    def test_curve_lines_match_per_cell_format(self):
        curve = transfer_for(CavityModel(kind="one_sided", omega_0=2.75, gamma=0.01),
                             np.linspace(2.7, 2.8, 37))
        nm = wavelength_from_omega(curve.axis)
        expected = [",".join(format(float(x), ".9g") for x in (
            nm[j], curve.values[j].real, curve.values[j].imag, curve.transmission[j],
            curve.phase[j])) for j in range(37)]
        assert "".join(render_curve(curve)).splitlines()[-37:] == expected

    def test_reference_fallback_counts(self, monkeypatch):
        """How many cells of the reference state and transmit exports format one by one."""
        calls = []
        format_one = _blockfmt._format_one
        monkeypatch.setattr(_blockfmt, "_format_one", lambda x: calls.append(x) or format_one(x))
        config = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                          "configs", "reference.cfg"))
        counts = []
        for state in (input_state_from_config(config), transmitted_state(config)):
            calls.clear()
            for _ in render_jsi(state):
                pass
            counts.append(len(calls))
        assert counts == [0, 2]  # of 786,432 cells each


def _refuse_loadtxt(*args, **kwargs):
    raise ValueError("np.loadtxt disabled")


def _refuse_parse_rows(*args):
    raise AssertionError("fell back to the float() parser")


def _ingest_outcome(path):
    try:
        measured = ingest_measured_jsi(path)
    except ValueError as exc:
        return str(exc)
    return {name: None if getattr(measured, name) is None else getattr(measured, name).tobytes()
            for name in ("signal_nm", "idler_nm", "intensity", "amplitude")}


def _both_paths(path, monkeypatch):
    """Ingest outcome (arrays as bytes, or the message) via np.loadtxt and via the fallback."""
    fast = _ingest_outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", _refuse_loadtxt)
        slow = _ingest_outcome(path)
    return fast, slow


class TestIngestParserEquivalence:
    """np.loadtxt fast path and the line-by-line float() fallback agree bit for bit."""

    def test_random_grids_bit_identical(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        formats = (repr, lambda x: format(x, ".17e"), lambda x: format(x, ".9g"),
                   lambda x: format(x, ".6E"))
        fallbacks = []
        parse_rows = dataio._parse_rows
        monkeypatch.setattr(dataio, "_parse_rows", lambda *a: fallbacks.append(a) or parse_rows(*a))
        for trial in range(6):
            n_signal, n_idler = rng.integers(3, 9, size=2)
            signal = np.sort(rng.uniform(600.0, 800.0, n_signal))[::-1]
            idler = np.sort(rng.uniform(1e-300, 3e-300, n_idler))
            cells = np.column_stack([
                np.repeat(signal, n_idler), np.tile(idler, n_signal),
                _awkward_floats(rng, n_signal * n_idler), _awkward_floats(rng, n_signal * n_idler),
                np.abs(_awkward_floats(rng, n_signal * n_idler)),
            ])
            cells[rng.integers(cells.shape[0]), 4] = -0.0
            # axes in the lossless formats only, so they stay strictly monotone
            text = [[formats[k](float(x)) for x, k in zip(row, rng.integers(0, [2, 2, 4, 4, 4]))]
                    for row in cells]
            expected = np.array([[float(t) for t in row] for row in text])
            path = tmp_path / f"grid{trial}.csv"
            path.write_text("# columns: signal_nm,idler_nm,re,im,intensity\n"
                            + "".join(",".join(row) + "\n" for row in text))
            fast, slow = _both_paths(path, monkeypatch)
            assert fast == slow
            assert fast["intensity"] == expected[:, 4].tobytes()
            assert fast["amplitude"] == (expected[:, 2] + 1j * expected[:, 3]).tobytes()
            assert fast["signal_nm"] == expected[::n_idler, 0].tobytes()
            assert fast["idler_nm"] == expected[:n_idler, 1].tobytes()
            assert len(fallbacks) == trial + 1  # only the forced run fell back

    GRID = ["# columns: signal_nm,idler_nm,intensity", "700,700,1", "700,690,2",
            "690,700,3", "690,690,4"]

    @pytest.mark.parametrize("case, edit, expected", [
        ("underscore", {2: "700,690,1_0"}, [1.0, 10.0, 3.0, 4.0]),
        ("arabic-indic digits", {3: "690,700,١٢"}, [1.0, 2.0, 12.0, 4.0]),
        ("padded cells", {1: "700 , 700,\t1 "}, [1.0, 2.0, 3.0, 4.0]),
        ("trailing note", {2: "700,690,2 # note"}, ":3: non-numeric data '700,690,2 # note'"),
        ("ragged row", {3: "690,700"}, ":4: expected 3 columns, got 2"),
        ("empty cell", {2: "700,,2"}, ":3: non-numeric data '700,,2'"),
    ])
    def test_inputs_loadtxt_treats_differently(self, tmp_path, monkeypatch, case, edit, expected):
        lines = [edit.get(k, line) for k, line in enumerate(self.GRID)]
        path = tmp_path / "edge.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fast, slow = _both_paths(path, monkeypatch)
        assert fast == slow
        if isinstance(expected, str):
            assert fast == f"{path}{expected}"
        else:
            assert fast["intensity"] == np.array(expected).tobytes()

    def test_blank_lines_and_crlf_parse_like_plain_lines(self, tmp_path, monkeypatch):
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join(self.GRID) + "\n")
        reference = _ingest_outcome(plain)
        for name, text in (
            ("blank.csv", "\n\n".join(self.GRID[:3]) + "\n \t\n" + "\n".join(self.GRID[3:]) + "\n\n"),
            ("crlf.csv", "\r\n".join(self.GRID) + "\r\n"),
        ):
            path = tmp_path / name
            path.write_bytes(text.encode())
            assert _both_paths(path, monkeypatch) == (reference, reference)
        # line numbers still count the blank lines
        path = tmp_path / "blank.csv"
        path.write_bytes(("\n\n".join(self.GRID[:3]) + "\n\n690,700,-3\n").encode())
        fast, slow = _both_paths(path, monkeypatch)
        assert fast == slow and fast.startswith(f"{path}:7: negative intensity")

    @pytest.mark.parametrize("case, body, expected", [
        ("blank lines", b"700,700,1\n\n\n700,690,2\n690,700,3\n\n690,690,4\n", [1, 2, 3, 4]),
        ("whitespace-only line", b"700,700,1\n \t\n700,690,2\n690,700,3\n690,690,4\n",
         [1, 2, 3, 4]),
        ("comment among data", b"700,700,1\n700,690,2\n# note\n690,700,3\n690,690,4\n",
         [1, 2, 3, 4]),
        ("columns comment among data",
         b"700,700,1\n# columns: idler_nm,signal_nm,intensity\n700,690,2\n690,700,3\n"
         b"690,690,4\n", ": need at least 2 points per axis, got 4 x 1"),
        ("CRLF", b"700,700,1\r\n700,690,2\r\n\r\n690,700,3\r\n690,690,4\r\n", [1, 2, 3, 4]),
        ("non-UTF-8 data", b"700,700,1\n700,690,2\n690,700,\xe93\n690,690,4\n",
         ":5: not UTF-8 text"),
        ("non-UTF-8 trailer", b"700,700,1\n700,690,2\n690,700,3\n690,690,4\n# \xff\n",
         ":7: not UTF-8 text"),
        ("non-UTF-8 after a bad cell", b"700,700,x\n700,690,2\n690,700,3\n690,690,4\n# \xff\n",
         ":7: not UTF-8 text"),
        ("non-finite after blank lines", b"700,700,1\n\n700,690,2\n\n690,700,inf\n690,690,4\n",
         ":7: non-finite data"),
        ("negative after blank lines", b"700,700,1\n\n\n700,690,-2\n690,700,3\n690,690,4\n",
         ":6: negative intensity at cell (signal_nm=700, idler_nm=690)"),
        ("width after blank lines", b"\n700,700,1,0\n700,690,2,0\n690,700,3,0\n690,690,4,0\n",
         ":4: expected 3 columns, got 4"),
    ])
    def test_fast_path_agrees_with_fallback(self, tmp_path, monkeypatch, case, body, expected):
        path = tmp_path / "edge.csv"
        path.write_bytes(b"# format: jsiv1\n# columns: signal_nm,idler_nm,intensity\n" + body)
        fast, slow = _both_paths(path, monkeypatch)
        assert fast == slow
        if isinstance(expected, str):
            assert fast == f"{path}{expected}"
        else:
            assert fast["intensity"] == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize("case, body, expected", [
        ("comment among data", b"700,700,1\n700,690,2\n# note\n690,700,3\n690,690,4\n",
         [1, 2, 3, 4]),
        ("whitespace-only line", b"700,700,1\n \t\n700,690,2\n690,700,3\n690,690,4\n",
         [1, 2, 3, 4]),
        ("columns comment among data",
         b"700,700,1\n# columns: idler_nm,signal_nm,intensity\n700,690,2\n690,700,3\n"
         b"690,690,4\n", ": need at least 2 points per axis, got 4 x 1"),
    ])
    def test_comment_and_whitespace_lines_stay_on_loadtxt(self, tmp_path, monkeypatch, case,
                                                           body, expected):
        monkeypatch.setattr(dataio, "_parse_rows", _refuse_parse_rows)
        path = tmp_path / "edge.csv"
        path.write_bytes(b"# format: jsiv1\n# columns: signal_nm,idler_nm,intensity\n" + body)
        outcome = _ingest_outcome(path)
        if isinstance(expected, str):
            assert outcome == f"{path}{expected}"
        else:
            assert outcome["intensity"] == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize("read_chars", [1, 4, 11, 64])
    def test_reads_may_split_lines_anywhere(self, tmp_path, monkeypatch, read_chars):
        monkeypatch.setattr(dataio, "_parse_rows", _refuse_parse_rows)
        monkeypatch.setattr(dataio, "_READ_CHARS", read_chars)
        path = tmp_path / "split.csv"
        path.write_bytes(b"# columns: signal_nm,idler_nm,intensity\n700,700,1\n\n700,690,2\n"
                         b"  # note\n690,700,3\n \t\n# columns: signal_nm,idler_nm,intensity\n"
                         b"690,690,4\n#")
        assert _ingest_outcome(path)["intensity"] == np.array([1.0, 2.0, 3.0, 4.0]).tobytes()

    @pytest.mark.parametrize("read_chars", [1, 4, 11, 64])
    def test_second_read_numbers_lines_afresh(self, tmp_path, monkeypatch, read_chars):
        # np.loadtxt refuses line 2 before the first read reaches the ragged line 5
        monkeypatch.setattr(dataio, "_READ_CHARS", read_chars)
        path = tmp_path / "split.csv"
        path.write_text("\n".join([self.GRID[0], "700,700,1_0", *self.GRID[2:4], "690,690"]) + "\n")
        assert _ingest_outcome(path) == f"{path}:5: expected 3 columns, got 2"

    def test_file_read_again_only_when_loadtxt_refuses(self, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(dataio, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                            raising=False)
        path = tmp_path / "grid.csv"
        for last, expected, reads in (
            ("690,690,4", 4.0, 1),
            ("690,690,nan", ":5: non-finite data", 1),  # its line comes from the first read
            ("690,690,1_0", 10.0, 2),  # float() reads 1_0; np.loadtxt refuses it
        ):
            opened.clear()
            path.write_text("\n".join(self.GRID[:4] + [last]) + "\n")
            outcome = _ingest_outcome(path)
            assert opened == [path] * reads
            if isinstance(expected, str):
                assert outcome == f"{path}{expected}"
            else:
                assert outcome["intensity"] == np.array([1.0, 2.0, 3.0, expected]).tobytes()


@pytest.mark.parametrize("read_chars", [1, 4, 11, 64])
class TestLineLookupAtEveryReadSize:
    """Line numbers come from one search per read and one index into the reads' numbers."""

    HEAD = b"# format: jsiv1\n# columns: signal_nm,idler_nm,intensity\n"
    ROWS = b"700,700,1\n700,690,2\n690,700,3\n690,690,4\n"

    @pytest.mark.parametrize("body, lineno", [
        # 70 characters follow the byte on its line, so the read that brings
        # it in ends before that line does, at every read size here
        (b"700,700,1\n# \xff" + b"x" * 70 + b"\n700,690,2\n690,700,3\n690,690,4\n", 4),
        (ROWS + b"# trailer \xff", 7),  # the file's last line is unfinished until EOF
        (b"\n# \xc3\xa9t\xc3\xa9\n700,700,1\n700,\xe9" + b"9" * 70 + b",2\n", 6),
    ], ids=["long comment", "unterminated last line", "after valid multi-byte"])
    def test_bad_byte_in_an_unfinished_line(self, tmp_path, monkeypatch, read_chars, body, lineno):
        monkeypatch.setattr(dataio, "_READ_CHARS", read_chars)
        path = tmp_path / "bad.csv"
        path.write_bytes(self.HEAD + body)
        assert _ingest_outcome(path) == f"{path}:{lineno}: not UTF-8 text"

    def test_split_multi_byte_characters_are_not_reported(self, tmp_path, monkeypatch,
                                                          read_chars):
        monkeypatch.setattr(dataio, "_parse_rows", _refuse_parse_rows)
        monkeypatch.setattr(dataio, "_READ_CHARS", read_chars)
        # one comment of 4-byte characters straddles the decoder's 8192-byte
        # chunks; the two-byte and three-byte ones straddle reads
        comment = ("# " + "\U0001f600" * 4000 + "\n# " + "é€" * 40 + "\n").encode()
        path = tmp_path / "split.csv"
        path.write_bytes(self.HEAD + comment + self.ROWS)
        assert _ingest_outcome(path)["intensity"] == np.array([1.0, 2.0, 3.0, 4.0]).tobytes()

    @pytest.mark.parametrize("rows, expected", [
        ([b"700,700,1", b"700,690,2", b"690,700,inf", b"690,690,4"], ":9: non-finite data"),
        ([b"700,700,1", b"700,690,2", b"690,700,-3", b"690,690,4"],
         ":9: negative intensity at cell (signal_nm=690, idler_nm=700)"),
        ([b"700,700,1,0", b"700,690,2,0", b"690,700,3,0", b"690,690,4,0"],
         ":5: expected 3 columns, got 4"),
    ], ids=["non-finite", "negative", "width"])
    def test_loadtxt_errors_after_blank_and_comment_lines(self, tmp_path, monkeypatch,
                                                          read_chars, rows, expected):
        monkeypatch.setattr(dataio, "_parse_rows", _refuse_parse_rows)
        monkeypatch.setattr(dataio, "_READ_CHARS", read_chars)
        first, second, third, fourth = rows
        lines = [b"", b"# note", first, b" \t", second, "# r\u00e9sum\u00e9".encode(), third,
                 fourth]
        path = tmp_path / "bad.csv"
        path.write_bytes(self.HEAD + b"\n".join(lines) + b"\n")
        assert _ingest_outcome(path) == f"{path}{expected}"


class TestCurveExport:
    def test_one_sided_curve_has_unit_transmission_column(self, tmp_path):
        model = CavityModel(kind="one_sided", omega_0=omega_from_wavelength(685.0), gamma=1 / 150)
        axis = np.linspace(2.70, 2.80, 33)
        curve = transfer_for(model, axis)
        path = tmp_path / "curve.csv"
        dataio.write_lines(path, render_curve(curve))
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 33
        for row in rows:
            assert row.split(",")[3] == "1"

    def test_format_header(self, tmp_path):
        model = CavityModel(kind="two_sided", omega_0=2.75, gamma=0.01)
        curve = transfer_for(
            CavityModel(kind="one_sided", omega_0=2.75, gamma=0.01), np.linspace(2.7, 2.8, 5)
        )
        path = tmp_path / "curve.csv"
        dataio.write_lines(path, render_curve(curve))
        assert path.read_text().startswith("# format: curvev1\n")


EXACT = W0 + GAMMA * np.arange(-200, 201) / 20.0  # sample 200 is the emitter frequency
STRADDLE = W0 + GAMMA * (np.arange(-200, 200) + 0.5) / 20.0
WINDING = 2.0 + np.arange(401) / 100.0  # sample 200 is 4.0


class TestCurveBytes:
    """Rendered curves against pinned sha256 digests, so a change in how the
    transmission or phase columns are derived from the samples shows here."""

    @pytest.mark.parametrize("curve, digest", [
        (lambda: transfer_for(dicke(), EXACT),
         "46f0dc2dfcb96dd025d5cbbd342ddd190ba69171a5de7e8652e74d87ee3b3de7"),
        (lambda: transfer_for(dicke(omega_0=W0 + GAMMA), STRADDLE),
         "047c5a3bf3a6b41338ed579305868aebd77617a7ca6acb21d112b8b3ed6c70d1"),
        (lambda: transfer_for(dicke(lambda_c=1.5 * GAMMA, gamma_e=0.2 * GAMMA), EXACT),
         "13c9fa638f886bdc2fdc40bb7e93179cb8046ab6aeac26a7596ee5dce6c071d6"),
        # a phase that winds about 16 turns, split at a sample, which keeps its raw angle
        (lambda: TransferCurve(WINDING, 0.5 * np.exp(25j * WINDING), _phase_split=4.0),
         "70466991706a7cdb30ab20bae1396ad10d3a7d1a9ddeac021b186b957d8a34d7"),
    ], ids=["dicke_exact_emitter_sample", "dicke_straddling_emitter", "dicke_damped",
            "winding_split"])
    def test_rendered_curve_digest(self, curve, digest):
        text = "".join(render_curve(curve()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSweepExport:
    def test_row_count(self, tmp_path):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.6, 1.0, 1.4),
                         series_values=(-2.0, 0.0))
        result = run_sweep(plan)
        path = tmp_path / "sweep.csv"
        dataio.write_lines(path, render_sweep(result))
        text = path.read_text()
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert len(rows) == 6  # |series| x |values|
        assert "# format: sweepv1" in text
        assert "# reference.input_entropy_nats" in text
        assert "# reference.empty_cavity_entropy_nats" in text

    def test_deterministic(self):
        plan = SweepPlan(small_config(), "coupling_ratio", (0.8, 1.2), series_values=(0.0,))
        assert render_sweep(run_sweep(plan)) == render_sweep(run_sweep(plan))


class TestAtomicWrites:
    def test_missing_directory_fails_without_partial_file(self, tmp_path):
        state = make_input_state(points=8)
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError):
            dataio.write_lines(target, render_jsi(state))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_fails_before_any_temp_file(self, tmp_path):
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError, match=r"^output path is a directory: .*dir$"):
            dataio.write_lines(tmp_path / "dir", ["x\n"])
        assert [p.name for p in tmp_path.rglob("*")] == ["dir"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            dataio.write_lines(tmp_path / "out.csv", ["x\n"])
            (tmp_path / "plain.csv").write_text("x\n")
        finally:
            os.umask(previous)
        assert (tmp_path / "out.csv").stat().st_mode & 0o777 == mode
        assert (tmp_path / "plain.csv").stat().st_mode & 0o777 == mode

    def test_no_stray_temp_files(self, tmp_path):
        state = make_input_state(points=8)
        dataio.write_lines(tmp_path / "out.csv", render_jsi(state))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["out.csv"]


def _traced_peak(func):
    """Peak memory func() allocates through Python's allocators, above where it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        func()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestStreaming:
    """jsiv1 export and ingest hold a bounded number of lines, never the whole file."""

    @pytest.fixture(scope="class")
    def reference_export(self, tmp_path_factory):
        state = make_input_state(points=512)
        path = tmp_path_factory.mktemp("streaming") / "jsi.csv"
        return path, _traced_peak(lambda: dataio.write_lines(path, render_jsi(state)))

    def test_export_peak_below_quarter_of_file(self, reference_export):
        path, peak = reference_export
        assert peak < path.stat().st_size / 4

    def test_ingest_peak_below_twice_the_table(self, reference_export):
        path, _ = reference_export
        table_bytes = 512 * 512 * 5 * 8  # rows x columns x float64
        # the lower bound shows that the traced allocations include numpy's
        assert table_bytes < _traced_peak(lambda: ingest_measured_jsi(path)) < 2 * table_bytes

    @pytest.mark.parametrize("count", [1, 4096, 8193])
    def test_chunked_write_matches_one_join(self, tmp_path, count):
        """`count` one-line pieces are written as their concatenation."""
        lines = [f"line {k}" for k in range(count)]
        path = tmp_path / "out.txt"
        dataio.write_lines(path, (line + "\n" for line in lines))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_blocks_join_to_per_cell_format(self, tmp_path, capsysbinary):
        """Three blocks, the last one partial: the pieces join to the per-cell text."""
        rng = np.random.default_rng(5)
        grid = FrequencyGrid(np.linspace(2.70, 2.80, 67), np.linspace(2.65, 2.85, 71))
        amp = np.empty((67, 71), dtype=complex)
        amp.real = _awkward_floats(rng, amp.size).reshape(amp.shape)
        amp.imag = _awkward_floats(rng, amp.size).reshape(amp.shape)
        assert 2 * dataio._BLOCK_CELLS < amp.size < 3 * dataio._BLOCK_CELLS
        state = BiphotonAmplitude(grid, amp)
        config = small_config()
        signal_nm = wavelength_from_omega(grid.signal_axis)
        idler_nm = wavelength_from_omega(grid.idler_axis)
        expected = _header_text(config).splitlines(keepends=True)
        for i in range(67):
            for j in range(71):
                re_, im_ = float(amp[i, j].real), float(amp[i, j].imag)
                cells = (signal_nm[i], idler_nm[j], re_, im_, re_ * re_ + im_ * im_)
                expected.append(",".join(format(float(x), ".9g") for x in cells) + "\n")
        # Compared line by line: pytest's diff of two long unequal strings
        # takes minutes.
        assert "".join(render_jsi(state, config)).splitlines(keepends=True) == expected

        cfg = tmp_path / "grid67.cfg"
        cfg.write_text("grid.points = 67\n")
        assert 2 * dataio._BLOCK_CELLS < 67 * 67 < 3 * dataio._BLOCK_CELLS
        assert main(["state", "--config", str(cfg)]) == 0
        stdout = capsysbinary.readouterr().out
        config = load_config(cfg)
        dataio.write_lines(tmp_path / "state.csv",
                           render_jsi(input_state_from_config(config), config))
        assert (tmp_path / "state.csv").read_bytes() == stdout


def _header_text(config):
    lines = ["# format: jsiv1", *(f"# config.{line}" for line in config.echo_lines())]
    if config.applied_defaults:
        lines.append("# defaulted: " + ",".join(config.applied_defaults))
    return "".join(line + "\n" for line in lines + ["# columns: signal_nm,idler_nm,re,im,intensity"])


class TestIngestValidation:
    def test_negative_intensity_names_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,1.0\n700,690,2.0\n690,700,-0.5\n690,690,1.0\n"
        )
        with pytest.raises(ValueError, match=r"signal_nm=690.*idler_nm=700"):
            ingest_measured_jsi(path)

    def test_non_monotone_axis_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,1.0\n700,710,2.0\n700,705,0.5\n"
            "690,700,1.0\n690,710,2.0\n690,705,0.5\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: idler_nm axis must be strictly")):
            ingest_measured_jsi(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,1.0\n700,690,2.0\n690,700,0.5\n"
        )
        with pytest.raises(ValueError, match="row-major"):
            ingest_measured_jsi(path)

    def test_all_zero_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,intensity\n"
            "700,700,0\n700,690,0\n690,700,0\n690,690,0\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: intensity map is all zero")):
            ingest_measured_jsi(path)

    def test_all_zero_amplitude_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# columns: signal_nm,idler_nm,re,im,intensity\n"
            "700,700,0,0,1\n700,690,0,0,1\n690,700,0,0,1\n690,690,0,0,1\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: amplitude map is all zero")):
            ingest_measured_jsi(path)

    def test_single_point_axis_names_file(self, tmp_path):
        for name, text in (("one.csv", "700,700,1\n"), ("column.csv", "700,700,1\n690,700,1\n")):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(name) + ".*at least 2"):
                ingest_measured_jsi(path)

    def test_non_finite_names_line(self, tmp_path):
        rows = ["700,700,1,0,1", "700,690,1,0,1", "690,700,1,0,1", "690,690,1,0,1"]
        for cell in (2, 3, 4):
            bad = rows[2].split(",")
            bad[cell] = "nan"
            path = tmp_path / "bad.csv"
            path.write_text("# columns: signal_nm,idler_nm,re,im,intensity\n"
                            + "\n".join(rows[:2] + [",".join(bad)] + rows[3:]) + "\n")
            with pytest.raises(ValueError, match=r"bad\.csv:4:.*non-finite"):
                ingest_measured_jsi(path)

    def test_column_count_names_first_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# columns: signal_nm,idler_nm,re,im,intensity\n\n"
                        "700,700,1\n700,690,1\n690,700,1\n690,690,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: expected 5 columns, got 3"):
            ingest_measured_jsi(path)

    def test_non_numeric_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("700,700,abc\n")
        with pytest.raises(ValueError, match=":1:"):
            ingest_measured_jsi(path)

    def test_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        head = b"# columns: signal_nm,idler_nm,intensity\n700,700,1\n700,690,1\n"
        for body, lineno in (
            (head + b"690,700,\xff\n690,690,1\n", 4),
            (b"# r\xe9sum\xe9 in Latin-1\n" + head, 1),
            (head.replace(b"\n", b"\r\n") + b"690,7\xc3(0,1\r\n690,690,1\r\n", 4),
            (head + b"690,700,1\n690,690,1\n# trailer \xed\xa0\x80\n", 6),
        ):
            path.write_bytes(body)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: .*UTF-8"):
                ingest_measured_jsi(path)


def eigvalsh_entropy(signal_nm, idler_nm, amplitude):
    """Entropy of a map on wavelength axes by numpy alone: each axis gets
    trapezoid weights in angular frequency, and the entropy is that of the
    eigenvalues of rho = A A^dagger over its trace, A the weighted map."""
    roots = []
    for nm in (signal_nm, idler_nm):
        half_steps = np.abs(np.diff(2.0 * np.pi * 299.792458 / nm)) / 2.0
        roots.append(np.sqrt(np.append(half_steps, 0.0) + np.insert(half_steps, 0, 0.0)))
    weighted = amplitude * roots[0][:, None] * roots[1]
    rho = weighted @ weighted.conj().T
    p = np.linalg.eigvalsh(rho / np.trace(rho).real)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


class TestMeasuredAxisDirection:
    @pytest.mark.parametrize("signal_step, idler_step", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
    def test_mirrored_map_gives_the_same_entropy(self, tmp_path, rng, signal_step, idler_step):
        """Ingested axes may run either way: nm ascending or descending, on either axis."""
        signal = np.sort(rng.uniform(670.0, 700.0, 7))
        idler = np.sort(rng.uniform(670.0, 700.0, 6))
        amp = rng.normal(size=(7, 6)) + 1j * rng.normal(size=(7, 6))
        expected = eigvalsh_entropy(signal, idler, amp)
        lines = ["# columns: signal_nm,idler_nm,re,im,intensity"]
        for s, row in zip(signal[::signal_step], amp[::signal_step]):
            for i, a in zip(idler[::idler_step], row[::idler_step]):
                lines.append(",".join(format(v, ".17g") for v in (s, i, a.real, a.imag, abs(a) ** 2)))
        path = tmp_path / "mirrored.csv"
        path.write_text("\n".join(lines) + "\n")
        entropy, flags = measured_entropy(ingest_measured_jsi(path))
        assert flags == ()
        assert entropy == pytest.approx(expected, abs=1e-12)


class TestMeasuredIntensityOnly:
    def test_flat_phase_entropy_is_flagged(self, tmp_path):
        # hand-made measured map on a non-uniform wavelength grid
        signal = np.array([695.0, 690.0, 686.0, 683.0, 680.0])
        idler = np.array([694.0, 689.0, 685.0, 682.0, 679.0])
        lines = ["# columns: signal_nm,idler_nm,intensity"]
        rng = np.random.default_rng(7)
        for s in signal:
            for i in idler:
                lines.append(f"{s},{i},{np.exp(-((s - 687) ** 2 + (i - 687) ** 2) / 40.0):.9g}")
        path = tmp_path / "measured.csv"
        path.write_text("\n".join(lines) + "\n")
        measured = ingest_measured_jsi(path)
        assert measured.amplitude is None
        entropy, flags = measured_entropy(measured)
        assert INTENSITY_ONLY_FLAG in flags
        assert entropy == pytest.approx(0.0, abs=1e-9)  # separable test map
