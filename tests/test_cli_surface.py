"""Properties over the CLI's input surface: a hostile config value, cavity
override or sweep flag ends in exit 0, or in exit 1 with one stderr line that
names the key or the flag; a flag the command does not take, a missing required
argument, or a sweep list that repeats or runs backwards ends in exit 1 with one
such line; a jsiv1 file with one defect ends in exit 0, or in exit 1 with one
stderr line that names the file; `state`, `entropy`, `ingest` and
`transmit` accept or refuse a cavity value alike, with the same line; and a
pump or coupling value set in the file, by an override or as a sweep value is
refused with the same `<section keys>: <reason>` after its `<where>: `, and a
pump whose input state vanishes with the same zero-state line.

Each example runs `cli.main` in process on a small dicke config, with every
warning turned into an error, so a numpy floating-point warning or an escaped
exception fails the example.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cavity.cli import MAX_SWEEP_POINTS, main
from biphoton_cavity.config import _SCHEMA, section_keys
from biphoton_cavity.sweep import SWEEPS

BASE_CFG = "grid.points = 16\ncavity.kind = dicke\n"
FLOAT_KEYS = tuple(key for key, (*_, kind) in _SCHEMA.items()
                   if kind is float)
HOSTILE_VALUES = ("0", "-1", "1e-320", "5e-324", "1e-12", "1e300", "1.7e308", "nan", "inf")
COMMANDS = (("state",), ("transmit",), ("entropy",), ("sweep-detuning", "--values=-1,1"))
# A sweep point sets these keys from its own values, and a refusal names the value.
SWEEP_STAND_INS = {"cavity.coupling_ratio": "coupling_ratio value ",
                   "cavity.center_nm": "cavity_detuning_nm value "}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("surface")


@settings(derandomize=True, database=None, deadline=None, max_examples=700)
@given(command=st.sampled_from(COMMANDS), key=st.sampled_from(FLOAT_KEYS),
       value=st.sampled_from(HOSTILE_VALUES))
def test_hostile_float_value_ends_in_one_line_naming_the_key(workdir, command, key, value):
    cfg = workdir / "hostile.cfg"
    cfg.write_text(f"{BASE_CFG}{key} = {value}\n")
    out_file = workdir / "out"
    out_file.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*command, "--config", str(cfg), "--out", str(out_file)])
    assert code in (0, 1)
    if code == 0:
        assert out_file.exists()
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    named = [key]
    if command[0].startswith("sweep-") and key in SWEEP_STAND_INS:
        named.append(SWEEP_STAND_INS[key])
    assert any(name in lines[0] for name in named), lines[0]
    assert not out_file.exists()


OVERRIDE_KEYS = tuple(key for key in FLOAT_KEYS if key.startswith("cavity."))
# The swept parameter of each sweep command, and short flags that keep an example fast;
# a drawn flag replaces its short one.
SWEEP_COMMANDS = {"sweep-coupling": "coupling_ratio", "sweep-pump": "pump_bandwidth_nm",
                  "sweep-detuning": "cavity_detuning_nm"}
SHORT_FLAGS = {"sweep-coupling": {"--values": "0.5,1", "--series": "0"},
               "sweep-pump": {"--values": "1,2", "--series": "1"},
               "sweep-detuning": {"--values": "-1,1", "--series": "1"}}
HUGE_RANGES = (f"1:{2 * MAX_SWEEP_POINTS}:1", "1e-320:1:1e-320", "-1.7e308:1.7e308:1e308")
# Two increasing values of each sweep flag, written as a refusal prints them, and lists
# of their indices: the first runs backwards (drawn for --values alone), the rest repeat.
VALUE_PAIRS = {"sweep-coupling": {"--values": ("0.5", "1"), "--series": ("0", "1")},
               "sweep-pump": {"--values": ("1", "2"), "--series": ("1", "2")},
               "sweep-detuning": {"--values": ("-1", "1"), "--series": ("1", "2")}}
ORDERS = ((1, 0), (0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 0))
# The flags each command takes besides --config, --out and --cavity-override, and flags
# to draw where a command does not take them; --valuez is --values misspelled.
OWN_FLAGS = {"state": (), "transmit": ("--curve-out",), "entropy": ("--in", "--bits"),
             "ingest": ("--in",), **dict.fromkeys(SWEEP_COMMANDS, ("--values", "--series"))}
STRAY_FLAGS = ("--values", "--series", "--curve-out", "--in", "--bits", "--valuez", "--frobnicate")
CONFIG = "<config>"  # the dicke config's path, put in when an example runs


def run_main(argv):
    """Exit code and stderr lines of `cli.main(argv)`, run with every warning an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue().splitlines()


@st.composite
def flag_cases(draw):
    """A command's arguments, the names one of which a refusal must carry, and whether
    the command must refuse them."""
    command = draw(st.sampled_from(tuple(OWN_FLAGS)))
    required = {"--config": CONFIG, **({"--in": "measured.csv"} if command == "ingest" else {})}
    flags, extra = dict(SHORT_FLAGS.get(command, {})), []
    kinds = ["stray flag", "missing argument"]
    kinds += ["override"] if command == "transmit" or command in SWEEP_COMMANDS else []
    kinds += ["hostile sweep flag", "out of order"] if command in SWEEP_COMMANDS else []
    kind = draw(st.sampled_from(kinds))
    if kind == "stray flag":
        flag = draw(st.sampled_from([f for f in STRAY_FLAGS if f not in OWN_FLAGS[command]]))
        extra, named = [draw(st.sampled_from((flag, f"{flag}=1")))], [flag]
    elif kind == "missing argument":
        flag = draw(st.sampled_from(tuple(required)))
        del required[flag]
        named = [flag]
    elif kind == "override":
        key, value = draw(st.sampled_from(OVERRIDE_KEYS)), draw(st.sampled_from(HOSTILE_VALUES))
        extra = ["--cavity-override", f"{key.partition('.')[2]}={value}"]
        named = [key]
        if command != "transmit" and key in SWEEP_STAND_INS:
            named.append(SWEEP_STAND_INS[key])
    else:
        flag = draw(st.sampled_from(("--values", "--series")))
        swept = SWEEP_COMMANDS[command]
        parameter = swept if flag == "--values" else SWEEPS[swept]
        if kind == "hostile sweep flag":
            flags[flag] = draw(st.sampled_from(HOSTILE_VALUES + HUGE_RANGES))
            named = [flag, f"{parameter} value "]
        else:
            pair = VALUE_PAIRS[command][flag]
            order = draw(st.sampled_from(ORDERS if flag == "--values" else ORDERS[1:]))
            flags[flag] = ",".join(pair[i] for i in order)
            if flag == "--values":  # the first value not above the one before it
                bad = next(b for a, b in zip(order, order[1:]) if b <= a)
                named = [f"{parameter} value {pair[bad]}: sweep values must be strictly increasing"]
            else:  # the first value seen before
                bad = next(i for k, i in enumerate(order) if i in order[:k])
                named = [f"{parameter} value {pair[bad]}: repeated in the series"]
    argv = [command, *extra, *(f"{flag}={value}" for flag, value in flags.items())]
    argv += [part for flag, value in required.items() for part in (flag, value)]
    return argv, named, kind in ("stray flag", "missing argument", "out of order")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=flag_cases())
def test_hostile_override_or_sweep_flag_ends_in_one_line_naming_it(workdir, case):
    argv, named, refused = case
    cfg = workdir / "dicke.cfg"
    cfg.write_text(BASE_CFG)
    out_file = workdir / "out"
    out_file.unlink(missing_ok=True)
    argv = [str(cfg) if part == CONFIG else part for part in argv]
    code, lines = run_main([*argv, "--out", str(out_file)])
    assert code in (0, 1)
    if code == 0:
        assert not refused and out_file.exists()
        return
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert any(name in lines[0] for name in named), lines[0]
    assert not out_file.exists()


@pytest.fixture(scope="module")
def transmit_export(workdir):
    """A transmit export of the dicke config, for `ingest --in`."""
    cfg = workdir / "export.cfg"
    cfg.write_text(BASE_CFG)
    path = workdir / "export.csv"
    assert run_main(["transmit", "--config", str(cfg), "--out", str(path)])[0] == 0
    return path


@pytest.mark.parametrize("value", HOSTILE_VALUES)
@pytest.mark.parametrize("key", OVERRIDE_KEYS)
@pytest.mark.parametrize("kind", ("dicke", "two_sided"))
def test_one_cavity_value_gets_one_verdict_from_every_command(workdir, transmit_export, kind,
                                                               key, value):
    cfg = workdir / "verdict.cfg"
    cfg.write_text(f"grid.points = 16\ncavity.kind = {kind}\n{key} = {value}\n")
    verdicts = []
    for command in (["state"], ["entropy"], ["ingest", "--in", str(transmit_export)],
                    ["transmit"]):
        code, lines = run_main([*command, "--config", str(cfg), "--out", str(workdir / "out")])
        verdicts.append((code, lines if code else None))
    assert verdicts[0][0] in (0, 1) and verdicts.count(verdicts[0]) == 4, verdicts


# A value set on every route that sets it: in the config file, by --cavity-override
# and as a sweep value, each with the `<where>` its refusal must open with.  CONFIG is
# the dicke config with the value set in it, BASE for the dicke config alone.
BASE = "<base config>"
SET_VALUE_ROUTES = {
    "pump.bandwidth_nm = 400": (
        (["state", "--config", CONFIG], CONFIG),
        (["sweep-pump", "--values=400", "--series=1", "--config", BASE],
         "pump_bandwidth_nm value 400")),
    "cavity.coupling_ratio = 1e9": (
        (["state", "--config", CONFIG], CONFIG),
        (["state", "--cavity-override", "coupling_ratio=1e9", "--config", BASE],
         "--cavity-override"),
        (["sweep-coupling", "--values=1e9", "--series=0", "--config", BASE],
         "coupling_ratio value 1e+09, cavity_detuning_nm value 0")),
    "pump.bandwidth_nm = -1": (
        (["state", "--config", CONFIG], CONFIG),
        (["sweep-pump", "--values=-1", "--series=1", "--config", BASE],
         "pump_bandwidth_nm value -1")),
    "cavity.coupling_ratio = -1": (
        (["state", "--config", CONFIG], CONFIG),
        (["state", "--cavity-override", "coupling_ratio=-1", "--config", BASE],
         "--cavity-override"),
        (["sweep-pump", "--values=1", "--series=-1", "--config", BASE], "coupling_ratio value -1"),
        (["sweep-coupling", "--values=-1", "--series=0", "--config", BASE],
         "coupling_ratio value -1, cavity_detuning_nm value 0")),
}


@pytest.mark.parametrize("setting", SET_VALUE_ROUTES)
def test_a_set_value_is_refused_with_one_tail_on_every_route(workdir, setting):
    paths = {CONFIG: workdir / "set.cfg", BASE: workdir / "base.cfg"}
    paths[CONFIG].write_text(f"{BASE_CFG}{setting}\n")
    paths[BASE].write_text(BASE_CFG)
    tails = set()
    for argv, where in SET_VALUE_ROUTES[setting]:
        argv = [str(paths.get(part, part)) for part in argv]
        code, lines = run_main([*argv, "--out", str(workdir / "out")])
        prefix = f"error: {paths.get(where, where)}: "
        assert code == 1 and len(lines) == 1 and lines[0].startswith(prefix), lines
        tails.add(lines[0].removeprefix(prefix))
    keys = section_keys(_SCHEMA[setting.partition(" ")[0]][0])
    assert len(tails) == 1 and tails.pop().startswith(f"{keys}: "), tails


def test_a_vanishing_pump_is_refused_with_one_tail_from_the_file_and_a_sweep(workdir):
    # the pump section accepts 1e-200 nm; the input state it composes is zero
    vanishing, base = workdir / "vanishing.cfg", workdir / "base.cfg"
    vanishing.write_text(f"{BASE_CFG}pump.bandwidth_nm = 1e-200\n")
    base.write_text(BASE_CFG)
    tails = set()
    for argv, prefix in ((["state", "--config", str(vanishing)], "error: "),
                         (["sweep-pump", "--values=1e-200", "--series=1", "--config", str(base)],
                          "error: pump_bandwidth_nm value 1e-200: ")):
        code, lines = run_main([*argv, "--out", str(workdir / "out")])
        assert code == 1 and len(lines) == 1 and lines[0].startswith(prefix), lines
        tails.add(lines[0].removeprefix(prefix))
    assert len(tails) == 1, tails
    assert tails.pop().startswith("input state is zero on every grid point: the pump envelope ")


@pytest.mark.parametrize("setting", ["coupling_ratio = -1", "emitter_damping_ratio = -1",
                                     "emitter_nm = -5"])
def test_a_value_a_two_sided_cavity_never_reads_is_still_refused(workdir, setting):
    cfg = workdir / "two_sided.cfg"
    cfg.write_text(f"grid.points = 16\ncavity.kind = two_sided\ncavity.{setting}\n")
    code, lines = run_main(["state", "--config", str(cfg), "--out", str(workdir / "out")])
    assert code == 1 and len(lines) == 1, lines
    key = f"cavity.{setting.partition(' ')[0]}"
    assert lines[0].startswith(f"error: {cfg}") and key in lines[0], lines


JSI_COLUMNS = ("signal_nm", "idler_nm", "re", "im", "intensity")
SIGNAL_NM, IDLER_NM = (690.0, 685.0, 680.0), (695.0, 688.0, 684.0, 679.0)
DEFECTS = ("truncated row", "ragged row", "missing row", "swapped columns", "repeated column",
           "missing column", "non-finite cell", "not UTF-8", "axis at a float limit",
           "all-zero amplitude", "second columns header")


@st.composite
def defective_jsi(draw):
    """The bytes of a 3 x 4 jsiv1 file with one drawn defect."""
    defect = draw(st.sampled_from(DEFECTS))
    columns, axes, scale, intensity_scale = list(JSI_COLUMNS), [SIGNAL_NM, IDLER_NM], 1.0, 1.0
    if defect == "axis at a float limit":  # near the largest float, subnormal, or negative
        which = draw(st.sampled_from((0, 1)))
        steps = [1.0 + k / 8.0 for k in range(len(axes[which]))]
        axes[which] = draw(st.sampled_from(([1e308 * x for x in steps], [1e-320 * x for x in steps],
                                            [-nm for nm in axes[which]])))
    if defect == "all-zero amplitude":  # re and im, and the intensity or not
        scale, intensity_scale = 0.0, draw(st.sampled_from((0.0, 1.0)))
    rows = []
    for i, signal in enumerate(axes[0]):
        for j, idler in enumerate(axes[1]):
            re, im = 1.0 + i + 2.0 * j, (i - j) / 2.0
            rows.append([repr(signal), repr(idler), repr(scale * re), repr(scale * im),
                         repr(intensity_scale * (re * re + im * im))])
    row = draw(st.integers(0, len(rows) - 1))
    if defect == "truncated row":
        line = ",".join(rows[row])
        rows[row] = [line[:draw(st.integers(0, len(line) - 1))]]
    elif defect == "ragged row":  # cells short, or one over
        rows[row] = (rows[row] + ["1.0"])[:draw(st.sampled_from((1, 2, 3, 4, 6)))]
    elif defect == "missing row":
        del rows[row]
    elif defect in ("swapped columns", "repeated column"):  # b's name at a, and a's or b's at b
        a, b = draw(st.lists(st.integers(0, len(columns) - 1), min_size=2, max_size=2,
                             unique=True))
        columns[a], columns[b] = columns[b], columns[a if defect == "swapped columns" else b]
    elif defect == "missing column":
        del columns[draw(st.integers(0, len(columns) - 1))]
    elif defect == "non-finite cell":
        rows[row][draw(st.integers(0, len(JSI_COLUMNS) - 1))] = draw(
            st.sampled_from(("nan", "inf", "-inf", "NaN")))
    lines = [b"# format: jsiv1", f"# columns: {','.join(columns)}".encode()]
    lines += [",".join(cells).encode() for cells in rows]
    if defect == "second columns header":  # anywhere after the first
        lines.insert(draw(st.integers(2, len(lines))), lines[1])
    if defect == "not UTF-8":
        at = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[at])))
        bad = draw(st.sampled_from((b"\xff", b"\xc3\x28", b"\xed\xa0\x80")))
        lines[at] = lines[at][:cut] + bad + lines[at][cut:]
    return b"".join(line + b"\n" for line in lines)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=defective_jsi(), command=st.sampled_from(("ingest", "entropy")))
def test_defective_jsi_file_ends_in_one_line_naming_the_file(workdir, data, command):
    cfg = workdir / "dicke.cfg"
    cfg.write_text(BASE_CFG)
    measured = workdir / "measured.csv"
    measured.write_bytes(data)
    out_file = workdir / "out"
    out_file.unlink(missing_ok=True)
    code, lines = run_main([command, "--config", str(cfg), "--in", str(measured),
                            "--out", str(out_file)])
    assert code in (0, 1)
    if code == 0:
        assert out_file.exists()
        return
    assert len(lines) == 1 and lines[0].startswith(f"error: {measured}"), lines
    assert not out_file.exists()
