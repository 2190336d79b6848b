"""One property over the CLI's config surface: a hostile value of any float key
ends in exit 0, or in exit 1 with one stderr line that names the key.

Each example runs `cli.main` in process on a small dicke config with one drawn
key set to one drawn value, with every warning turned into an error, so a
numpy floating-point warning or an escaped exception fails the example.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_cavity.cli import main
from biphoton_cavity.config import _SCHEMA

BASE_CFG = "grid.points = 16\ncavity.kind = dicke\n"
FLOAT_KEYS = tuple(key for key, (*_, kind) in _SCHEMA.items()
                   if kind in ("pos_float", "nonneg_float"))
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
