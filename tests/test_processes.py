"""Checks that need a fresh interpreter per run.

- Output bytes do not depend on the BLAS thread count: one child per
  OPENBLAS_NUM_THREADS value (1 and 2), each in its own directory, runs the
  sweeps and single-shot commands below through `cli.main` on a 128-point
  dicke config and its 3 nm gaussian phase-matching variant, and every file of
  the two directories must be equal byte for byte.  The child also ingests the
  transmit export with its rows sorted to ascending wavelength (both frequency
  axes descend), cut to its wavelength and intensity columns (the
  intensity-only route), and with its first data exponent written with an
  underscore (e-42 as e-4_2), which float() reads as the same value and
  np.loadtxt refuses, so the read that holds it takes the float() route.
- Every refusal is one stderr line through a real process: each runs as
  `python -X dev -W error -m biphoton_cavity.cli` under a 60 s timeout, in an
  empty directory that it must leave empty, and must give its exit code and
  exactly one stderr line with its prefix.  A value refused in the config file
  and as a sweep value must get the same line after `error: <where>: `.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biphoton_cavity
from biphoton_cavity.cli import OUT_DIR_ENV

SRC = str(Path(biphoton_cavity.__file__).resolve().parent.parent)
DICKE128 = b"grid.points = 128\ncavity.kind = dicke\n"
GAUSSIAN128 = DICKE128 + b"phase_matching.kind = gaussian\nphase_matching.width_nm = 3\n"


def child_env(**extra):
    """This environment, less the CLI's output directory, with the package importable."""
    env = {key: value for key, value in os.environ.items() if key != OUT_DIR_ENV}
    return {**env, "PYTHONPATH": SRC, **extra}


def run_thread_commands():
    """Run every command in the working directory, on configs in its parent.  Relative
    names keep the `# source:` lines that ingest and entropy --in print the same."""
    from biphoton_cavity.cli import main

    def cli(*args, config="../dicke128.cfg"):
        assert main([*args, "--config", config]) == 0, args

    cli("sweep-coupling", "--out", "sweep-coupling.csv")
    cli("sweep-pump", "--out", "sweep-pump.csv")
    cli("sweep-detuning", "--out", "sweep-detuning.csv")
    cli("sweep-detuning", "--series=0.75,1.5", "--out", "sweep-detuning-series.csv")
    cli("sweep-pump", "--values=1,2.5", "--series=1,2", "--out", "sweep-pump-without-base.csv")
    cli("sweep-pump", "--out", "sweep-pump-gaussian.csv", config="../gaussian128.cfg")
    cli("state", "--out", "state-gaussian.csv", config="../gaussian128.cfg")
    cli("state", "--out", "state.csv")
    cli("transmit", "--out", "transmit.csv", "--curve-out", "curve.csv")
    cli("entropy", "--out", "entropy.txt")
    cli("ingest", "--in", "transmit.csv", "--out", "ingest.txt")
    cli("entropy", "--in", "transmit.csv", "--out", "entropy-in.txt")
    lines = Path("transmit.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if not line.startswith("#")]
    ascending = sorted(rows, key=lambda row: tuple(map(float, row.split(",")[:2])))
    Path("ascending.csv").write_text("".join(header + ascending), encoding="utf-8")
    cli("ingest", "--in", "ascending.csv", "--out", "ingest-ascending.txt")
    cut = [",".join(row.split(",")[k] for k in (0, 1, 4)) for row in rows]  # field 5 keeps its \n
    Path("intensity-only.csv").write_text(
        "".join(["# columns: signal_nm,idler_nm,intensity\n", *cut]), encoding="utf-8")
    cli("ingest", "--in", "intensity-only.csv", "--out", "ingest-intensity-only.txt")
    cli("entropy", "--in", "intensity-only.csv", "--out", "entropy-intensity-only.txt")
    first = next(k for k, line in enumerate(lines)
                 if not line.startswith("#") and re.search(r"e-\d\d", line))
    lines[first] = re.sub(r"e-(\d)(\d)", r"e-\1_\2", lines[first], count=1)
    Path("underscore.csv").write_text("".join(lines), encoding="utf-8")
    cli("ingest", "--in", "underscore.csv", "--out", "ingest-underscore.txt")


THREAD_FILES = sorted(
    ["sweep-coupling.csv", "sweep-pump.csv", "sweep-detuning.csv", "sweep-detuning-series.csv",
     "sweep-pump-without-base.csv", "sweep-pump-gaussian.csv", "state-gaussian.csv",
     "state.csv", "transmit.csv", "curve.csv", "entropy.txt", "ingest.txt", "entropy-in.txt",
     "ascending.csv", "ingest-ascending.txt", "intensity-only.csv",
     "ingest-intensity-only.txt", "entropy-intensity-only.txt", "underscore.csv",
     "ingest-underscore.txt"])


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    (tmp_path / "dicke128.cfg").write_bytes(DICKE128)
    (tmp_path / "gaussian128.cfg").write_bytes(GAUSSIAN128)
    one, two = runs = [tmp_path / f"threads-{threads}" for threads in (1, 2)]
    for threads, run in enumerate(runs, 1):
        run.mkdir()
        subprocess.run([sys.executable, __file__], cwd=run, timeout=600, check=True,
                       env=child_env(OPENBLAS_NUM_THREADS=str(threads)))
    assert sorted(path.name for path in one.iterdir()) == THREAD_FILES
    assert sorted(path.name for path in two.iterdir()) == THREAD_FILES
    for name in THREAD_FILES:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    assert (one / "underscore.csv").read_bytes() != (one / "transmit.csv").read_bytes()

    def report(name):
        lines = (one / name).read_text(encoding="utf-8").splitlines()
        return [line for line in lines if not line.startswith("# source:")]

    assert report("ingest-underscore.txt") == report("ingest.txt")


REFUSAL_FILES = {
    "dicke128.cfg": DICKE128,
    "far-filter.cfg": DICKE128 + b"filters.signal.center_nm = 900\n",
    "8193.cfg": b"grid.points = 8193\n",
    "negative-pump.cfg": DICKE128 + b"pump.bandwidth_nm = -1\n",
    "negative-coupling.cfg": DICKE128 + b"cavity.coupling_ratio = -1\n",
    "non-utf8.cfg": DICKE128 + b"# \xff\n",
    "non-numeric.csv": b"700,700,1\n700,690,x\n690,700,1\n690,690,1\n",
    "repeated-column.csv": b"# columns: signal_nm,idler_nm,intensity,intensity\n"
                           b"700,700,1,5\n700,690,2,6\n690,700,3,7\n690,690,4,8\n",
    "second-header.csv": b"700,700,1\n700,690,2\n690,700,3\n690,690,4\n"
                         b"# columns: signal_nm,idler_nm,intensity\n"
                         b"# columns: idler_nm,signal_nm,intensity\n",
    "non-utf8.csv": b"700,700,1\n700,690,2\n690,700,\xff\n690,690,4\n",
}


def refusal(args, start="error: ", config="dicke128.cfg", code=1):
    """One refusal: its arguments, the start of its one stderr line, its config and exit
    code.  {dir} in the arguments and the start is where REFUSAL_FILES are."""
    return args, start, config, code


# A case of two refusals must give the same line after each one's start.
REFUSALS = {
    "unknown-flag": [refusal("state --frobnicate")],
    "unknown-subcommand": [refusal("explode")],
    "repeated-series-value": [refusal("sweep-coupling --values=1 --series=0,0")],
    "over-10000-points": [refusal("sweep-coupling --values=0.5:3:0.0005 --series=0,1")],
    "empty-values": [refusal("sweep-coupling --values= --series=0")],
    "backward-range": [refusal("sweep-coupling --values=3:1:0.5")],
    "pump-past-half-its-center": [refusal("sweep-pump --values=400 --series=1")],
    "vanishing-input-state": [refusal("sweep-pump --values=1e-200 --series=1")],
    "repeated-override": [refusal("state --cavity-override coupling_ratio=1 "
                                  "--cavity-override coupling_ratio=2")],
    "filter-off-the-grid": [refusal("state", config="far-filter.cfg")],
    "grid-array-over-1-GiB": [refusal("state", config="8193.cfg")],
    "negative-pump": [
        refusal("state", "error: {dir}/negative-pump.cfg: ", "negative-pump.cfg"),
        refusal("sweep-pump --values=-1 --series=1", "error: pump_bandwidth_nm value -1: ")],
    "negative-coupling": [
        refusal("state", "error: {dir}/negative-coupling.cfg: ", "negative-coupling.cfg"),
        refusal("sweep-coupling --values=-1 --series=0",
                "error: coupling_ratio value -1, cavity_detuning_nm value 0: ")],
    "config-not-UTF-8": [refusal("state", "error: {dir}/non-utf8.cfg:3: not UTF-8 text\n",
                                 "non-utf8.cfg")],
    "non-numeric-cell": [refusal("ingest --in {dir}/non-numeric.csv")],
    "repeated-column": [refusal("ingest --in {dir}/repeated-column.csv")],
    "second-columns-header": [refusal("ingest --in {dir}/second-header.csv")],
    "map-not-UTF-8": [refusal("ingest --in {dir}/non-utf8.csv",
                              "error: {dir}/non-utf8.csv:3: not UTF-8 text\n")],
    "endless-map": [refusal("ingest --in /dev/zero")],
    "endless-config": [refusal("entropy", config="/dev/zero")],
    "two-names-for-one-output": [refusal("transmit --out t.csv --curve-out ./t.csv",
                                         "i/o error: ", code=2)],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("refusal-inputs")
    for name, data in REFUSAL_FILES.items():
        (where / name).write_bytes(data)
    return where


@pytest.mark.parametrize("refusals", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_is_one_stderr_line(inputs, tmp_path, refusals):
    tails = set()
    for args, start, config, code in refusals:
        start = start.format(dir=inputs)
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "biphoton_cavity.cli",
             *args.format(dir=inputs).split(), "--config", str(inputs / config)],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr.count("\n"), done.stderr[-1:]) == (code, 1, "\n"), \
            done.stderr
        assert done.stderr.startswith(start), done.stderr
        assert list(tmp_path.iterdir()) == []
        tails.add(done.stderr.removeprefix(start))
    assert len(tails) == 1


if __name__ == "__main__":
    run_thread_commands()
