#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the biphoton-cavity CLI.

Run from the repository root (numpy is the only requirement):

    python3 bench/run.py --workload coupling_sweep --seed 0 --seconds 30 --trace 0

One closed-loop client runs one CLI command at a time.  Each command is a
fresh child process that runs the real `biphoton-cavity` entry point from
src/, and starts only after the previous one exited.  A pass is a workload's
command sequence.  A run times whole passes: at least one, and another only
while the previous pass would still end within --seconds.  wall_s is the
mean pass wall time, which on a shared machine varies less between runs
than the median of a few passes.  After each pass, outside the timed region,
the outputs are checked against the benchmark's own oracle (oracle.py).
Before timing, the workload's commands run once, discarded, after the first
set-up probes, so that the cold first start lands in setup_s, not in wall_s.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
pairs of passes, one untraced and one traced (trace_child.py), and prints the
per-layer metrics from the traced spans; tracing_overhead_s is the traced
pass's wall time minus the untraced one's.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it gives the details, and
the one before that the environment.  An operation is one timed CLI command;
it fails when it exits non-zero or an output it wrote misses the oracle.

Workloads (the seed draws the swept values, the series and the checked
sweep rows; seed 0 gives the README defaults):
  coupling_sweep  sweep-coupling, kind=dicke, configs/reference.cfg:
                  51 couplings in [0.5, 3] x 5 detunings in [-4, 4] nm.
  pump_sweep      sweep-pump, kind=dicke: 39 pump bandwidths in [0.5, 10] nm
                  x 4 couplings in [0.75, 2].
  file_roundtrip  state --out, transmit --out --curve-out, ingest --in
                  <transmit output>, entropy, on configs/reference.cfg; other
                  seeds than 0 draw the cavity lifetime and centre.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from trace_child import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
REFERENCE_CFG = ROOT / "configs" / "reference.cfg"
WORK_ROOT = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
# The console script `biphoton-cavity` runs exactly this.
ENTRY = "import sys; from biphoton_cavity.cli import main; sys.exit(main())"

SETUP_REPEATS = 12
SAMPLED_ROWS = 8
DECOMPOSE_REPEATS = 7
# Every run ends well inside the 180 s a run may take; a child still running
# then is killed and counts as failed.
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Command:
    name: str                      # state, transmit, ingest, entropy or sweep
    args: list                     # CLI arguments after the program name
    outputs: tuple                 # files it writes, relative to the work directory
    reads: tuple = ()              # data files it reads besides the config


@dataclass
class Plan:
    commands: list
    warmup: list
    overrides: list                # --cavity-override values, also given to the oracle
    check: object                  # (work dir, Physics) -> (misses by file, points, entropies)


@dataclass
class Result:
    command: Command
    code: int
    wall: float
    rss: int                       # peak resident set of the child, bytes
    io_bytes: int                  # data written plus config and inputs read
    spans: Path | None = None


def _draw(rng, lo, hi, count, digits):
    """`count` distinct sorted values in [lo, hi], both ends included."""
    values = {lo, hi}
    while len(values) < count:
        values.add(round(rng.uniform(lo, hi), digits))
    return sorted(values)


def _sweep_plan(command, swept, series_param, values, series, seed, rng, pump):
    base = ["--config", str(REFERENCE_CFG), "--cavity-override", "kind=dicke"]
    args = [command, *base, "--out", "sweep.csv"]
    if seed != 0:
        args += ["--values=" + ",".join(map(repr, values)),
                 "--series=" + ",".join(map(repr, series))]
    warm = [command, *base, f"--values={values[len(values) // 2]!r}",
            f"--series={series[0]!r}", "--out", "warmup.csv"]
    sample = set(rng.sample(range(len(values) * len(series)), SAMPLED_ROWS))

    def check(work, phys):
        misses, points = oracle.check_sweep(
            work / "sweep.csv", phys, swept=swept, series_param=series_param,
            values=values, series=series, sample=sample, pump=pump)
        # The header's two reference entropies also reach the output.
        return {"sweep.csv": misses}, points, points + 2

    return Plan([Command("sweep", args, ("sweep.csv",))],
                [Command("sweep", warm, ("warmup.csv",))], ["kind=dicke"], check)


def coupling_sweep(seed, rng):
    if seed == 0:
        values = [round(0.5 + 0.05 * k, 10) for k in range(51)]
        series = [-4.0, -2.0, 0.0, 2.0, 4.0]
    else:
        values = _draw(rng, 0.5, 3.0, 51, 4)
        series = _draw(rng, -4.0, 4.0, 5, 3)
    return _sweep_plan("sweep-coupling", "coupling_ratio", "cavity_detuning_nm",
                       values, series, seed, rng, pump=False)


def pump_sweep(seed, rng):
    if seed == 0:
        values = [round(0.5 + 0.25 * k, 10) for k in range(39)]
        series = [0.75, 1.0, 1.35, 2.0]
    else:
        values = _draw(rng, 0.5, 10.0, 39, 4)
        series = _draw(rng, 0.75, 2.0, 4, 3)
    return _sweep_plan("sweep-pump", "pump_bandwidth_nm", "coupling_ratio",
                       values, series, seed, rng, pump=True)


def file_roundtrip(seed, rng):
    overrides = [] if seed == 0 else [
        f"lifetime_fs={round(rng.uniform(100.0, 200.0), 3)!r}",
        f"center_nm={round(rng.uniform(683.0, 687.0), 3)!r}",
    ]
    base = ["--config", str(REFERENCE_CFG)]
    for item in overrides:
        base += ["--cavity-override", item]
    commands = [
        Command("state", ["state", *base, "--out", "state.csv"], ("state.csv",)),
        Command("transmit", ["transmit", *base, "--out", "transmit.csv",
                             "--curve-out", "curve.csv"], ("transmit.csv", "curve.csv")),
        Command("ingest", ["ingest", *base, "--in", "transmit.csv", "--out", "ingest.txt"],
                ("ingest.txt",), reads=("transmit.csv",)),
        Command("entropy", ["entropy", *base, "--out", "entropy.txt"], ("entropy.txt",)),
    ]

    def check(work, phys):
        if phys.cavity_kind != "two_sided":
            raise ValueError("file_roundtrip expects the two-sided reference cavity")
        state, curve = phys.input_state(), phys.two_sided()
        misses = {"state.csv": oracle.check_jsi(work / "state.csv", phys, state)[0]}
        misses["transmit.csv"], table = oracle.check_jsi(
            work / "transmit.csv", phys, state * curve[None, :])
        misses["curve.csv"] = oracle.check_curve(work / "curve.csv", phys, curve)
        misses["ingest.txt"] = oracle.check_ingest_output(
            work / "ingest.txt", table, "transmit.csv", phys.points)
        misses["entropy.txt"] = oracle.check_entropy_output(work / "entropy.txt", phys)
        return misses, 2, 2

    return Plan(commands, commands, overrides, check)


WORKLOADS = {"coupling_sweep": coupling_sweep, "pump_sweep": pump_sweep,
             "file_roundtrip": file_roundtrip}


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _size(path):
    return path.stat().st_size if path.is_file() else 0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


class Bench:
    """One run of one workload: children, checks, counters."""

    def __init__(self, name, seed, plan, phys, work):
        self.name, self.seed, self.plan, self.phys, self.work = name, seed, plan, phys, work
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k != "BIPHOTON_CAVITY_OUT_DIR"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.problems = []         # failures outside the timed operations
        self.setup = []            # set-up probe wall times
        self.misses = []
        self.verdicts = None       # output file -> (sha256, misses) of the first checked pass
        self.points = self.entropies = 0

    def _child(self, argv):
        """Run a child to completion: (exit code, wall seconds, peak RSS bytes)."""
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(self.work / "child.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (self.work / "child.stderr").read_text(errors="replace")[-2000:]
            print(f"bench: exit {code} from {' '.join(argv[-12:])}\n{tail}", file=sys.stderr)
        return code, wall, usage.ru_maxrss * 1024

    def run_command(self, cmd, spans=None):
        if spans is None:
            argv = [sys.executable, "-c", ENTRY, *cmd.args]
        else:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans), *cmd.args]
        read = _size(REFERENCE_CFG) + sum(_size(self.work / f) for f in cmd.reads)
        code, wall, rss = self._child(argv)
        written = sum(_size(self.work / f) for f in cmd.outputs)
        return Result(cmd, code, wall, rss, read + written, spans)

    def run_pass(self, commands, traced=False, tag=""):
        """Run commands in order; returns (pass wall seconds, results)."""
        results = []
        start = time.perf_counter()
        for k, cmd in enumerate(commands):
            spans = self.work / f"spans{tag}-{k}.json" if traced else None
            results.append(self.run_command(cmd, spans))
        return time.perf_counter() - start, results

    def verify(self, results):
        """Check a timed pass's outputs and count its operations."""
        files = [f for cmd in self.plan.commands for f in cmd.outputs]
        hashes = {f: _sha256(self.work / f) if (self.work / f).is_file() else None for f in files}
        if self.verdicts is None:
            try:
                misses, self.points, self.entropies = self.plan.check(self.work, self.phys)
            except (OSError, ValueError, IndexError) as exc:
                misses = {f: [f"unreadable: {exc}"] for f in files}
            self.verdicts = {f: (hashes[f], misses.get(f, [])) for f in files}
            self.misses += [f"{f}: {m}" for f in files for m in misses.get(f, [])][:20]
        for result in results:
            self.attempted += 1
            bad = result.code != 0 or any(
                hashes[f] is None or hashes[f] != self.verdicts[f][0] or self.verdicts[f][1]
                for f in result.command.outputs)
            self.failed += bad

    def golden(self):
        """(files byte-identical to the first code's seed-0 output, files compared)."""
        if self.seed != 0 or self.verdicts is None:
            return 0, 0
        known = json.loads(GOLDEN.read_text())["sha256"]
        pairs = [(known.get(f"{self.name}/{f}"), digest) for f, (digest, _) in self.verdicts.items()]
        pairs = [(want, got) for want, got in pairs if want is not None]
        return sum(want == got for want, got in pairs), len(pairs)

    def warm_up(self):
        _, results = self.run_pass(self.plan.warmup)
        self.problems += [f"warm-up {r.command.name} exit {r.code}" for r in results if r.code]

    def time_passes(self, seconds, run_once):
        """Call run_once(), which returns its wall time, at least once and
        again while another call as long as the last would end within
        `seconds`."""
        spent = 0.0
        while True:
            last = run_once()
            spent += last
            if spent + last > seconds or time.perf_counter() - self.started > RUN_LIMIT_S / 2:
                return

    def probe_setup(self, times):
        for _ in range(times):
            code, wall, _ = self._child([sys.executable, str(BENCH / "probe.py"), "setup",
                                         str(SRC), str(REFERENCE_CFG), *self.plan.overrides])
            self.setup.append(wall)
            if code:
                self.problems.append(f"setup probe exit {code}")

    def run(self, seconds):
        # Half the probes run before the warm-up, so the cold first start
        # counts, and half after the timed passes: the machine's speed drifts
        # within seconds, and the median should span the whole run.
        self.probe_setup(SETUP_REPEATS // 2)
        self.warm_up()
        walls, results = [], []

        def one_pass():
            wall, res = self.run_pass(self.plan.commands)
            self.verify(res)
            walls.append(wall)
            results.extend(res)
            return wall

        self.time_passes(seconds, one_pass)
        self.probe_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
        command_wall = sum(r.wall for r in results)
        metrics = {
            "setup_s": (statistics.median(self.setup), "s"),
            "wall_s": (sum(walls) / len(walls), "s"),
            "points_per_s": (self.points * len(walls) / sum(walls), "1/s"),
            "io_mb_per_s": (sum(r.io_bytes for r in results) / 1e6 / command_wall, "MB/s"),
            "peak_rss_mb": (max(r.rss for r in results) / 1e6, "MB"),
            "success_rate": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }
        identical, compared = self.golden()
        detail = {
            "workload": self.name, "seed": self.seed, "passes": len(walls),
            "pass_wall_s": walls, "setup_s": self.setup,
            "command_wall_s": {c.name: [r.wall for r in results if r.command.name == c.name]
                               for c in self.plan.commands},
            "points_per_pass": self.points, "entropies_per_pass": self.entropies,
            "golden_identical_files": identical, "golden_compared_files": compared,
            "output_sha256": {f: digest for f, (digest, _) in (self.verdicts or {}).items()},
            "problems": self.problems, "misses": self.misses,
        }
        return metrics, detail

    def run_traced(self, seconds):
        self.warm_up()
        untraced, traced, span_files, cmd_walls = [], [], [], {}

        def one_pair():
            tag = f"-{len(traced)}"
            wall_u, res_u = self.run_pass(self.plan.commands)
            self.verify(res_u)
            wall_t, res_t = self.run_pass(self.plan.commands, traced=True, tag=tag)
            self.verify(res_t)
            untraced.append(wall_u)
            traced.append(wall_t)
            span_files.extend(r.spans for r in res_t)
            for r in res_u:
                cmd_walls.setdefault(r.command.name, []).append(r.wall)
            return wall_u + wall_t

        self.time_passes(seconds, one_pair)
        metrics = layer_metrics(span_files, len(traced), self.entropies)
        metrics["tracing_overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        for name in ("state", "transmit", "ingest", "entropy", "sweep"):
            metrics[f"cli.cmd_{name}_s"] = (statistics.median(cmd_walls.get(name, [0.0])), "s")
        single = self.single_thread_decompose()
        n = self.phys.points
        # zgesdd without vectors: Householder bidiagonalization of an n x n
        # complex matrix, 8/3 n^3 complex multiply-adds of 4 real flops each;
        # the bidiagonal singular values add O(n^2).
        gflop = 32.0 / 3.0 * n**3 / 1e9
        metrics["schmidt.svd_gflop_per_call_computed"] = (gflop, "GFLOP")
        p50 = metrics["schmidt.decompose_ms_p50"][0]
        metrics["schmidt.svd_gflop_per_s_computed"] = (gflop / (p50 / 1e3) if p50 else 0.0, "GFLOP/s")
        metrics["schmidt.decompose_1thread_ms_p50"] = (single, "ms")
        identical, compared = self.golden()
        metrics["dataio.golden_identical_files"] = (identical, "count")
        metrics["dataio.golden_compared_files"] = (compared, "count")
        detail = {"workload": self.name, "seed": self.seed, "pairs": len(traced),
                  "untraced_wall_s": untraced, "traced_wall_s": traced,
                  "problems": self.problems, "misses": self.misses}
        return metrics, detail

    def single_thread_decompose(self):
        """The plain single-threaded baseline: schmidt_decompose, BLAS on one thread."""
        env = dict(self.env, **{var: "1" for var in THREAD_VARS})
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), "decompose", str(REFERENCE_CFG),
             str(DECOMPOSE_REPEATS)], cwd=self.work, env=env, capture_output=True, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started)))
        if proc.returncode:
            self.problems.append(f"decompose probe exit {proc.returncode}: {proc.stderr[-500:]}")
            return 0.0
        return statistics.median(json.loads(proc.stdout))


# Inclusive time of a layer's work: the outermost spans of these functions,
# so that nested calls within one set are not counted twice.
INCLUSIVE = {
    "config.load": ("config.load_config", "config.apply_overrides"),
    "grid.build": ("grid.build_grid",),
    "state.compose": ("state.compose_input_state",),
    "state.apply": ("state.apply_idler_transfer",),
    "cavity.transfer": ("cavity.transfer_for", "cavity.one_sided_transfer",
                        "cavity.two_sided_transfer", "cavity.dicke_transfer"),
    "schmidt.normalize": ("schmidt.normalize",),
    "schmidt.decompose": ("schmidt.schmidt_decompose", "schmidt.entropy_of_samples"),
    "pipeline.run_single": ("pipeline.run_single", "pipeline.run_with_model"),
    "dataio.render": ("dataio.render_jsi", "dataio.render_curve", "dataio.render_sweep"),
    "dataio.write": ("dataio.write_lines",),
    "dataio.ingest": ("dataio.ingest_measured_jsi",),
    "dataio.measured_entropy": ("dataio.measured_entropy",),
}
COUNTED = ("state.compose", "state.apply", "cavity.transfer", "schmidt.decompose")


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]


def layer_metrics(span_files, passes, entropies_per_pass):
    """Per-layer metrics, per traced pass, from the spans the children wrote.

    A span is [name, start, end, parent index, file bytes]; its self time is
    its duration minus that of its direct children.
    """
    total = dict.fromkeys(INCLUSIVE, 0.0)
    calls = dict.fromkeys(INCLUSIVE, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    imports, decompose_ms = [], []
    file_bytes = {"dataio.write_lines": 0, "dataio.ingest_measured_jsi": 0}
    for path in span_files:
        spans = json.loads(path.read_text())["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            duration = end - start
            if name == "cli.import":
                imports.append(duration)
                continue
            self_s[name.split(".")[0]] += duration - child[i]
            for key, names in INCLUSIVE.items():
                if name in names and all(spans[p][0] not in names for p in _ancestors(spans, i)):
                    total[key] += duration
                    calls[key] += 1
            if name in INCLUSIVE["schmidt.decompose"]:
                decompose_ms.append(duration * 1e3)
            if name in file_bytes:
                file_bytes[name] += size or 0
    per = 1.0 / passes
    metrics = {"cli.import_s": (statistics.median(imports or [0.0]), "s")}
    for key in INCLUSIVE:
        metrics[f"{key}_s"] = (total[key] * per, "s")
    for key in COUNTED:
        metrics[f"{key}_calls"] = (calls[key] * per, "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] * per, "s")
    decompose_calls = calls["schmidt.decompose"] * per
    metrics.update({
        "schmidt.decompose_ms_p50": (_percentile(decompose_ms, 50), "ms"),
        "schmidt.decompose_ms_p90": (_percentile(decompose_ms, 90), "ms"),
        "schmidt.useful_ratio": (entropies_per_pass / decompose_calls if decompose_calls else 0.0,
                                 "ratio"),
        "dataio.bytes_written": (file_bytes["dataio.write_lines"] * per, "bytes"),
        "dataio.bytes_read": (file_bytes["dataio.ingest_measured_jsi"] * per, "bytes"),
    })
    return metrics


def environment():
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(" ".join((index / f).read_text().strip() for f in ("level", "type", "size")))
        except OSError:
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biphoton_cavity" / "cli.py").is_file() or not REFERENCE_CFG.is_file():
        sys.exit(f"bench: {SRC}/biphoton_cavity or {REFERENCE_CFG} is missing; "
                 "run from a full checkout of the repository")

    plan = WORKLOADS[args.workload](args.seed, random.Random(args.seed))
    phys = oracle.Physics(REFERENCE_CFG, plan.overrides)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, plan, phys, work)
        metrics, detail = (bench.run_traced if args.trace else bench.run)(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
