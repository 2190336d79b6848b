"""Command-line surface.

Subcommands: state, transmit, entropy, sweep-coupling, sweep-pump,
sweep-detuning, ingest.  Exit codes: 0 success, 1 validation/usage error or
out of memory, 2 I/O error.  Diagnostics go to stderr; data to files or stdout.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import dataio
from .cavity import transfer_for
from .config import ConfigError, apply_overrides, format_value, load_config
from .pipeline import grid_from_config, input_state_from_config
from .schmidt import entropy_of
from .state import apply_idler_transfer
from .sweep import MAX_SWEEP_POINTS, SweepPlan, run_sweep

OUT_DIR_ENV = "BIPHOTON_CAVITY_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _emit(*outputs):
    """Write each `(pieces, out_path)`: text to a file, or to stdout for None, once every
    path is checked.  Relative paths go under $BIPHOTON_CAVITY_OUT_DIR when that is set."""
    out_dir = os.environ.get(OUT_DIR_ENV) or ""
    paths = [path if path is None else dataio.check_output_path(os.path.join(out_dir, path))
             for _, path in outputs]
    # abspath, not realpath: os.replace replaces a link, so a link and its target are two files
    files = [os.path.abspath(path) for path in paths if path is not None]
    if clash := next((file for k, file in enumerate(files) if file in files[:k]), None):
        raise OSError(f"two outputs name the same file: {clash}")
    for (pieces, _), out_path in zip(outputs, paths):
        if out_path is None:
            sys.stdout.writelines(pieces)
        else:
            dataio.write_lines(out_path, pieces)
            print(f"wrote {out_path}", file=sys.stderr)


def _parse_values(spec: str, flag: str) -> tuple[float, ...]:
    is_range = ":" in spec
    parts = spec.split(":" if is_range else ",")
    if is_range and len(parts) != 3:
        raise ConfigError(f"{flag}: expected start:stop:step, got {spec!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag}: expected numbers, got {spec!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag}: values must be finite, got {spec!r}")
    if not is_range:
        return values
    start, stop, step = values
    end = stop + step / 2.0  # np.arange's exclusive end
    if step <= 0.0 or stop < start:
        raise ConfigError(f"{flag}: bad range {spec!r}")
    points = (end - start) / step  # np.arange's length, before it allocates
    if points > MAX_SWEEP_POINTS:
        raise ConfigError(f"{flag}: range {spec!r} would give {points:.3g} points; "
                          f"the limit is {MAX_SWEEP_POINTS}")
    if not math.isfinite(max(-start, end) * 1e12):  # np.round(x, 12) scales x by 1e12
        raise ConfigError(f"{flag}: range {spec!r} is too large to round to 12 decimals")
    # start:start:step is start: half a step may vanish against stop, and np.arange give nothing
    return tuple(np.round(np.arange(start, end, step) if stop > start else np.array([start]), 12))


def _cmd_state(args, config):
    return [(dataio.render_jsi(input_state_from_config(config), config), args.out)]


def _cmd_transmit(args, config):
    grid = grid_from_config(config)
    curve = transfer_for(config.cavity.model(), grid.idler_axis)
    output = apply_idler_transfer(input_state_from_config(config, grid), curve)
    outputs = [(dataio.render_jsi(output, config), args.out)]
    if args.curve_out is not None:
        outputs.append((dataio.render_curve(curve, config), args.curve_out))
    return outputs


def _cmd_entropy(args, config):
    lines = [f"# config.{line}" for line in config.echo_lines()]
    if args.source is not None:
        state, flags = dataio.ingest_measured_jsi(args.source)
        lines.append(f"# source: {args.source}")
        if flags:
            lines.append(f"# flags: {';'.join(flags)}")
    else:
        state = input_state_from_config(config)
    entropy = entropy_of(state)
    if args.bits:
        lines.append(f"entropy_bits = {format_value(entropy / math.log(2.0))}")
    else:
        lines.append(f"entropy_nats = {format_value(entropy)}")
    return [(["\n".join(lines) + "\n"], args.out)]


def _cmd_sweep(args, config):
    # --series first: a refused one must not wait on a default --values range
    series = () if args.series is None else _parse_values(args.series, "--series")
    plan = SweepPlan(config, args.swept_parameter, _parse_values(args.values, "--values"), series)

    def pieces():  # a generator: no point runs before _emit has checked --out
        yield from dataio.render_sweep(run_sweep(plan))
    return [(pieces(), args.out)]


def _cmd_ingest(args, config):
    state, flags = dataio.ingest_measured_jsi(args.source)
    lines = [
        f"# source: {args.source}",
        f"# grid: {state.grid.n_signal} x {state.grid.n_idler}",
        f"# amplitude_columns: {'no' if dataio.INTENSITY_ONLY_FLAG in flags else 'yes'}",
    ]
    if flags:
        lines.append(f"# flags: {';'.join(flags)}")
    lines.append(f"entropy_nats = {format_value(entropy_of(state))}")
    return [(["\n".join(lines) + "\n"], args.out)]


def build_parser() -> _Parser:
    parser = _Parser(
        prog="biphoton-cavity",
        description="Simulate frequency-entangled photon pairs with one arm "
        "propagated through an optical microcavity.",
        epilog=f"Relative --out paths are prefixed with ${OUT_DIR_ENV} when that "
        "environment variable is set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="configuration file (key = value lines)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument(
            "--cavity-override", action="append", default=[], metavar="KEY=VALUE",
            help="override a cavity.* config key (repeatable)",
        )
        p.set_defaults(func=func)
        return p

    add("state", _cmd_state, "export the input-state joint spectrum")
    transmit = add("transmit", _cmd_transmit, "export the cavity-transformed joint spectrum")
    transmit.add_argument("--curve-out", default=None, help="also export the transfer curve here")
    entropy = add("entropy", _cmd_entropy, "print the entanglement entropy")
    entropy.add_argument("--in", dest="source", default=None, metavar="FILE",
                         help="compute from an exported/measured JSI file instead")
    entropy.add_argument("--bits", action="store_true", help="print entropy in bits instead of nats")
    # Bracketing defaults: the resolved-polariton boundary sits at coupling ratio 0.5, and the
    # couplings of interest for the bandwidth comparison cluster between 0.75 and 2.
    for name, swept, help_text, values, series in (
        ("sweep-coupling", "coupling_ratio", "entropy vs coupling strength per detuning",
         "0.5:3:0.05", "-4,-2,0,2,4"),
        ("sweep-pump", "pump_bandwidth_nm", "entropy vs pump bandwidth per coupling",
         "0.5:10:0.25", "0.75,1,1.35,2"),
        ("sweep-detuning", "cavity_detuning_nm", "entropy vs cavity detuning", "-4,-2,0,2,4", None),
    ):
        p = add(name, _cmd_sweep, help_text)
        p.set_defaults(swept_parameter=swept)
        p.add_argument("--values", default=values, help="sweep values: start:stop:step or "
                       "v1,v2,... (default: %(default)s)")
        p.add_argument("--series", default=series, help="series values: start:stop:step or "
                       f"v1,v2,... (default: {series or 'one series at the configured value'})")
    ingest = add("ingest", _cmd_ingest, "validate a measured JSI file and report its entropy")
    ingest.add_argument("--in", dest="source", required=True, metavar="FILE",
                        help="measured JSI file to ingest")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = apply_overrides(load_config(args.config), args.cavity_override,
                                 where="--cavity-override")
        _emit(*args.func(args, config))
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; lower grid.points or use a smaller --in file", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
