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
from .config import ConfigError, apply_overrides, load_config
from .pipeline import grid_from_config, input_state_from_config
from .schmidt import entropy_of
from .state import apply_idler_transfer
from .sweep import MAX_SWEEP_POINTS, SWEEPS, SweepPlan, run_sweep

OUT_DIR_ENV = "BIPHOTON_CAVITY_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _emit(pieces, out_path):
    """Write an export's text pieces to `out_path`, or to stdout when it is None.
    A relative path is taken under $BIPHOTON_CAVITY_OUT_DIR when that is set."""
    if out_path is None:
        sys.stdout.writelines(pieces)
    else:
        out_path = os.path.join(os.environ.get(OUT_DIR_ENV) or "", out_path)
        dataio.write_lines(out_path, pieces)
        print(f"wrote {out_path}", file=sys.stderr)


def _load(args):
    config = load_config(args.config)
    return apply_overrides(config, args.cavity_override, where="--cavity-override")


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
    return tuple(np.round(np.arange(start, end, step), 12))


def _cmd_state(args) -> int:
    config = _load(args)
    _emit(dataio.render_jsi(input_state_from_config(config), config), args.out)
    return 0


def _cmd_transmit(args) -> int:
    config = _load(args)
    grid = grid_from_config(config)
    curve = transfer_for(config.cavity.model(), grid.idler_axis)
    output = apply_idler_transfer(input_state_from_config(config, grid), curve)
    _emit(dataio.render_jsi(output, config), args.out)
    if args.curve_out is not None:
        _emit(dataio.render_curve(curve, config), args.curve_out)
    return 0


def _cmd_entropy(args) -> int:
    config = _load(args)
    lines = [f"# config.{line}" for line in config.echo_lines()]
    if args.source is not None:
        measured = dataio.ingest_measured_jsi(args.source)
        entropy, flags = dataio.measured_entropy(measured)
        lines.append(f"# source: {args.source}")
        if flags:
            lines.append(f"# flags: {';'.join(flags)}")
    else:
        entropy = entropy_of(input_state_from_config(config))
    if args.bits:
        lines.append(f"entropy_bits = {entropy / math.log(2.0):.9g}")
    else:
        lines.append(f"entropy_nats = {entropy:.9g}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = _load(args)
    spec = SWEEPS[args.swept_parameter]
    values = spec.default_values if args.values is None else _parse_values(args.values, "--values")
    series = spec.default_series if args.series is None else _parse_values(args.series, "--series")
    plan = SweepPlan(config, args.swept_parameter, values, series_values=series)
    _emit(dataio.render_sweep(run_sweep(plan)), args.out)
    return 0


def _cmd_ingest(args) -> int:
    _load(args)  # config is required by the surface; validates even if unused
    measured = dataio.ingest_measured_jsi(args.source)
    entropy, flags = dataio.measured_entropy(measured)
    lines = [
        f"# source: {args.source}",
        f"# grid: {measured.signal_nm.size} x {measured.idler_nm.size}",
        f"# amplitude_columns: {'yes' if measured.amplitude is not None else 'no'}",
    ]
    if flags:
        lines.append(f"# flags: {';'.join(flags)}")
    lines.append(f"entropy_nats = {entropy:.9g}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


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
    for name, swept, help_text in (
        ("sweep-coupling", "coupling_ratio", "entropy vs coupling strength per detuning"),
        ("sweep-pump", "pump_bandwidth_nm", "entropy vs pump bandwidth per coupling"),
        ("sweep-detuning", "cavity_detuning_nm", "entropy vs cavity detuning"),
    ):
        p = add(name, _cmd_sweep, help_text)
        p.set_defaults(swept_parameter=swept)
        p.add_argument("--values", default=None, help="sweep values: start:stop:step or v1,v2,...")
        p.add_argument("--series", default=None, help="series values: v1,v2,...")
    ingest = add("ingest", _cmd_ingest, "validate a measured JSI file and report its entropy")
    ingest.add_argument("--in", dest="source", required=True, metavar="FILE",
                        help="measured JSI file to ingest")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
