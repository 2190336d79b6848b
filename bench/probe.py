"""Child processes whose wall time or output the benchmark measures.

    python3 bench/probe.py setup SRC_DIR CONFIG [OVERRIDE...]
        Import the package, load CONFIG with cavity KEY=VALUE overrides,
        build its grid and compose its input state: the set-up every command
        pays.  Exits 3 unless the package was imported from SRC_DIR.

    python3 bench/probe.py decompose CONFIG REPEATS
        Print as JSON the per-call wall times (ms) of schmidt_decompose on
        CONFIG's normalized input state, after one untimed call.
"""

import json
import sys
import time
from pathlib import Path


def setup(src_dir, config_path, *overrides):
    import biphoton_cavity
    from biphoton_cavity.config import apply_overrides, load_config
    from biphoton_cavity.pipeline import grid_from_config, input_state_from_config

    if not Path(biphoton_cavity.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        print(f"probe: imported {biphoton_cavity.__file__}, not from {src_dir}", file=sys.stderr)
        return 3
    config = apply_overrides(load_config(config_path), list(overrides))
    input_state_from_config(config, grid_from_config(config))
    return 0


def decompose(config_path, repeats):
    from biphoton_cavity.config import load_config
    from biphoton_cavity.pipeline import input_state_from_config
    from biphoton_cavity.schmidt import normalize, schmidt_decompose

    state = normalize(input_state_from_config(load_config(config_path)))
    schmidt_decompose(state)
    times = []
    for _ in range(int(repeats)):
        start = time.perf_counter()
        schmidt_decompose(state)
        times.append((time.perf_counter() - start) * 1e3)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "decompose": decompose}[mode](*rest))
