"""Run one CLI command in-process with the package's public functions traced.

    python3 bench/trace_child.py SPANS_JSON ARG...

Imports `biphoton_cavity.cli`, timed as the span `cli.import`.  Then every
public function of every package module is replaced, in each package module
that binds it, by a wrapper that records a span: name (`<module>.<function>`),
start, end, the index of the enclosing span, and for `dataio.write_lines`
and `dataio.ingest_measured_jsi` the size of the file they wrote or read.
Then `biphoton_cavity.cli.main(ARG...)` runs.  The spans are kept in memory
and written to SPANS_JSON at exit; the exit code is the command's.
"""

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("config", "grid", "state", "cavity", "schmidt", "pipeline", "sweep", "dataio", "cli")
# Functions whose first argument is a file path; the span records its size.
SIZED = ("dataio.write_lines", "dataio.ingest_measured_jsi")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, file bytes or None]
        self._open = []

    def wrap(self, name, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None, None])
            self._open.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
                if sized:
                    path = kwargs.get("path", args[0] if args else None)
                    if path is not None and os.path.isfile(path):
                        self.spans[index][4] = os.path.getsize(path)

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"biphoton_cavity.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name == "biphoton_cavity" or name.startswith("biphoton_cavity."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import biphoton_cavity.cli as cli

    tracer.spans.append(["cli.import", start, time.perf_counter(), None, None])
    tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"exit": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
