import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import biphoton_cavity


class TestPublicSurface:
    def test_all_matches_the_submodule_imports(self):
        tree = ast.parse(inspect.getsource(biphoton_cavity))
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names}
        names = biphoton_cavity.__all__
        assert len(names) == len(set(names))
        assert set(names) == imported
        for name in names:
            assert getattr(biphoton_cavity, name) is not None

    def test_the_cli_loads_no_test_or_cross_check_module(self, tmp_path):
        # the commands run on numpy alone; the tests' oracles stay in the tests
        src = str(Path(biphoton_cavity.__file__).resolve().parent.parent)
        script = ("import sys, biphoton_cavity.cli; "
                  "print(' '.join(sorted(m for m in sys.modules "
                  "if m.partition('.')[0] in ('scipy', 'hypothesis', 'pytest', '_pytest', "
                  "'conftest'))))")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.split() == []


ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_source_file_parses_as_python_3_10():
    """pyproject.toml promises Python >= 3.10.  This checks the grammar only: a call to
    a standard-library function newer than 3.10 still parses."""
    files = [path for part in ("src", "tests", "bench") for path in (ROOT / part).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))


class TestBenchmarkImports:
    """The names the benchmark's child processes take from the package exist, so a
    rename in the package fails here rather than in a benchmark run."""

    def test_every_probe_import_resolves(self):
        tree = ast.parse((BENCH / "probe.py").read_text(encoding="utf-8"))
        imports = [(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module.partition(".")[0] == "biphoton_cavity"
                   for alias in node.names]
        assert imports
        for module, name in imports:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"

    def test_the_cli_loads_every_traced_layer_and_sized_function(self, tmp_path):
        tree = ast.parse((BENCH / "trace_child.py").read_text(encoding="utf-8"))
        named = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        layers, sized = (ast.literal_eval(named[name]) for name in ("LAYERS", "SIZED"))
        src = str(Path(biphoton_cavity.__file__).resolve().parent.parent)
        script = "import sys, biphoton_cavity.cli; print(' '.join(sorted(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        loaded = set(done.stdout.split())
        assert {f"biphoton_cavity.{layer}" for layer in layers} <= loaded
        for traced in sized:
            layer, _, function = traced.partition(".")
            assert layer in layers
            assert inspect.isfunction(getattr(importlib.import_module(f"biphoton_cavity.{layer}"),
                                              function, None)), traced
