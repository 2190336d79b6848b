import ast
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
