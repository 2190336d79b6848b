import ast
import inspect

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
