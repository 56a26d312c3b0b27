import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bsymbols"


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependency: every absolute import of every
    # module names a standard library module; relative imports stay inside
    modules = sorted(PACKAGE.glob("*.py"))
    imported = {}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], []).append(path.name)
    assert modules and {"functools", "argparse", "importlib"} <= set(imported)
    stdlib = sys.stdlib_module_names
    assert {name: where for name, where in imported.items() if name not in stdlib} == {}
