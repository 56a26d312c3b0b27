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


# the package's modules, lowest layer first
LAYERS = ("errors", "partitions", "_util", "symbols", "families", "adjacency", "preorder", "typea", "verify", "cli")


def test_imports_run_down_the_layers():
    # a relative import names a module of a lower layer, so the package has
    # no import cycle; only cli imports inside a function, per subcommand
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(["__init__", *LAYERS])
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(), f"{name}.py")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and name != "cli":
                inner = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{name}.py:{inner[0].lineno} imports inside a function"
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                for target in targets:
                    assert LAYERS.index(target) < rank, f"{name}.py:{node.lineno} imports {target}"
