"""Count the lines of src/bsymbols/: all lines, code lines and lru_caches.

A code line holds a token that is no comment, no docstring and no line
break; a docstring is a logical line made of string tokens alone, so a
bare string statement anywhere counts as one. Every line that such a
token spans counts, so a multi-line string inside code counts whole. The
lru_cache count is the number of function decorators that name
`lru_cache`, called or not. The name keeps pytest from collecting it.

The three totals go to stdout, in that order; each module's code lines
follow on stderr, one line per file, so a change in the total shows which
module it came from while stdout stays three lines.

Usage: python tests/code_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bsymbols"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> set[int]:
    """The numbers of the lines of path that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in LAYOUT:
                statement.append(tok)
    return lines


def lru_caches(path: Path) -> int:
    """The number of function decorators of path that name lru_cache."""

    def named(node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name == "lru_cache"

    tree = ast.parse(path.read_text(), str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sum(
        named(d)
        for node in ast.walk(tree)
        if isinstance(node, functions)
        for d in node.decorator_list
    )


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    total = sum(len(p.read_text().splitlines()) for p in files)
    per_file = {p.name: len(code_lines(p)) for p in files}
    caches = sum(lru_caches(p) for p in files)
    print(f"lines: {total}")
    print(f"code lines: {sum(per_file.values())}")
    print(f"lru_caches: {caches}", flush=True)
    for name, code in per_file.items():
        print(f"  {name}: {code}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
