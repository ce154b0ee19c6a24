"""Size of the package: physical and code lines per module of src/weylkit.

Run from anywhere as ``python tools/loc.py``.  For each module it
prints ``wc -l`` (the newline count) and the code lines: those that
are not blank, not a comment alone, and not part of a module, class or
function docstring.  A last row gives the totals.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weylkit"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers, from 1, spanned by the docstrings in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(wc -l, code lines) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for n, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and n not in docs)
    return text.count("\n"), code


def main() -> None:
    rows = [(path.stem, *count(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<12} {'wc -l':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<12} {lines:>6,} {code:>6,}")


if __name__ == "__main__":
    main()
