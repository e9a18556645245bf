"""Code lines of the library's modules: lines that are neither blank, nor
comments, nor docstrings, so that deleted comments do not read as a smaller
program.

    python3 tools/code_lines.py        # the files in the working tree
    python3 tools/code_lines.py REV    # the files at git revision REV

Prints one line per module and a total.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/skewbracoid"


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docs and line.strip() and not line.strip().startswith("#"))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def sources(rev: str | None = None) -> dict[str, str]:
    """Each module's path and text, from the working tree or from `rev`."""
    if rev is None:
        return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
                for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = _git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {name: _git("show", f"{rev}:{name}") for name in sorted(names)
            if name.endswith(".py")}


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else None
    total = 0
    for name, text in sources(rev).items():
        count = code_lines(text)
        total += count
        print(f"{count:6d} {f'{rev}:' if rev else ''}{name} (code lines)")
    print(f"{total:6d} total (code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
