"""tools/code_lines.py, the code-line count that CI reports."""

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402


def test_blank_comment_and_docstring_lines_are_not_code():
    text = ('"""Module.\n\nMore."""\n\n# a comment\nclass A:\n    """One line."""\n'
            '    def f(self):\n        """Two\n        lines."""\n'
            '        return "not a docstring"  # a trailing comment\n')
    assert code_lines.code_lines(text) == 3


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_a_revision_is_read_through_git(capsys):
    at_head = code_lines.sources("HEAD")
    assert "src/skewbracoid/__init__.py" in at_head
    assert all(name.startswith("src/skewbracoid/") and name.endswith(".py")
               for name in at_head)
    assert code_lines.main(["HEAD"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(at_head) + 1
    assert int(lines[-1].split()[0]) == sum(map(code_lines.code_lines, at_head.values()))
