"""The README's library example prints what its comments say it prints."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    # each print's comment sits on its own line, or on the next one
    want = [(line.partition("#")[2] or lines[i + 1].removeprefix("#")).strip()
            for i, line in enumerate(lines) if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert len(want) == 3
    assert out.getvalue().splitlines() == want
