"""The README's library example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    code = README.read_text().split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    # each print's expected line is the comment that follows it
    expected = [
        next(rest.split("# ", 1)[1] for rest in lines[i:] if "# " in rest)
        for i, line in enumerate(lines)
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert expected and out.getvalue().splitlines() == expected
