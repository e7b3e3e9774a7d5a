"""The README's code must run as written."""

import pathlib
import re

from strongedge.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    """Run the ``Library sketch`` code block on the ``w5s.edges`` instance
    that the README's quick start generates."""
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "wheel", "5", "--subdivide", "1", "-o", "w5s.edges"]) == 0
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["report"].verdict == "consistent"
    assert scope["exact"].chi_s <= scope["col"].colours_used()
