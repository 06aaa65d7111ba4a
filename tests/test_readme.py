"""The README's command-line examples and library quickstart, run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from redwords.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _command_lines() -> list[tuple[list[str], str | None]]:
    """Each ``redwords ...`` line of the block under "## Command line", as
    its argument list and the output its ``# ...`` comment gives, if any."""
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv and argv[0] == "redwords":
            lines.append((argv[1:], comment.strip() or None))
    return lines


COMMANDS = _command_lines()


def test_the_readme_lists_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("argv, expected", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_readme_command(tmp_path, monkeypatch, argv, expected):
    # the poset file the conventions paragraph describes
    poset = re.search(r'`(\{"n": .*?\})`', README).group(1)
    (tmp_path / "poset.json").write_text(poset)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    if expected is not None:
        assert out.getvalue().strip() == expected


def test_readme_library_quickstart():
    # the block runs as written, and each print gives its ``# ...`` comment
    section = README.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["16", "s[3,2,1]", "1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
