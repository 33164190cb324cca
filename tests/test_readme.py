"""README.md's examples run as written.

Every ``hesspave ...`` line of its ``sh`` blocks runs through cli.main and
exits 0, and the Library snippet prints the polynomial its comment names.
"""

import re
import shlex
from pathlib import Path

import pytest

from hesspave import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


COMMANDS = [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("hesspave ")]
LIBRARY = _blocks("python")


def test_the_examples_are_found():
    assert len(COMMANDS) == 8 and len(LIBRARY) == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_each_command_exits_zero(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_the_library_snippet_prints_its_polynomial(capsys):
    (snippet,) = LIBRARY
    expected = re.search(r"print\(result\.polynomial\)\s+# (.+)", snippet)[1]
    assert expected == "1 + 3x^2 + 3x^4 + x^6"
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == expected
