"""The README's examples, run as written.

The Python library block runs with ``exec``.  Every ``grainkit ...``
command in a shell block whose next line is a ``# <output>`` comment runs
through ``cli.main``, and its first stdout line must equal that comment,
or start with it when the comment ends in ``...``.
"""

import re
import shlex
from pathlib import Path

import pytest

from grainkit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def _commands_with_output() -> list[tuple[str, str]]:
    """(command, expected first line) for each command followed by a ``#`` line."""
    examples = []
    for block in _blocks("sh"):
        lines = block.replace("\\\n", " ").splitlines()
        for line, after in zip(lines, lines[1:]):
            if line.startswith("grainkit ") and after.startswith("# "):
                examples.append((" ".join(line.split()), after[2:]))
    return examples


EXAMPLES = _commands_with_output()


def test_readme_has_the_examples_it_is_checked_by():
    assert len(_blocks("python")) == 1
    assert len(EXAMPLES) >= 6


def test_library_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_command_prints_its_documented_output(command, expected, capsys):
    main(shlex.split(command)[1:])
    first = capsys.readouterr().out.splitlines()[0]
    if expected.endswith("..."):
        assert first.startswith(expected[:-3].rstrip())
    else:
        assert first == expected
