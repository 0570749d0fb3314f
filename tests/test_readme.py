"""The README's examples are run as written, so they stay true."""

import re
import shlex
from pathlib import Path

from cohomring.cli import run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _cli_examples() -> list:
    """(argv, expected lines) for each `$ cohomring ...` line and the lines under it."""
    examples = []
    for chunk in _block("Command line", "sh").strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ cohomring "), command
        examples.append((shlex.split(command)[2:], shown))
    return examples


def test_every_command_line_example_prints_what_the_readme_shows():
    examples = _cli_examples()
    assert len(examples) == 5
    for argv, shown in examples:
        code, out = run_command(argv)
        assert (code, out.splitlines()) == (0, shown), argv


def test_the_library_example_runs():
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})
