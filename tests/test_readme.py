"""README's examples run as written."""

import pathlib
import re
import shlex

import pytest

from ctrlwalk.cli import _build_parser

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block under the ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def cli_lines() -> list[str]:
    """Each `ctrlwalk ...` command of the Command line block, continuations joined."""
    text = fenced_block("Command line", "sh").replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip().startswith("ctrlwalk ")]


def test_library_example_runs():
    exec(compile(fenced_block("Library example", "python"), "README.md", "exec"), {})


def test_command_block_lists_every_subcommand():
    assert {shlex.split(line)[1] for line in cli_lines()} == {
        "evolve", "solve", "region", "simulate", "exponent", "barriers", "verify", "calibrate",
    }


@pytest.mark.parametrize("line", cli_lines())
def test_command_line_parses(line):
    argv = shlex.split(line)[1:]
    args = _build_parser().parse_args(argv)
    assert args.command == argv[0]
