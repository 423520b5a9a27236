"""The README states what the code does: its study commands are the ones the
acceptance suite runs, its CLI commands parse, and its settings table is each
command's settings."""

import shlex
from pathlib import Path

import pytest

from tcn_anticipation import cli

from test_acceptance import FUSION_STUDY, OBSLEN_STUDY, SPEED_STUDY

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> list[str]:
    """The lines under a ``## `` heading, up to the next one."""
    body = README.split(f"\n## {title}\n", 1)[1]
    return body.split("\n## ", 1)[0].splitlines()


def test_studies_block_is_what_the_acceptance_suite_runs():
    lines = section("Studies")
    block = lines[lines.index("```sh") + 1:]
    block = block[:block.index("```")]
    assert [line for line in block if line.startswith("tcna ")] == \
        [*FUSION_STUDY, *OBSLEN_STUDY, *SPEED_STUDY]


def cli_block_commands() -> list[str]:
    """The ``tcna`` commands in the CLI section's shell block, ``\\`` continuations joined."""
    lines = section("CLI")
    block = "\n".join(lines[lines.index("```sh") + 1:])
    block = block[:block.index("```")].replace("\\\n", " ")
    return [line for line in block.splitlines() if line.startswith("tcna ")]


@pytest.mark.parametrize("command", cli_block_commands())
def test_cli_block_commands_parse(command, capsys):
    """A flag the parser no longer has fails here while the README still shows it."""
    argv = shlex.split(command, comments=True)[1:]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{command!r} does not parse: {capsys.readouterr().err}")


def test_cli_block_holds_the_quickstart():
    """The joined block still yields each pipeline step, so the parse test is not vacuous."""
    steps = {"synth-gen", "train-branch", "train-fusion", "evaluate", "gradcheck"}
    assert {command.split()[1] for command in cli_block_commands()} == steps


def test_settings_table_is_each_commands_settings():
    """Flags are named with ``-`` and config keys with ``_``; the checkpoint
    paths, which only a flag sets, are left out of the table."""
    table = {}
    for row in section("CLI"):
        if row.startswith("| `"):
            command, flags, file_only = (cell.strip() for cell in row.strip("|").split("|"))
            table[command.strip("`")] = tuple(
                {name.strip().replace("-", "_") for name in cell.split(",") if name.strip()}
                for cell in (flags, file_only))
    expected = {}
    for command, (_, _, keys, _) in cli.COMMANDS.items():
        settings = [(key, cli.SETTINGS[key]) for key in keys]
        expected[command] = ({key for key, s in settings if s.help is not None and s.config},
                             {key for key, s in settings if s.help is None})
    assert table == expected
