"""The README states what the code does: its study commands are the ones the
acceptance suite runs, and its settings table is each command's settings."""

from pathlib import Path

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
