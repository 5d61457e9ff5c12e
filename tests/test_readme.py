"""The README's examples run and print what the README says."""

import argparse
import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from treerank import (Enclosure, TreeVariety, bound_interval, census, check_inequalities,
                      cli, rank_vertex_counts)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_documented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == [
        "0.363380227632",
        "0.148337 <= a_2 <= 0.290707",
    ]


def test_result_records_are_read_only_named_tuples():
    nonplane = TreeVariety.NONPLANE
    cen = census(nonplane, 4)
    assert census(nonplane, 4) is cen  # cached: every caller shares this object
    records = [
        (cen, "tree_count"),
        (rank_vertex_counts(nonplane, 0, 6), "counts"),
        (bound_interval(nonplane, 2, 4), "lower"),
        (Enclosure(Fraction(0), Fraction(1), 6), "lo"),
        (check_inequalities(nonplane, 4), "checks"),
    ]
    for record, field in records:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            record.extra = value
        assert record._asdict()[field] is value
    assert cen._replace(tree_count=0).tree_count == 0
    assert census(nonplane, 4).tree_count == cen.tree_count == 5


def command_line_examples() -> list[tuple[list[str], list[str]]]:
    """Each `treerank ...` line of the "Command line" block, as an argv, with
    the output lines documented under it as `#   ...` comments."""
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"\n## Command line\n.*?```sh\n(.*?)```", text, re.S)
    examples = []
    for line in block.splitlines():
        if line.startswith("treerank "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("#   "):
            examples[-1][1].append(line[len("#   "):])
    return examples


def test_command_line_examples_exit_0_and_print_documented_output(capsys):
    examples = command_line_examples()
    assert len(examples) == 8
    assert (["limits", "--variety", "nonplane", "--k", "1"],
            ["rank k=1 (nonplane): 2 - (1/24)*pi^2 - 4*pi^-1 ≈ 0.315526938553"]) in examples
    for argv, documented in examples:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out, argv
        if documented:
            assert out.splitlines() == documented, argv


def test_flag_table_lists_the_flags_each_subcommand_defines():
    # A flag removed from the parser must leave the table too.
    text = README.read_text(encoding="utf-8")
    (table,) = re.findall(r"\n\| subcommand +\| flags \|\n\|-+\|-+\|\n(.*?)\n\n", text, re.S)
    documented = {command: flags.split()
                  for command, flags in re.findall(r"^\| `(\w+)` +\| `([^`]*)`", table, re.M)}
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    defined = {command: [action.option_strings[-1] for action in sub._actions
                         if action.option_strings and action.option_strings[-1] != "--help"]
               for command, sub in subparsers.choices.items()}
    assert documented == defined
