"""The README's examples run and print what the README says."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from treerank import cli

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
