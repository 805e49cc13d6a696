"""The README's library example runs as written, and every command-line
flag it names exists."""

import argparse
import re
from pathlib import Path

from momdp_pareto.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def readme_flags() -> set[str]:
    """The `--flags` of the README's `momdp-pareto` command lines, in code
    blocks or inline code, and of its inline code that starts with `--`.
    Other programs' commands (`pip install ... --no-build-isolation`) are
    left out."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```[^\n]*\n(.*?)```", text, re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    named = [s for s in lines + spans if s.lstrip().startswith(("momdp-pareto", "--"))]
    return {flag for s in named for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", s)}


def parser_flags() -> set[str]:
    """Every option string of the parser and of each of its subcommands."""
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    return {flag for p in parsers for a in p._actions for flag in a.option_strings}


def test_readme_flags_exist():
    """A flag removed from the command line cannot linger in the docs."""
    named = readme_flags()
    assert {"--cap", "--tol", "--gamma", "--states"} <= named
    assert named - parser_flags() == set()
