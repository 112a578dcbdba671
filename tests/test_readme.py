"""README examples: the library quick start runs, and the plan schema lists the CLI keys."""

import re
from pathlib import Path

from ttqst import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    rel, fid = (float(v) for v in capsys.readouterr().out.split())
    assert rel < 0.05 and 0.99 < fid <= 1.0 + 1e-12


def _schema_keys():
    """The keys of the README plan-schema block, commented-out ones included.

    Returns ``{"": top-level keys, section: its keys}``; a section is an
    object that opens on a line of its own and closes at the same indent.
    """
    text = README.read_text()
    block = re.search(r"```jsonc\n(.*?)```", text[text.index("### Plan schema") :], re.S).group(1)
    keys = {"": set(re.findall(r'^  (?://\s*)?"(\w+)":', block, re.M))}
    for name, body in re.findall(r'^  "(\w+)": \{[^\n]*\n(.*?)^  \}', block, re.M | re.S):
        keys[name] = set(re.findall(r'"(\w+)":', body))
    return keys


def test_readme_plan_schema_lists_the_accepted_keys():
    accepted = {"": set(cli._CLI_KEYS)}
    accepted.update((name, cli._section_keys(name)) for name in cli._RECORDS)
    assert _schema_keys() == accepted
