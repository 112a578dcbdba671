"""README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    rel, fid = (float(v) for v in capsys.readouterr().out.split())
    assert rel < 0.05 and 0.99 < fid <= 1.0 + 1e-12
