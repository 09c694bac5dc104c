"""Every ```python block of README.md runs, each in a fresh namespace, so the
documented import paths and calls cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    for index, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {index}", "exec"), {})
