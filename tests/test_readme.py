"""The README's Python snippets run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 3


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_block_runs(index, capsys):
    exec(compile(_python_blocks()[index], f"README.md block {index}", "exec"), {})
    assert capsys.readouterr().out
