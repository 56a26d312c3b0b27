"""The README's library example, run through doctest so it stays true."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for text in blocks:
        test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
        failed, attempted = doctest.DocTestRunner().run(test)
        assert attempted and not failed
