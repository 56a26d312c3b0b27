"""The README's examples, run so they stay true: the library example through
doctest, and each line of the command-line block through `cli.main`."""

import doctest
import re
import shlex
from pathlib import Path

from bsymbols import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for text in blocks:
        test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
        failed, attempted = doctest.DocTestRunner().run(test)
        assert attempted and not failed


def test_readme_command_lines_exit_0(capsys):
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["bsymbols"]]
    assert len(commands) == 8
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
