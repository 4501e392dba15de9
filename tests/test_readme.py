"""The README's Python API example runs as written, and its command lines
parse with the current flags."""

import re
import shlex
from pathlib import Path

from dilgp.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_lines_parse():
    lines = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("dilgp ")]
    assert len(lines) == 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])     # a stale flag exits with status 2
