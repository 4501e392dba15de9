"""The README's Python API example runs as written, its command lines
parse with the current flags, and the dilgp names it gives exist."""

import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

from dilgp import __version__
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


def test_readme_dilgp_names_resolve():
    names = set(re.findall(r"`(dilgp(?:\.\w+)+)`", README.read_text()))
    assert len(names) >= 8
    for name in sorted(names):
        module, *attrs = name.split(".")[1:]
        obj = importlib.import_module(f"dilgp.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README names {name}, which does not exist"
            obj = getattr(obj, attr)


def test_package_import_loads_no_submodule():
    # the package exports only __version__; the API lives in the submodules
    code = ("import sys, dilgp; print(dilgp.__version__); "
            "print(sorted(m for m in sys.modules if m.startswith('dilgp')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split("\n")[:2] == [__version__, "['dilgp']"]
