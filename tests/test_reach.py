"""Each public function and method of the package is named in the package,
the benchmark harness or the README: a helper that only tests call is a
second path to a quantity, and its tests should call the package's path."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dilgp").glob("*.py"))

# The independent references that criteria 2 and 3 compare training against:
# the masked likelihood, differenced in the common rescaling w and in one
# log-parameter. Nothing in a fit calls them.
REFERENCES = {"env_log_likelihood", "scaled", "shifted"}


def _public_defs():
    """(qualified name, name) of each public top-level function and method."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            is_class = isinstance(node, ast.ClassDef)
            owner = f"{path.stem}.{node.name}" if is_class else path.stem
            yield from ((f"{owner}.{d.name}", d.name) for d in (node.body if is_class else [node])
                        if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"))


def _names_used() -> set[str]:
    """The README's words and each name, attribute and import of the package
    and the harness (a def's own name is none of these)."""
    names = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_public_name_is_reached():
    defs = list(_public_defs())
    assert REFERENCES <= {name for _, name in defs}
    used = _names_used() | REFERENCES
    unreached = [qual for qual, name in defs if name not in used]
    assert not unreached, f"reached only from tests or from nowhere: {unreached}"
