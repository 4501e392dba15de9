"""Each function and method of the package, public or private (dunders
aside), is named in the package, the benchmark harness or the README: a
helper that only tests call is a second path to a quantity, and its tests
should call the package's path."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dilgp").glob("*.py"))

# The independent references that criteria 2 and 3 compare training against:
# the masked likelihood, differenced in the common rescaling w and in one
# log-parameter. Nothing in a fit calls them.
REFERENCES = {"env_log_likelihood", "scaled", "shifted"}


def _defs(private: bool):
    """(qualified name, name) of each top-level function and method that is
    private (one leading underscore) or public."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            is_class = isinstance(node, ast.ClassDef)
            owner = f"{path.stem}.{node.name}" if is_class else path.stem
            yield from ((f"{owner}.{d.name}", d.name) for d in (node.body if is_class else [node])
                        if isinstance(d, ast.FunctionDef) and not d.name.startswith("__")
                        and d.name.startswith("_") == private)


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


def _unreached(defs) -> list[str]:
    used = _names_used() | REFERENCES
    return [qual for qual, name in defs if name not in used]


def test_every_public_name_is_reached():
    defs = list(_defs(private=False))
    assert REFERENCES <= {name for _, name in defs}
    unreached = _unreached(defs)
    assert not unreached, f"reached only from tests or from nowhere: {unreached}"


def test_every_private_name_is_reached():
    defs = list(_defs(private=True))
    assert defs
    unreached = _unreached(defs)
    assert not unreached, f"reached only from tests or from nowhere: {unreached}"
