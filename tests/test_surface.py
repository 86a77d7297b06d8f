"""src/ holds what ships: every public top-level function or class of a
public kcmkit module is used, as an identifier, outside its own definition:
by source (src/), the benchmark (perfbench/), the tools (tools/) or the
acceptance tests, by name in the README's code, or as a pyproject.toml
entry point. A word in a docstring or comment is not a use. A name that
only unit tests reach belongs in tests/ (see tests/oracles.py), or
nowhere."""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kcmkit"
MODULES = sorted(p for p in SRC.glob("*.py") if not p.name.startswith("_"))
USERS = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
         *sorted((ROOT / "tools").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level def/class,
    decorators included, 1-based."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _identifiers(path: Path):
    """(identifier, line) of every name, attribute and imported name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _documented() -> set[str]:
    """The identifiers in the README's code spans and code blocks, and the
    functions pyproject.toml's scripts call."""
    readme = (ROOT / "README.md").read_text()
    code = re.findall(r"```[^\n]*\n(.*?)```", readme, re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme,
                                              flags=re.S))
    names = {w for span in code for w in re.findall(r"[A-Za-z_]\w*", span)}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    return names | {target.rpartition(":")[2] for target in scripts.values()}


def _unreached() -> list[str]:
    uses = {}   # identifier -> [(file, line)]
    for path in USERS:
        for word, line in _identifiers(path):
            uses.setdefault(word, []).append((path, line))
    documented = _documented()
    return [f"{path.stem}.{name}" for path in MODULES
            for name, first, last in _public_definitions(path)
            if name not in documented and not any(
                where != path or not first <= line <= last
                for where, line in uses.get(name, ()))]


def test_every_public_name_has_a_reason_to_ship():
    assert _unreached() == []
