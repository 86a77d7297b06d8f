"""src/ holds what ships: every public top-level function or class of a
public kcmkit module is reached from outside its own definition, by other
source (src/), the README, pyproject.toml or the acceptance tests. A name
that only unit tests reach belongs in tests/ (see tests/oracles.py), or
nowhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kcmkit"
MODULES = sorted(p for p in SRC.glob("*.py") if not p.name.startswith("_"))


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level def/class,
    decorators included, 1-based."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _unreached() -> list[str]:
    texts = {p: p.read_text() for p in sorted(SRC.glob("*.py"))}
    texts[SRC / "_ckernels.c"] = (SRC / "_ckernels.c").read_text()
    for name in ("README.md", "pyproject.toml", "tests/test_acceptance.py"):
        texts[ROOT / name] = (ROOT / name).read_text()
    out = []
    for path in MODULES:
        for name, first, last in _public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            hits = 0
            for where, text in texts.items():
                if where == path:   # leave out the definition itself
                    lines = text.splitlines()
                    text = "\n".join(lines[:first - 1] + lines[last:])
                hits += len(word.findall(text))
            if hits == 0:
                out.append(f"{path.stem}.{name}")
    return out


def test_every_public_name_has_a_reason_to_ship():
    assert _unreached() == []
