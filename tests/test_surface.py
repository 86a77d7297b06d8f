"""src/ holds what ships. In every public kcmkit module:

- every public top-level function or class is used, as an identifier,
  outside its own definition;
- every defaulted parameter of a public function, or of a public method of
  a public class, is set by some call outside its own definition: by
  keyword, by a positional argument at or past its place, or by `*args` or
  `**kwargs`, in a call matched by the called identifier;
- every annotated field of a public dataclass or NamedTuple is read as an
  attribute;
- every public method or property of a public class is read as an
  attribute outside its own definition (a local variable of the same name
  is not a read).

Uses count in the source (src/), the benchmark (perfbench/), the tools
(tools/) and the acceptance tests. A name in the README's code, or a
pyproject.toml entry point, counts as a use of a name, a parameter or a
field. A word in a docstring or comment is not a use. What only unit tests
reach belongs in tests/ (see tests/oracles.py), or nowhere."""

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


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text()))


def _public_definitions(path: Path):
    """(node, first line, last line) of each public top-level def/class,
    decorators included, 1-based."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield node, first, node.end_lineno


def _identifiers(path: Path):
    """(identifier, line) of every name, attribute and imported name."""
    for node in _nodes(path):
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
    return [f"{path.stem}.{node.name}" for path in MODULES
            for node, first, last in _public_definitions(path)
            if node.name not in documented and not any(
                where != path or not first <= line <= last
                for where, line in uses.get(node.name, ()))]


def _functions(path: Path):
    """(qualified name, def, 1 if calls pass self implicitly else 0) of each
    public function and each public method of a public class."""
    for node, _, _ in _public_definitions(path):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
            continue
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                static = any(ast.unparse(d) == "staticmethod"
                             for d in fn.decorator_list)
                yield f"{node.name}.{fn.name}", fn, int(not static)


def _defaulted(fn: ast.FunctionDef, implicit: int):
    """(name, index among a call's positional arguments, or None for a
    keyword-only one) of each defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first - implicit):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def _unset_parameters() -> list[str]:
    calls = {}   # called identifier -> [(file, call)]
    for path in USERS:
        for node in _nodes(path):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr",
                                                          None))
                calls.setdefault(callee, []).append((path, node))
    documented = _documented()
    return [f"{path.stem}.{qualname}({name}=)" for path in MODULES
            for qualname, fn, implicit in _functions(path)
            for name, index in _defaulted(fn, implicit)
            if name not in documented and not any(
                _sets(call, name, index)
                for where, call in calls.get(fn.name, ())
                if where != path
                or not fn.lineno <= call.lineno <= fn.end_lineno)]


def _records(path: Path):
    """(class, field) of each annotated field of a public dataclass or
    NamedTuple."""
    for node, _, _ in _public_definitions(path):
        if isinstance(node, ast.ClassDef) and (
                any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                or any(ast.unparse(b) == "NamedTuple" for b in node.bases)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield node.name, stmt.target.id


def _unread_fields() -> list[str]:
    read = {node.attr for path in USERS for node in _nodes(path)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)} | _documented()
    return [f"{path.stem}.{cls}.{field}" for path in MODULES
            for cls, field in _records(path) if field not in read]


def _unread_members() -> list[str]:
    reads = {}   # attribute -> [(file, line)]
    for path in USERS:
        for node in _nodes(path):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    documented = _documented()
    return [f"{path.stem}.{qualname}" for path in MODULES
            for qualname, fn, _ in _functions(path)
            if "." in qualname and fn.name not in documented and not any(
                where != path or not fn.lineno <= line <= fn.end_lineno
                for where, line in reads.get(fn.name, ()))]


def test_every_public_name_has_a_reason_to_ship():
    assert _unreached() == []


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert _unset_parameters() == []


def test_every_record_field_is_read():
    assert _unread_fields() == []


def test_every_public_method_is_read():
    assert _unread_members() == []
