"""The in-place build byte-compiles the package, and no import writes.

`setup.py build_ext --inplace` writes the pyc of every kcmkit module into
__pycache__, as pip does at install, whether or not the C step succeeded.
A `kcm` process then loads bytecode instead of compiling the source, even
under PYTHONDONTWRITEBYTECODE, which only stops imports from writing. A
module edited after the build is compiled again in memory.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# counts the kcmkit modules compiled from source while importing the CLI
# and the spectral module (together they load all of kcmkit)
_PROBE = """
import importlib.machinery
import json
import sys
sys.path.insert(0, sys.argv[1])
compiled = []
loader = importlib.machinery.SourceFileLoader
to_code = loader.source_to_code
def counting(self, data, path, *, _optimize=-1):
    if path.startswith(sys.argv[1]):
        compiled.append(path)
    return to_code(self, data, path, _optimize=_optimize)
loader.source_to_code = counting
import kcmkit.cli
import kcmkit.spectral
assert kcmkit.__file__.startswith(sys.argv[1]), kcmkit.__file__
print(json.dumps({
    "loaded": sorted(m.__file__ for n, m in sys.modules.items()
                     if n.startswith("kcmkit")),
    "compiled": sorted(compiled),
    "probe": getattr(sys.modules["kcmkit.stats"], "_PROBE", None)}))
"""


def _checkout(tmp_path: Path) -> Path:
    """The build's inputs, copied without bytecode or a library."""
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(REPO / name, tmp_path / name)
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    return tmp_path / "src" / "kcmkit"


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KCMKIT_PURE"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _build(root: Path) -> subprocess.CompletedProcess:
    # CC=false fails the C step at once; the bytecode step runs regardless
    return subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=root,
        env={**_env(), "CC": "false"}, capture_output=True, text=True,
        timeout=300)


def _probe(src: Path) -> dict:
    p = subprocess.run([sys.executable, "-c", _PROBE, str(src)], env=_env(),
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


def _listing(directory: Path) -> list:
    return sorted((f.name, f.stat().st_size, f.stat().st_mtime_ns)
                  for f in directory.iterdir())


def test_inplace_build_writes_the_bytecode_imports_read(tmp_path):
    package = _checkout(tmp_path)
    modules = sorted(package.glob("*.py"))
    p = _build(tmp_path)
    assert p.returncode == 0, p.stderr
    assert "kcmkit: skipping compiled kernels" in p.stderr
    for path in modules:
        assert Path(importlib.util.cache_from_source(path)).is_file(), path

    got = _probe(tmp_path / "src")
    assert got["loaded"] == [str(path) for path in modules]
    assert got["compiled"] == [] and got["probe"] is None

    # an edit after the build: that module alone compiles, and its edited
    # source runs; nothing is written, since no import writes bytecode
    stats = package / "stats.py"
    stats.write_text(stats.read_text() + "_PROBE = 1\n")
    before = _listing(package / "__pycache__")
    got = _probe(tmp_path / "src")
    assert got["compiled"] == [str(stats)] and got["probe"] == 1
    assert _listing(package / "__pycache__") == before


def test_unwritable_bytecode_still_exits_0(tmp_path):
    package = _checkout(tmp_path)
    # a file where the cache directory should be: every pyc write fails
    (package / "__pycache__").write_text("")
    p = _build(tmp_path)
    assert p.returncode == 0, p.stderr
    assert "*** Error compiling" in p.stdout
    assert (package / "__pycache__").read_text() == ""
