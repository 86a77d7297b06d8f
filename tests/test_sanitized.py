"""The kernel parity tests under AddressSanitizer and UndefinedBehaviorSanitizer
(Serebryany et al. 2012, USENIX ATC).

_ckernels.c is built with `-fsanitize=address,undefined
-fno-sanitize-recover=all` into a temporary copy of the package, and
tests/test_kernels.py runs against that copy in a subprocess with gcc's
sanitizer runtimes preloaded (the interpreter itself is not instrumented).
Any out-of-bounds access or undefined behaviour in a kernel aborts the run.
The warnings check, which reads no library, is left to the plain run.
The test skips only when gcc or one of its sanitizer runtimes is missing.
"""

import hashlib
import importlib.machinery
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kcmkit"

# Runs pytest with the package copy first on sys.path, after checking that
# the sanitized library loads: a copy without it would make test_kernels
# build an unsanitized one.
_RUNNER = """
import sys
sys.path.insert(0, sys.argv[1])
import kcmkit
from kcmkit import _compiled
assert kcmkit.__file__.startswith(sys.argv[1]), kcmkit.__file__
assert _compiled.load() is not None, "the sanitized library does not load"
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def _runtime(gcc: str, name: str) -> str:
    """Path of one of gcc's sanitizer runtimes; skips when it has none."""
    p = subprocess.run([gcc, f"-print-file-name={name}"], capture_output=True,
                       text=True, timeout=60)
    path = p.stdout.strip()
    if p.returncode != 0 or not os.path.isabs(path) or not os.path.isfile(path):
        pytest.skip(f"gcc ships no {name}")
    return path


def test_kernel_parity_under_sanitizers(tmp_path):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc to build the sanitized kernels")
    preload = [_runtime(gcc, "libasan.so"), _runtime(gcc, "libubsan.so")]
    pkg = tmp_path / "kcmkit"
    shutil.copytree(PACKAGE, pkg,
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    lib = pkg / f"_ckernels{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    source = PACKAGE / "_ckernels.c"
    # the stamp setup.py gives it, without which the binding refuses it
    stamp = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    p = subprocess.run(
        [gcc, "-std=c99", "-O1", "-g", "-fno-omit-frame-pointer",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         f"-DKK_SOURCE_ID=0x{stamp}ULL", "-shared", "-fPIC", str(source),
         "-o", str(lib), "-lm"],
        capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr

    env = {k: v for k, v in os.environ.items() if k != "KCMKIT_PURE"}
    env.update(LD_PRELOAD=" ".join(preload),
               # CPython keeps objects alive to exit; only kernel faults count
               ASAN_OPTIONS="detect_leaks=0",
               PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(tmp_path),
         str(ROOT / "tests" / "test_kernels.py"), "-q", "-p",
         "no:cacheprovider", "-k", "not compile_without_warnings",
         # capture at sys level, so a sanitizer report reaches p.stderr
         "--capture=sys"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stdout[-4000:] + p.stderr[-4000:]
    assert " passed" in p.stdout and "kcmkit kernels: compiled" in p.stdout
