"""The source stamp: a _ckernels library is loaded only when it was built
from the _ckernels.c that kcmkit._compiled binds.

setup.py defines KK_SOURCE_ID as the first 8 bytes of the C file's SHA-256,
and _compiled.SOURCE_ID holds the number for the shipped file. A library
left from another checkout, whose entry points may take other arguments,
is refused with its reason, and kcmkit.kernels runs the pure kernels.
"""

import hashlib
import importlib.machinery
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kcmkit import _compiled
from test_kernels import _cc

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kcmkit"
SOURCE = PACKAGE / "_ckernels.c"
LIBRARY = f"_ckernels{importlib.machinery.EXTENSION_SUFFIXES[0]}"


def _stamp(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _build(text: str, directory: Path, *defines: str) -> Path:
    """Compile C source `text` into directory/_ckernels<suffix>."""
    directory.mkdir(parents=True, exist_ok=True)
    src = directory / "_ckernels.c"
    src.write_text(text)
    p = subprocess.run(
        [*_cc(), "-std=c99", "-O0", *defines, "-shared", "-fPIC", str(src),
         "-o", str(directory / LIBRARY), "-lm"],
        capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return directory


def test_source_id_is_the_hash_of_the_shipped_c_file():
    # a C edit without the matching edit of _compiled.SOURCE_ID fails here
    assert _compiled.SOURCE_ID == int(_stamp(SOURCE.read_text()), 16)


def test_library_from_another_source_is_refused(tmp_path):
    text = SOURCE.read_text()
    edited = text.replace("/* Compiled kernels,", "/* Compiled  kernels,", 1)
    assert edited != text
    # the shipped source with its stamp loads: the recipe is sound
    ok = _build(text, tmp_path / "ok", f"-DKK_SOURCE_ID=0x{_stamp(text)}ULL")
    assert _compiled.load(ok) is not None
    # one comment changed, stamped as setup.py would stamp it
    other = _build(edited, tmp_path / "edited",
                   f"-DKK_SOURCE_ID=0x{_stamp(edited)}ULL")
    unstamped = _build(text, tmp_path / "unstamped")
    for directory, got in ((other, f"0x{_stamp(edited)}"),
                           (unstamped, "0x0000000000000000")):
        assert _compiled.load(directory) is None
        with pytest.raises(_compiled.LoadError) as exc:
            _compiled.open_kernels(directory)
        assert str(exc.value) == (
            f"{directory / LIBRARY} was built from another _ckernels.c "
            f"(stamp {got}, expected {_compiled.SOURCE_ID:#018x}); rebuild "
            f"it with `python setup.py build_ext --inplace`")


def test_missing_library_is_reported(tmp_path):
    with pytest.raises(_compiled.LoadError, match="no _ckernels library in"):
        _compiled.open_kernels(tmp_path)
    assert _compiled.load(tmp_path) is None


# A library of the layout before the stamp: the entry points of that
# layout (kk_closure without a row count) and no kk_source_id. Each aborts
# if called, so a binding that loaded it would kill the process.
_OLD_LAYOUT = """
#include <stdint.h>
#include <stdlib.h>
int kk_closure(int64_t n, int64_t S, const int64_t *nbr, const int64_t *rev,
               const uint8_t *sat, int pad_empty, const uint8_t *bits,
               const uint8_t *flippable, uint8_t *out, int32_t *rounds)
{ abort(); }
int kk_threshold(void) { abort(); }
int kk_kcm_run(void) { abort(); }
int kk_crossing_batch(void) { abort(); }
int kk_uniforms(void) { abort(); }
int kk_csr_matvec(void) { abort(); }
"""

_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import kcmkit
from kcmkit import kernels
from kcmkit.bootstrap import estimate_span_probability
from kcmkit.families import make_family
assert kcmkit.__file__.startswith(sys.argv[1]), kcmkit.__file__
assert kernels.IMPLEMENTATION == "pure", kernels.IMPLEMENTATION
assert "has no source stamp" in kernels.FALLBACK_REASON, kernels.FALLBACK_REASON
est = estimate_span_probability(6, make_family("fa_kf", 2, 2), 0.3, 20, 1)
assert 0.0 <= est.value <= 1.0
print(kernels.FALLBACK_REASON)
"""


def test_old_layout_library_is_never_called(tmp_path):
    # in a subprocess, so that a regression aborts it and not pytest
    pkg = tmp_path / "kcmkit"
    shutil.copytree(PACKAGE, pkg,
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    _build(_OLD_LAYOUT, pkg)
    env = {k: v for k, v in os.environ.items() if k != "KCMKIT_PURE"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    p = subprocess.run([sys.executable, "-c", _CHECK, str(tmp_path)],
                       env=env, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == (
        f"{pkg / LIBRARY} has no source stamp, so it was built from an older "
        f"_ckernels.c; rebuild it with `python setup.py build_ext --inplace`")
