"""Build shim: compiles the C kernels (kcmkit._ckernels) with the system C
compiler, falling back to pure Python.

The library is plain C99 with no Python API; kcmkit._compiled binds it with
ctypes. Its source stamp, KK_SOURCE_ID, is the first 8 bytes of the C file's
SHA-256; kcmkit._compiled.SOURCE_ID holds the same number and refuses a
library whose stamp differs, so a library left from another checkout never
runs. The package is fully functional without it (kcmkit.kernels picks
the numpy fallback at import time), so a failed compile is downgraded to a
warning and the build still exits 0.

An in-place build (`build_ext --inplace`, which `pip install -e .` runs
too) then byte-compiles the package, as pip does at install, whether or not
the C step succeeded: __pycache__ gets the pyc of each module for the
running interpreter, so a `kcm` process loads bytecode instead of compiling
the source. The import system checks each pyc against its source, so a
module edited after the build is compiled again in memory. A pyc that
cannot be written is reported and the build still exits 0.
"""

import compileall
import hashlib
import sys
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError

ROOT = Path(__file__).parent


class optional_build_ext(build_ext):
    def run(self):
        # read first: setuptools' run clears the flag and a failed compile
        # leaves it cleared
        inplace = self.inplace
        try:
            super().run()
        except (CCompilerError, ExecError, PlatformError, OSError) as exc:
            print(f"kcmkit: skipping compiled kernels ({exc})", file=sys.stderr)
        if inplace:
            compileall.compile_dir(ROOT / "src" / "kcmkit", quiet=1)


SOURCE = "src/kcmkit/_ckernels.c"
STAMP = "0x" + hashlib.sha256(
    (ROOT / SOURCE).read_bytes()).hexdigest()[:16] + "ULL"

setup(
    ext_modules=[Extension("kcmkit._ckernels",
                           sources=[SOURCE],
                           define_macros=[("KK_SOURCE_ID", STAMP)],
                           # no fused multiply-adds, so the sums round as
                           # _pure's and scipy's do on FMA targets too
                           extra_compile_args=["-std=c99", "-O3",
                                               "-ffp-contract=off"])],
    cmdclass={"build_ext": optional_build_ext},
)
