"""Build shim: compiles the C kernels (kcmkit._ckernels) with the system C
compiler, falling back to pure Python.

The library is plain C99 with no Python API; kcmkit._compiled binds it with
ctypes. The package is fully functional without it (kcmkit.kernels picks
the numpy fallback at import time), so a failed compile is downgraded to a
warning and the build still exits 0.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except (CCompilerError, ExecError, PlatformError, OSError) as exc:
            print(f"kcmkit: skipping compiled kernels ({exc})", file=sys.stderr)


setup(
    ext_modules=[Extension("kcmkit._ckernels",
                           sources=["src/kcmkit/_ckernels.c"],
                           # no fused multiply-adds, so the sums round as
                           # _pure's and scipy's do on FMA targets too
                           extra_compile_args=["-std=c99", "-O3",
                                               "-ffp-contract=off"])],
    cmdclass={"build_ext": optional_build_ext},
)
