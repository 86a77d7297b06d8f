"""Run one `kcm` invocation in this fresh interpreter and time it from inside.

    python3 perfbench/child.py run   <kcm arguments...>
    python3 perfbench/child.py trace <kcm arguments...>
    python3 perfbench/child.py env

`run` and `trace` do what the `kcm` entry point does (import kcmkit.cli,
call main) and leave the CSV on stdout. The last line of stderr is
`PERFBENCH <json>`: the import time, the time inside cli.main, its exit
code, the process's peak RSS, whether scipy was imported, and with `trace`
the per-layer spans and counters. `env` prints the kernel implementation
and library versions as one JSON line.

The package is imported from the src/ directory next to perfbench/ and
nowhere else, so an installed kcmkit can never stand in for it.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    from kcmkit import cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: kcmkit imported from {cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 3
    if mode == "env":
        import numpy
        import scipy
        from kcmkit import kernels
        print(json.dumps({"kernels": kernels.IMPLEMENTATION,
                          "importable": sorted(kernels.implementations()),
                          "python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}))
        return 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
    else:
        rc = tracer.call("cli.main", cli.main, argv)
    main_s = time.perf_counter() - t1
    sys.stdout.flush()
    report = {"rc": rc, "import_s": import_s, "main_s": main_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "scipy": "scipy" in sys.modules}
    if tracer is not None:
        report.update(tracer.report())
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
