"""Self-test of the benchmark harness on a cut-down session (about 30 s).

    python3 perfbench/selftest.py

Checks that both kinds of run report exactly the metrics BENCHMARK.json
names, that the exact counters repeat between traced runs at one seed, that
the correctness checks catch wrong output, and that the benchmark exits
nonzero without a result where no kcmkit checkout surrounds it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checks
import run

# one small invocation of every subcommand
CUT_DOWN = (
    "bootstrap --model fa2 --n 8 --q 0.1,0.2 --replicas 5",
    "qc --model fa1 --d 2 --n 4 --tol 0.01 --replicas 5",
    "lc --model fa2 --q 0.3 --n-max 16 --replicas 5",
    "sim --model east --d 1 --n 6 --q 0.3 --tmax 5 --replicas 5",
    "perc --p 0.2 --nmax 3 --replicas 20",
    "paths --model fa2 --mode B --dims 4,4 --q 0.3 --samples 3",
    "blocks --model fa2 --q 0.2 --A 3.5 --replicas 100",
    "gap --model east --d 1 --dims 5 --q 0.3",
)
SEED = 7


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    env = run.prepare()

    plain = run.measure("selftest", CUT_DOWN, SEED, 0, False, env)
    expect(plain.correct and plain.failed == 0
           and plain.attempted == len(CUT_DOWN),
           "untraced cut-down session passes its checks")
    expect(sorted(plain.metrics) == sorted(m["name"]
                                           for m in spec["end_to_end"]),
           "untraced run reports exactly the end_to_end metrics")
    expect(all(v > 0 for v, _ in plain.metrics.values()),
           "every end-to-end metric is nonzero")

    traced = [run.measure("selftest", CUT_DOWN, SEED, 0, True, env)
              for _ in range(2)]
    expect(all(t.correct for t in traced), "traced runs pass their checks")
    expect(sorted(traced[0].metrics) == sorted(m["name"]
                                               for m in spec["per_layer"]),
           "traced run reports exactly the per_layer metrics")
    expect(traced[0].exact == traced[1].exact,
           "exact counters repeat between runs at one seed")
    m = traced[0].metrics
    expect(m["spectral.gap.eigensolves_per_row"][0] == 2.0,
           "gap solves twice per row (spectral_gap, then relaxation_time)")
    expect(m["paths.sampler.attempts"][0] >= 3
           and 0 < m["paths.sampler.accept_ratio"][0] <= 1,
           "sampler attempts and acceptance are counted")

    argv = run.session(CUT_DOWN, "selftest", SEED)[0]
    good = run.invoke(argv, "run", run.child_env()).csv
    lines = good.splitlines()
    row = lines[4].split(",")
    row[5] = "1.5"                      # p_hat of the first grid point
    bad = "\n".join(lines[:4] + [",".join(row)] + lines[5:]) + "\n"
    expect(not checks.structure(argv, good) and checks.structure(argv, bad),
           "structure check rejects an estimate outside [0, 1]")
    short = "\n".join(good.splitlines()[:-1]) + "\n"
    expect(bool(checks.structure(argv, short)),
           "structure check rejects a missing row")
    s = run.Session("run", [run.Call(argv, 1.0, good, {"rc": 0})])
    ref = {"seed": SEED, "workloads": {"selftest": [
        {"argv": " ".join(argv), "header": checks.data_lines(good)[0],
         "sha256": checks.data_digest(bad)}]}}
    run.check_session(s, s, "selftest", SEED, ref)
    expect(s.calls[0].problems == ["data rows differ from reference"],
           "pinned-seed check rejects rows that differ from the reference")

    bare = run.ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "exact-small", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    shutil.rmtree(bare)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "a directory without kcmkit exits nonzero and prints no result")


if __name__ == "__main__":
    main()
