"""End-to-end and per-layer benchmark of the `kcm` CLI (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

A session is a fixed list of `kcm <subcommand>` invocations. Each one runs
in a fresh interpreter (perfbench/child.py), serially, as a closed loop
with one caller, with BLAS/OpenMP pinned to one thread. The run repeats
the session until the next one would end after --seconds and reports
medians over sessions. With --trace 1 it alternates untraced and traced
sessions and reports per-layer numbers instead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The lines before it give the environment, each session, and with
--trace 1 the exact counters apart from the timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BUILD_LOG = ROOT / ".bench_build" / "perfbench-build.log"
PINNED_SEED = 0
CALL_TIMEOUT = 60.0

# Why each workload exists is in README.md. Per-invocation --seed values
# are derived from the workload seed (see `session`).
WORKLOADS = {
    "replica-scan": (
        "bootstrap --model fa2 --n 32 --q 0.05,0.07,0.09 --replicas 200",
        "qc --model fa1 --d 2 --n 16 --replicas 200",
        "sim --model east --d 1 --n 16 --q 0.3 --tmax 50 --replicas 500",
        "perc --p 0.2 --nmax 4 --replicas 2000",
    ),
    "large-lattice": (
        "bootstrap --model fa2 --n 256 --q 0.06,0.08 --replicas 3",
        "lc --model fa2 --q 0.10 --replicas 100",
        "sim --model fa1 --d 2 --n 64 --q 0.02 --tmax 20 --replicas 1",
        "perc --p 0.2 --nmax 8 --replicas 50",
    ),
    "exact-small": (
        "paths --model fa2 --mode A --dims 4,4 --q 0.3 --samples 50",
        "paths --model fa2 --mode B --dims 4,4 --q 0.3 --samples 50",
        "paths --model gg --mode A --dims 4,4 --q 0.3 --samples 50",
        "paths --model gg --mode B --dims 4,4 --q 0.45 --samples 50",
        "blocks --model fa2 --q 0.2 --A 3.5",
        "gap --model east --d 1 --dims 10 --q 0.3",
        "gap --model fa1 --d 2 --dims 3,5 --q 0.3",
    ),
}

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def child_env(pure: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KCMKIT_PURE"}
    env.update(THREAD_PINS, PYTHONHASHSEED="0")
    if pure:
        env["KCMKIT_PURE"] = "1"
    return env


def session(commands, workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one session; --seed i derives from the seed."""
    out = []
    for i, cmd in enumerate(commands):
        h = hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()
        out.append(cmd.split() + ["--seed",
                                  str(int.from_bytes(h[:4], "big") % 10**6)])
    return out


# ---------------------------------------------------------------- calls

@dataclass
class Call:
    argv: list[str]
    wall_s: float
    csv: str = ""
    report: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def main_s(self) -> float:
        return self.report.get("main_s", 0.0)


def invoke(argv: list[str], mode: str, env: dict) -> Call:
    """One fresh-interpreter invocation; its wall time spans start to exit."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, str(HERE / "child.py"), mode,
                            *argv], cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=CALL_TIMEOUT)
    except subprocess.TimeoutExpired:
        return Call(argv, time.perf_counter() - t0,
                    problems=[f"timed out after {CALL_TIMEOUT} s"])
    call = Call(argv, time.perf_counter() - t0, p.stdout)
    tail = p.stderr.rstrip().rsplit("\n", 1)[-1]
    if tail.startswith("PERFBENCH "):
        call.report = json.loads(tail[len("PERFBENCH "):])
    if p.returncode != 0 or not call.report:
        call.problems.append(f"exit {p.returncode}: {p.stderr[-400:]}")
    return call


@dataclass
class Session:
    mode: str
    calls: list[Call]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def compute_s(self) -> float:
        return sum(c.main_s for c in self.calls)


def run_session(argvs, mode: str, env: dict) -> Session:
    return Session(mode, [invoke(a, mode, env) for a in argvs])


# ---------------------------------------------------------- correctness

def check_session(s: Session, first: Session, workload: str, seed: int,
                  reference: dict) -> None:
    """Attach every problem to the call it concerns.

    Every call: exit code, CSV structure and ranges, the header of the
    reference, and the same data rows as the run's first session.
    At the pinned seed, also the reference digest of the data rows.
    """
    ref = reference["workloads"].get(workload)
    for i, call in enumerate(s.calls):
        if call.problems:
            continue
        call.problems += checks.structure(call.argv, call.csv)
        lines = checks.data_lines(call.csv)
        if ref is not None:
            if lines[:1] != [ref[i]["header"]]:
                call.problems.append(f"header differs: {lines[:1]}")
            if seed == reference["seed"]:
                if " ".join(call.argv) != ref[i]["argv"]:
                    call.problems.append("reference.json is for other "
                                         f"arguments: {ref[i]['argv']}")
                elif checks.data_digest(call.csv) != ref[i]["sha256"]:
                    call.problems.append("data rows differ from reference")
        if (s is not first and not first.calls[i].problems
                and lines != checks.data_lines(first.calls[i].csv)):
            call.problems.append(f"{s.mode} output differs from the first "
                                 "session's")


# ------------------------------------------------------------- metrics

def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_session(sessions: list[Session], of) -> float:
    """Summed over a session's invocations, each at its median over the
    run's sessions: robust to one slow invocation in a session."""
    return sum(median(of(s.calls[i]) for s in sessions)
               for i in range(len(sessions[0].calls)))


def end_to_end(sessions: list[Session], attempted: int, failed: int) -> dict:
    calls = [c for s in sessions for c in s.calls if c.report]
    return {
        "wall_s": (median_session(sessions, lambda c: c.wall_s), "s"),
        "compute_s": (median_session(sessions, lambda c: c.main_s), "s"),
        "setup_s": (median(c.wall_s - c.main_s for c in calls), "s"),
        "peak_rss_mb": (max((c.report["maxrss_kb"] for c in calls),
                            default=0) / 1024.0, "MB"),
        "ok_frac": (1.0 - ratio(failed, attempted), "ratio"),
    }


def traced_totals(s: Session) -> tuple[dict, dict]:
    """Per-layer [calls, self_s] and counters, summed over a traced session."""
    layers: dict[str, list] = {}
    counters: dict[str, int] = {}
    for c in s.calls:
        for name, rec in c.report.get("layers", {}).items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += rec["calls"]
            acc[1] += rec["self_s"]
        for name, v in c.report.get("counters", {}).items():
            if name == "rng.max_call_draws":
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
    return layers, counters


def exact_counts(s: Session) -> dict:
    """Every count of a traced session, which must repeat at one seed."""
    layers, counters = traced_totals(s)
    out = {f"{k}.calls": v[0] for k, v in sorted(layers.items())}
    out.update(sorted(counters.items()))
    return out


def per_layer(plain: list[Session], traced: list[Session]) -> dict:
    totals = [traced_totals(s) for s in traced]
    layers, counters = totals[0]

    def self_s(layer):
        return median(t[0].get(layer, [0, 0.0])[1] for t in totals)

    def calls(layer):
        return layers.get(layer, [0])[0]

    gap_rows = sum(len(checks.data_lines(c.csv)) - 1
                   for c in traced[0].calls if c.argv[0] == "gap")
    plain_compute = median_session(plain, lambda c: c.main_s)
    overhead = median_session(traced, lambda c: c.main_s) - plain_compute
    m = {}
    for layer in ("kernels.closure", "kernels.kcm_run",
                  "kernels.crossing_batch", "rng", "lattice.box_region",
                  "blocks.classify_block"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    for name in ("kernels.closure.rounds", "kernels.closure.site_rounds",
                 "kernels.kcm_run.rings", "kernels.kcm_run.flips",
                 "kernels.crossing_batch.sites", "rng.draws",
                 "rng.max_call_draws", "paths.sampler.attempts",
                 "paths.builder.path_len", "spectral.build.states"):
        m[name] = (counters[name], "count")
    m["kernels.closure.ns_per_site_round"] = (ratio(
        self_s("kernels.closure") * 1e9,
        counters["kernels.closure.site_rounds"]), "ns")
    m["kernels.kcm_run.ns_per_ring"] = (ratio(
        self_s("kernels.kcm_run") * 1e9, counters["kernels.kcm_run.rings"]),
        "ns")
    for layer in ("bootstrap", "kcm", "percolation", "blocks",
                  "paths.sampler", "paths.builder", "paths.congestion",
                  "spectral.build", "spectral.gap"):
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m["paths.sampler.accept_ratio"] = (ratio(
        calls("paths.sampler"), counters["paths.sampler.attempts"]), "ratio")
    solves = counters["spectral.eigensolves"]
    m["spectral.gap.eigensolves"] = (solves, "count")
    m["spectral.gap.eigensolves_per_row"] = (ratio(solves, gap_rows),
                                             "ratio")
    m["cli.import_s"] = (median(c.report["import_s"] for s in plain
                                for c in s.calls if c.report), "s")
    m["cli.main_self_s"] = (self_s("cli.main"), "s")
    m["cli.scipy_loaded"] = (median(
        sum(1 for c in s.calls if c.argv[0] != "gap"
            and c.report.get("scipy")) for s in plain), "count")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (ratio(overhead, plain_compute), "ratio")
    return m


# ----------------------------------------------------------------- run

def prepare() -> dict:
    """Check the checkout, build it once, and return environment facts."""
    for need in ("setup.py", "src/kcmkit/cli.py"):
        if not (ROOT / need).is_file():
            sys.exit(f"perfbench: {ROOT / need} is missing; run from a "
                     "kcmkit checkout")
    if not BUILD_LOG.is_file():
        # builds the compiled kernels when the toolchain allows; without
        # it setup.py installs nothing and kcmkit.kernels picks _pure
        p = subprocess.run([sys.executable, "setup.py", "-q", "build_ext",
                            "--inplace"], cwd=ROOT, capture_output=True,
                           text=True, timeout=900)
        if p.returncode != 0:
            sys.exit(f"perfbench: build failed\n{p.stdout}{p.stderr}")
        BUILD_LOG.parent.mkdir(exist_ok=True)
        BUILD_LOG.write_text(p.stdout + p.stderr)
    p = subprocess.run([sys.executable, str(HERE / "child.py"), "env"],
                       cwd=ROOT, env=child_env(), capture_output=True,
                       text=True, timeout=CALL_TIMEOUT)
    if p.returncode != 0:
        sys.exit(f"perfbench: cannot import kcmkit\n{p.stderr}")
    env = json.loads(p.stdout)
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               blas_threads=THREAD_PINS, loadavg=os.getloadavg())
    return env


@dataclass
class Result:
    metrics: dict                 # name -> (value, unit)
    attempted: int
    failed: int
    correct: bool
    exact: dict | None = None     # traced runs: every exact count


def measure(workload: str, commands, seed: int, seconds: float, trace: bool,
            env_facts: dict) -> Result:
    """Repeat the session until the next one would end after `seconds`.

    Untraced runs give the end-to-end metrics. Traced runs alternate
    untraced and traced sessions and give the per-layer metrics; they also
    compare pure and compiled kernels when both are importable.
    """
    argvs = session(commands, workload, seed)
    reference = json.loads(REFERENCE.read_text())
    env = child_env()
    sessions: list[Session] = []
    start = time.perf_counter()
    while True:
        mode = "trace" if trace and len(sessions) % 2 else "run"
        s = run_session(argvs, mode, env)
        check_session(s, sessions[0] if sessions else s, workload, seed,
                      reference)
        sessions.append(s)
        print(f"session {len(sessions)} {mode}: wall {s.wall_s:.3f} s, "
              f"compute {s.compute_s:.3f} s, per call "
              f"{[round(c.wall_s, 2) for c in s.calls]}", flush=True)
        elapsed = time.perf_counter() - start
        longest = max(x.wall_s for x in sessions)
        if len(sessions) >= 1 + trace and elapsed + longest > seconds:
            break
    plain = [s for s in sessions if s.mode == "run"]
    traced = [s for s in sessions if s.mode == "trace"]
    if not trace:
        env_facts["parity"] = "checked in traced runs"
    elif "compiled" in env_facts["importable"]:
        pure = run_session(argvs, "run", child_env(pure=True))
        pure.mode = "KCMKIT_PURE=1"
        check_session(pure, plain[0], workload, seed, reference)
        sessions.append(pure)
        env_facts["parity"] = "pure and compiled CSVs compared"
    else:
        env_facts["parity"] = ("not checked: only "
                               f"{'/'.join(env_facts['importable'])} "
                               "is importable")
    calls = [c for s in sessions for c in s.calls]
    failed = [c for c in calls if c.problems]
    for c in failed:
        print(f"FAILED {' '.join(c.argv)}: {'; '.join(c.problems)}")
    if not trace:
        return Result(end_to_end(plain, len(calls), len(failed)),
                      len(calls), len(failed), not failed)
    exact = exact_counts(traced[0])
    repeats = all(exact_counts(s) == exact for s in traced[1:])
    if not repeats:
        print("FAILED exact counters differ between traced sessions")
    return Result(per_layer(plain, traced), len(calls), len(failed),
                  not failed and repeats, exact)


def record_reference() -> None:
    out = {"seed": PINNED_SEED, "workloads": {}}
    for name, commands in WORKLOADS.items():
        s = run_session(session(commands, name, PINNED_SEED), "run",
                        child_env())
        check_session(s, s, name, PINNED_SEED,
                      {"seed": PINNED_SEED, "workloads": {}})
        bad = [c for c in s.calls if c.problems]
        if bad:
            sys.exit(f"perfbench: {bad[0].argv}: {bad[0].problems}")
        out["workloads"][name] = [
            {"argv": " ".join(c.argv), "header": checks.data_lines(c.csv)[0],
             "sha256": checks.data_digest(c.csv)} for c in s.calls]
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json at the pinned seed")
    args = ap.parse_args()
    env_facts = prepare()
    if args.record_reference:
        record_reference()
        return
    if args.workload is None:
        ap.error("--workload is required")
    r = measure(args.workload, WORKLOADS[args.workload], args.seed,
                args.seconds, bool(args.trace), env_facts)
    if r.exact is not None:
        digest = hashlib.sha256(json.dumps(r.exact).encode()).hexdigest()
        print("counters " + json.dumps({"sha256": digest[:16], **r.exact}))
        print("timings " + json.dumps({k: v for k, (v, u) in r.metrics.items()
                                       if u != "count"}))
    print("env " + json.dumps(env_facts))
    print(json.dumps({"correct": r.correct, "attempted": r.attempted,
                      "failed": r.failed, "metrics": {
                          k: {"value": v, "unit": u}
                          for k, (v, u) in r.metrics.items()}}))


if __name__ == "__main__":
    main()
