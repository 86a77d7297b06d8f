"""Record a BENCH_<n>.json from runs of the unchanged perfbench/run.py.

    python3 tools/bench_record.py --commit HEAD --parent HEAD~1 \
        --workload exact-small:10 --workload replica-scan:3 \
        --first-seed 11 --seconds 40 --workdir /tmp/bench --out BENCH_22.json

Each commit is exported with `git archive` into a fresh directory under
--workdir, and perfbench/run.py runs from that export, so it builds and
measures exactly the committed files. For every workload, N pairs of
untraced runs alternate the two commits (the parent first in the first,
third, ... pair), at workload seeds --first-seed, --first-seed + 1, ...;
without --parent the commit runs alone. Then one traced run per commit at
seed 0 gives the exact counters, their digest and the parity line (pure
and compiled CSVs compared).

The file holds the commit(s), the value of PYTHONDONTWRITEBYTECODE for the
runs, null when unset. perfbench's children inherit it, and it only stops
imports from writing bytecode: over the bytecode that the in-place build
writes, it decides whether a module edited after the build is cached
again, but a commit whose build writes none compiles kcmkit afresh in
every run under it, so `setup_s` and `peak_rss_mb` move with the source's
length. The file also holds the `env` facts of the
commit's first run (kernel implementation included), and per workload and
commit the median and interquartile range of the five end-to-end metrics
over the runs, each run's values, whether every run passed perfbench's
correctness gate, and, with a parent, how many pairs the commit won on each
metric (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the end-to-end metrics of BENCHMARK.json, with the direction that is better
END_TO_END = {"wall_s": "lower", "compute_s": "lower", "setup_s": "lower",
              "peak_rss_mb": "lower", "ok_frac": "higher"}


def parse_run(stdout: str) -> dict:
    """The `env` and `counters` lines and the last-line result object of
    one perfbench/run.py run; counters is None for an untraced run."""
    lines = stdout.strip().splitlines()
    out = {"env": None, "counters": None, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head in ("env", "counters"):
            out[head] = json.loads(rest)
    if out["env"] is None:
        raise ValueError("a perfbench run without an `env` line")
    return out


def end_to_end(result: dict) -> dict:
    """The five end-to-end metric values of a result object."""
    return {name: result["metrics"][name]["value"] for name in END_TO_END}


def summary(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles) of the runs."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def wins(change: list[dict], parent: list[dict]) -> dict:
    """Per metric, the pairs in which the change reads strictly better."""
    out = {}
    for name, better in END_TO_END.items():
        sign = 1 if better == "higher" else -1
        out[name] = sum(1 for c, p in zip(change, parent)
                        if sign * (c[name] - p[name]) > 0)
    return out


def side(runs: list[dict]) -> dict:
    """The record of one commit's untraced runs of one workload."""
    values = [end_to_end(r["result"]) for r in runs]
    return {"correct": all(r["result"]["correct"] for r in runs),
            "metrics": {name: summary([v[name] for v in values])
                        for name in END_TO_END},
            "runs": values}


def head(sha: str, seconds: float) -> dict:
    """The record before any run: the commit, the command, and the value of
    PYTHONDONTWRITEBYTECODE that the runs inherit (None when unset)."""
    return {"commit": sha, "parent": None,
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "env": None, "workloads": {}}


def export(commit: str, workdir: Path) -> tuple[str, Path]:
    """(full sha, fresh directory holding `git archive` of the commit)."""
    sha = subprocess.run(["git", "rev-parse", commit], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tree = Path(tempfile.mkdtemp(prefix=f"{sha[:12]}-", dir=workdir))
    blob = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(blob)) as tar:
        tar.extractall(tree, filter="data")
    return sha, tree


def run(tree: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    p = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(int(trace))], capture_output=True, text=True, check=True)
    print(f"{tree.name} {workload} seed {seed} trace {int(trace)}: "
          f"{p.stdout.strip().splitlines()[-1][:160]}", flush=True)
    return parse_run(p.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--commit", default="HEAD")
    ap.add_argument("--parent", help="a commit to alternate with --commit")
    ap.add_argument("--workload", action="append", required=True,
                    help="NAME:PAIRS, repeatable")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    sha, tree = export(args.commit, args.workdir)
    record = head(sha, args.seconds)
    base = None
    if args.parent:
        record["parent"], base = export(args.parent, args.workdir)
    for spec in args.workload:
        name, _, pairs = spec.partition(":")
        seeds = [args.first_seed + i for i in range(int(pairs or 1))]
        mine, theirs = [], []
        for i, seed in enumerate(seeds):
            order = [(tree, mine)] + ([(base, theirs)] if base else [])
            for where, runs in (order[::-1] if i % 2 == 0 else order):
                runs.append(run(where, name, seed, args.seconds, False))
        record["env"] = record["env"] or mine[0]["env"]
        traced = run(tree, name, 0, args.seconds, True)
        entry = {"seeds": seeds, "change": side(mine),
                 "counters": traced["counters"],
                 "parity": traced["env"]["parity"],
                 "traced_correct": traced["result"]["correct"]}
        if base:
            entry["parent"] = side(theirs)
            entry["parent_counters_sha256"] = run(
                base, name, 0, args.seconds, True)["counters"]["sha256"]
            entry["pairs_won"] = wins(entry["change"]["runs"],
                                      entry["parent"]["runs"])
        record["workloads"][name] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
