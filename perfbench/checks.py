"""Correctness checks on the CSV of one `kcm` invocation.

`structure` holds at any seed: the row count, the row keys (model, seed,
grid point) and the ranges of the estimates. At the pinned seed the
benchmark also compares the header and data rows byte for byte against
reference.json (see `data_digest`). `#` comment lines are never compared.
"""

from __future__ import annotations

import hashlib
import math


def data_lines(csv_text: str) -> list[str]:
    """Header and data rows: every line that is not a `#` comment."""
    return [ln for ln in csv_text.splitlines() if not ln.startswith("#")]


def data_digest(csv_text: str) -> str:
    return hashlib.sha256("\n".join(data_lines(csv_text)).encode()).hexdigest()


def options(argv: list[str]) -> dict[str, str]:
    """`--flag value` pairs of a kcm argument list, keyed by flag name."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _in_unit(row, *cols) -> bool:
    return all(0.0 <= float(row[c]) <= 1.0 for c in cols)


def _ordered(row, lo, mid, hi, slack=1e-12) -> bool:
    # the slack absorbs rounding: wilson_ci puts the lower end at 3.5e-18,
    # not 0, when there are no successes
    return float(row[lo]) - slack <= float(row[mid]) <= float(row[hi]) + slack


def structure(argv: list[str], csv_text: str) -> list[str]:
    """Problems with the shape and ranges of one invocation's CSV."""
    lines = data_lines(csv_text)
    if not lines:
        return ["no header"]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if any(len(ln.split(",")) != len(header) for ln in lines[1:]):
        return ["ragged rows"]
    cmd, opt = argv[0], options(argv)
    seed = int(opt["seed"])
    grid = opt.get("q", opt.get("p", "")).split(",")
    try:
        problems = list(_CHECKS[cmd](opt, rows, seed, grid))
    except (KeyError, ValueError) as e:
        return [f"unparseable row: {e!r}"]
    return [f"{cmd}: {p}" for p in problems]


def _bootstrap(opt, rows, seed, grid):
    yield from _count(rows, len(grid))
    for i, (r, q) in enumerate(zip(rows, grid)):
        if float(r["q"]) != float(q) or int(r["seed"]) != seed + i:
            yield f"row {i} keys {r['q']},{r['seed']}"
        if not (_in_unit(r, "p_hat", "ci_lo", "ci_hi")
                and _ordered(r, "ci_lo", "p_hat", "ci_hi")):
            yield f"row {i} estimate out of range"


def _qc(opt, rows, seed, grid):
    yield from _count(rows, 1)
    for r in rows:
        tol = float(r["tol"])
        # the interval is the order-statistic bracket widened by tol/2
        if not (_in_unit(r, "q") and _ordered(r, "ci_lo", "q", "ci_hi", tol)
                and -tol <= float(r["ci_lo"]) and float(r["ci_hi"]) <= 1 + tol):
            yield "q_c out of range"


def _lc(opt, rows, seed, grid):
    yield from _count(rows, 1)
    for r in rows:
        if not (1 <= float(r["lc_hat"]) <= int(r["n_max"])
                and _ordered(r, "ci_lo", "lc_hat", "ci_hi")):
            yield "L_c out of range"


def _sim(opt, rows, seed, grid):
    yield from _count(rows, int(opt["replicas"]))
    tmax = float(opt["tmax"])
    for i, r in enumerate(rows):
        tau, cens = float(r["tau0"]), r["censored"]
        if int(r["replica"]) != i or int(r["seed"]) != seed:
            yield f"row {i} keys {r['replica']},{r['seed']}"
        if not (0.0 <= tau <= tmax and cens in ("0", "1")
                and (cens == "0" or tau == tmax) and int(r["flips"]) >= 0):
            yield f"row {i} tau0={tau} censored={cens} out of range"


def _perc(opt, rows, seed, grid):
    nmax = int(opt["nmax"])
    yield from _count(rows, nmax * len(grid))
    for i, r in enumerate(rows):
        n = i % nmax + 1
        if int(r["n"]) != n or int(r["ell_n"]) != 1 << n:
            yield f"row {i} level {r['n']}"
        if not (_in_unit(r, "failure", "ci_lo", "ci_hi")
                and _ordered(r, "ci_lo", "failure", "ci_hi")):
            yield f"row {i} failure rate out of range"


def _paths(opt, rows, seed, grid):
    yield from _count(rows, 1)
    for r in rows:
        if not (int(r["max_len"]) >= 1 and float(r["fitted_c"]) > 0
                and float(r["rho"]) >= 1.0):
            yield "path length or congestion out of range"


def _blocks(opt, rows, seed, grid):
    yield from _count(rows, len(grid))
    for r in rows:
        if not (_in_unit(r, "p1", "p2") and float(r["lambda_phi"]) > 0
                and float(r["p1_ci"]) >= 0):
            yield "block probabilities out of range"


def _gap(opt, rows, seed, grid):
    yield from _count(rows, len(grid))
    for r in rows:
        gap, t_rel = float(r["gap"]), float(r["t_rel"])
        if not (gap > 0 and int(r["class_size"]) >= 1
                and math.isclose(t_rel * gap, 1.0, rel_tol=1e-9)):
            yield f"gap={gap} t_rel={t_rel}"


def _count(rows, n):
    if len(rows) != n:
        yield f"{len(rows)} rows, expected {n}"


_CHECKS = {"bootstrap": _bootstrap, "qc": _qc, "lc": _lc, "sim": _sim,
           "perc": _perc, "paths": _paths, "blocks": _blocks, "gap": _gap}
