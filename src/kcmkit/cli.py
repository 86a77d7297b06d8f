"""Command-line front end: one subcommand per module, deterministic CSV out.

Every run resolves its parameters from flags plus an optional flat
key=value config file (flags win), emits a CSV whose comment lines carry
the seed, the package version, and a hash of the resolved parameters, and
writes output atomically so failed runs leave no partial files.  Grids of
q (or p for `perc`) expand into independent runs sharing the base seed
with per-point offsets.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import sys

import numpy as np

from . import __version__, blocks, bootstrap, kcm, paths, percolation
from .families import UpdateFamily, make_family
from .lattice import Configuration, Geometry, read_grid


class CliError(ValueError):
    """Bad arguments or config; reported on stderr with a nonzero exit."""


# ------------------------------------------------------------ value parsing

def _dims(text: str) -> tuple[int, ...]:
    try:
        out = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CliError(f"bad dims {text!r}; expected comma-separated ints")
    if not out or any(v < 1 for v in out):
        raise CliError(f"dims must be positive, got {text!r}")
    return out


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise CliError(f"bad value grid {text!r}")


def _flag(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise CliError(f"bad boolean {text!r}")


_FA = re.compile(r"^fa_?(\d+)f?(?:_d(\d+))?$")


def resolve_family(token: str, d: int | None) -> UpdateFamily:
    """Family from a CLI token; `fa2` means the 2-neighbour model in d=2."""
    if token == "gg":
        return make_family("gg")
    if token == "north_east":
        return make_family("north_east")
    if token == "east":
        return make_family("east", d if d is not None else 1)
    if token == "unconstrained":
        return make_family("unconstrained", d if d is not None else 1)
    m = _FA.match(token)
    if m:
        k = int(m.group(1))
        dd = int(m.group(2)) if m.group(2) else (d if d is not None else 2)
        try:
            return make_family("fa_kf", dd, k)
        except ValueError as e:
            raise CliError(str(e))
    raise CliError(f"unknown model {token!r}")


# -------------------------------------------------------------- csv plumbing

def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return "x".join(str(t) for t in v)
    return str(v)


def _config_hash(pairs: dict) -> str:
    blob = "\n".join(f"{k}={_cell(v)}" for k, v in sorted(pairs.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def emit_csv(out: str | None, params: dict, header: list[str], rows) -> None:
    """Write comment lines, header, rows; atomically when `out` is a path."""
    buf = io.StringIO()
    buf.write(f"# seed={params.get('seed', 0)}\n")
    buf.write(f"# version=kcmkit-{__version__}\n")
    buf.write(f"# config={_config_hash(params)}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(v) for v in row) + "\n")
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
        return
    tmp = out + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ------------------------------------------------------------- config files

def read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise CliError(f"cannot read config file: {e}")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{ln}: expected key=value")
        key, value = (t.strip() for t in line.split("=", 1))
        if not key:
            raise CliError(f"{path}:{ln}: empty key")
        out[key.replace("-", "_")] = value
    return out


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  command: str) -> None:
    """Fill still-unset options from the config file; flags already win
    because every option's argparse default is None."""
    if not args.config:
        return
    kv = read_config_file(args.config)
    actions = {a.dest: a for a in parser._actions}
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    actions.update({a.dest: a for a in sub.choices[command]._actions})
    for key, value in kv.items():
        if key == "command":
            continue
        action = actions.get(key)
        if action is None:
            raise CliError(f"config key {key!r} is not an option of "
                           f"{command!r}")
        if getattr(args, key) is None:
            setattr(args, key, (action.type or str)(value))


def _need(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"missing --{name.replace('_', '-')}")


# -------------------------------------------------------------- subcommands

def _cmd_bootstrap(args) -> None:
    _need(args, "model", "n", "q")
    torus = args.torus if args.torus is not None else True
    replicas = args.replicas if args.replicas is not None else 2000
    fam = resolve_family(args.model, args.d)
    params = dict(command="bootstrap", model=fam.name, n=args.n, q=args.q,
                  replicas=replicas, seed=args.seed, torus=torus)
    rows = []
    for i, q in enumerate(args.q):
        if not 0.0 <= q <= 1.0:
            raise CliError(f"q must be in [0,1], got {q}")
        est = bootstrap.estimate_span_probability(
            args.n, fam, q, replicas, args.seed + i, torus=torus)
        rows.append([fam.name, fam.d, args.n, q, replicas,
                     est.value, est.ci[0], est.ci[1], args.seed + i])
    emit_csv(args.out, params,
             ["model", "d", "n", "q", "replicas", "p_hat", "ci_lo", "ci_hi",
              "seed"], rows)


def _cmd_qc(args) -> None:
    _need(args, "model", "n")
    tol = args.tol if args.tol is not None else 5e-4
    replicas = args.replicas if args.replicas is not None else 400
    fam = resolve_family(args.model, args.d)
    params = dict(command="qc", model=fam.name, n=args.n, tol=tol,
                  replicas=replicas, seed=args.seed)
    est = bootstrap.estimate_qc(args.n, fam, tol, replicas, args.seed)
    emit_csv(args.out, params,
             ["model", "d", "n", "tol", "replicas", "seed", "q",
              "ci_lo", "ci_hi", "censored"],
             [[fam.name, fam.d, args.n, tol, replicas, args.seed,
               est.value, est.ci[0], est.ci[1], est.censored]])


def _cmd_lc(args) -> None:
    _need(args, "model", "q")
    if len(args.q) != 1:
        raise CliError("lc takes a single q")
    n_max = args.n_max if args.n_max is not None else 4096
    replicas = args.replicas if args.replicas is not None else 200
    torus = args.torus if args.torus is not None else True
    fam = resolve_family(args.model, args.d)
    q = args.q[0]
    params = dict(command="lc", model=fam.name, q=q, n_max=n_max,
                  replicas=replicas, seed=args.seed, torus=torus)
    est = bootstrap.estimate_lc(q, fam, n_max, replicas, args.seed,
                                torus=torus)
    emit_csv(args.out, params,
             ["model", "d", "q", "n_max", "replicas", "seed", "lc_hat",
              "ci_lo", "ci_hi", "censored"],
             [[fam.name, fam.d, q, n_max, replicas, args.seed,
               est.value, est.ci[0], est.ci[1], est.censored]])


def _cmd_sim(args) -> None:
    _need(args, "model", "n", "q", "tmax")
    if len(args.q) != 1:
        raise CliError("sim takes a single q")
    replicas = args.replicas if args.replicas is not None else 100
    start = args.start if args.start is not None else "stationary"
    variant = args.variant if args.variant is not None else "first_empty"
    torus = args.torus if args.torus is not None else True
    fam = resolve_family(args.model, args.d)
    q = args.q[0]
    geom = Geometry((args.n,) * fam.d, torus=torus)
    initial = None
    if args.initial:
        if not args.events:
            raise CliError("--initial needs --events")
        initial = read_grid(args.initial)
        if initial.geom != geom:
            raise CliError("initial grid does not match --n and --torus")
    kp = kcm.KcmParams(fam, q, geom, args.tmax, args.seed)
    params = dict(command="sim", model=fam.name, n=args.n, q=q,
                  tmax=args.tmax, replicas=replicas, seed=args.seed,
                  start=start, variant=variant, torus=torus)
    samples, _summary = kcm.sample_persistence_time(
        kp, replicas, start=start, variant=variant)
    rows = [[fam.name, geom.dims, q, args.tmax, args.seed, s.replica,
             s.tau0, s.censored, s.flips_executed] for s in samples]
    emit_csv(args.out, params,
             ["model", "dims", "q", "tmax", "seed", "replica", "tau0",
              "censored", "flips"], rows)
    if args.events:
        if initial is None:
            initial = (Configuration.fully_empty(geom) if start == "empty"
                       else Configuration.random(geom, q, args.seed, 0))
        res = kcm.simulate_kcm(kp, initial, replica=0, log_events=True)
        kcm.write_event_log(res.events, args.events)


def _cmd_gap(args) -> None:
    from . import spectral  # scipy, which only this command needs

    _need(args, "model", "dims", "q")
    fam = resolve_family(args.model, args.d)
    torus = args.torus if args.torus is not None else False
    geom = Geometry(args.dims, torus=torus)
    params = dict(command="gap", model=fam.name, dims=args.dims, q=args.q,
                  seed=args.seed, torus=torus)
    rows = []
    for i, q in enumerate(args.q):
        gen = spectral.build_generator(geom, fam, q)
        gap, degenerate = spectral.spectral_gap(gen)
        rows.append([fam.name, geom.dims, q, args.seed, gen.size, gap,
                     spectral.relaxation_time_from_gap(gap, degenerate)])
    emit_csv(args.out, params,
             ["model", "dims", "q", "seed", "class_size", "gap", "t_rel"],
             rows)


def _cmd_blocks(args) -> None:
    _need(args, "model", "q", "A")
    replicas = args.replicas if args.replicas is not None else 10_000
    k = args.k if args.k is not None else 3
    p2_mode = args.p2_mode if args.p2_mode is not None else "auto"
    if args.model not in ("fa2", "fakf", "gg"):
        raise CliError(f"unknown block model {args.model!r}")
    params = dict(command="blocks", model=args.model, q=args.q, A=args.A,
                  replicas=replicas, seed=args.seed,
                  dims=args.dims, k=k, p2_mode=p2_mode)
    rows = []
    for i, q in enumerate(args.q):
        if args.dims is not None:
            dims = args.dims
        else:
            bd = blocks.block_dims(args.model, q, args.A,
                                   d=args.d if args.d is not None else 2,
                                   ell=args.ell)
            if bd.degenerate:
                raise CliError(f"degenerate block dims {bd.dims} at q={q}; "
                               f"pass --dims explicitly")
            dims = bd.dims
        spec = blocks.BlockSpec(args.model, dims, q, args.A, k=k)
        probs = blocks.estimate_block_probs(spec, replicas, args.seed + i,
                                            p2_mode=p2_mode)
        lam, lam_mode = blocks.lambda_phi(spec)
        rows.append([args.model, dims, q, args.A, replicas, args.seed + i,
                     probs.p1.value, probs.p1.halfwidth, probs.p2_value,
                     probs.p2_mode, lam, lam_mode, probs.condition_value])
    emit_csv(args.out, params,
             ["model", "dims", "q", "A", "replicas", "seed", "p1", "p1_ci",
              "p2", "p2_mode", "lambda_phi", "lambda_mode",
              "condition_value"], rows)


def _cmd_paths(args) -> None:
    _need(args, "model", "mode", "dims", "q")
    if args.model not in ("fa2", "gg"):
        raise CliError("path sampling covers the fa2 and gg block models")
    if args.mode not in ("A", "B"):
        raise CliError("--mode must be A or B")
    if len(args.q) != 1:
        raise CliError("paths takes a single q")
    if len(args.dims) != 2:
        raise CliError("block dims must be two-dimensional")
    q = args.q[0]
    samples = args.samples if args.samples is not None else 200
    axis = args.axis if args.axis is not None else 0
    direction = args.direction if args.direction is not None else 1
    n1, n2 = args.dims
    params = dict(command="paths", model=args.model, mode=args.mode,
                  dims=args.dims, q=q, samples=samples, seed=args.seed,
                  axis=axis, direction=direction)
    built = []
    for rep in range(samples):
        if args.mode == "B":
            cfg, x, y = paths.sample_path_B_instance(
                args.model, args.dims, q, args.seed, rep,
                axis=axis, direction=direction)
            built.append(paths.path_B(cfg, args.model, x, y))
        else:
            cfg, x, z = paths.sample_path_A_instance(
                args.model, args.dims, q, args.seed, rep)
            built.append(paths.path_A(cfg, args.model, x, z))
    max_len = max(p.length for p in built)
    norm = n1 * n2 * (n1 + n2) if args.mode == "B" else n1 * n2
    report = paths.congestion_constant(built, q)
    emit_csv(args.out, params,
             ["mode", "model", "dims", "q", "samples", "seed", "max_len",
              "fitted_c", "rho_mode", "rho"],
             [[args.mode, args.model, args.dims, q, samples, args.seed,
               max_len, max_len / norm, report.enumeration_mode,
               report.rho]])


def _cmd_perc(args) -> None:
    _need(args, "p")
    nmax = args.nmax if args.nmax is not None else 6
    replicas = args.replicas if args.replicas is not None else 2000
    params = dict(command="perc", p=args.p, nmax=nmax, replicas=replicas,
                  seed=args.seed)
    ladder = percolation.RectangleLadder(nmax)
    rows = []
    for i, p in enumerate(args.p):
        scan = percolation.estimate_crossing_failure(nmax, p, replicas,
                                                     args.seed + i)
        m_hat = scan.m_hat if scan.m_hat is not None else float("nan")
        for r in scan.rows:
            rows.append(["site", ladder.level_dims(r.n), 1.0 - p, p,
                         replicas, args.seed + i, r.n, r.side,
                         r.estimate.value, r.estimate.ci[0],
                         r.estimate.ci[1], m_hat])
    emit_csv(args.out, params,
             ["model", "dims", "q", "p", "replicas", "seed", "n", "ell_n",
              "failure", "ci_lo", "ci_hi", "m_hat"], rows)


_COMMANDS = {
    "bootstrap": _cmd_bootstrap,
    "qc": _cmd_qc,
    "lc": _cmd_lc,
    "sim": _cmd_sim,
    "gap": _cmd_gap,
    "blocks": _cmd_blocks,
    "paths": _cmd_paths,
    "perc": _cmd_perc,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcm",
        description="Bootstrap closures, constrained dynamics, block events,"
                    " canonical paths, and crossing scans.")
    # global flags are legal both before and after the subcommand; the
    # per-subcommand copies default to SUPPRESS so they never clobber
    # values parsed at the top level
    globals_ = (("seed", int, 0), ("out", str, None), ("config", str, None))
    common = argparse.ArgumentParser(add_help=False)
    for flag, typ, default in globals_:
        parser.add_argument(f"--{flag}", type=typ, default=default)
        common.add_argument(f"--{flag}", type=typ,
                            default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **opts):
        sp = sub.add_parser(name, parents=[common])
        for flag, typ in opts.items():
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                            type=typ, default=None)
        return sp

    add("bootstrap", model=str, n=int, q=_grid, replicas=int, d=int,
        torus=_flag)
    add("qc", model=str, n=int, tol=float, replicas=int, d=int)
    add("lc", model=str, q=_grid, n_max=int, replicas=int, d=int,
        torus=_flag)
    add("sim", model=str, n=int, q=_grid, tmax=float, replicas=int, d=int,
        start=str, variant=str, torus=_flag, events=str, initial=str)
    add("gap", model=str, dims=_dims, q=_grid, d=int, torus=_flag)
    add("blocks", model=str, q=_grid, A=float, replicas=int, dims=_dims,
        d=int, k=int, ell=int, p2_mode=str)
    add("paths", model=str, mode=str, dims=_dims, q=_grid, samples=int,
        axis=int, direction=int)
    add("perc", p=_grid, nmax=int, replicas=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, parser, args.command)
        _COMMANDS[args.command](args)
    except (CliError, ValueError, NotImplementedError, OSError,
            RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
