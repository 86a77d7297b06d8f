"""Command-line front end: one subcommand per module, deterministic CSV out.

Every option is declared once, in `_GLOBALS` or `OPTIONS`. A run takes
each value from its flag, else from an optional flat key=value config
file, else from the table default. It emits a CSV whose comment lines
carry the seed, the package version, and a hash of the resolved
parameters, and writes output atomically so failed runs leave no partial
files.  Grids of q (or p for `perc`) expand into independent runs sharing
the base seed with per-point offsets.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys

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


@contextlib.contextmanager
def _atomic(path: str, mode: str = "w"):
    """A handle on `path`.tmp that replaces `path` only when the block
    completes; on any failure the temporary file is removed."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    with _atomic(out) as fh:
        fh.write(text)


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


# --------------------------------------------------------------- the options

REQUIRED = object()  # default of an option the run cannot do without

# option -> (type, default or REQUIRED); legal before and after the command
_GLOBALS = dict(seed=(int, 0), out=(str, None), config=(str, None))

# command -> option -> (type, default or REQUIRED); required options are
# reported missing in the order listed
OPTIONS = {
    "bootstrap": dict(model=(str, REQUIRED), n=(int, REQUIRED),
                      q=(_grid, REQUIRED), replicas=(int, 2000),
                      d=(int, None), torus=(_flag, True)),
    "qc": dict(model=(str, REQUIRED), n=(int, REQUIRED), tol=(float, 5e-4),
               replicas=(int, 400), d=(int, None)),
    "lc": dict(model=(str, REQUIRED), q=(_grid, REQUIRED),
               n_max=(int, 4096), replicas=(int, 200), d=(int, None),
               torus=(_flag, True)),
    "sim": dict(model=(str, REQUIRED), n=(int, REQUIRED), q=(_grid, REQUIRED),
                tmax=(float, REQUIRED), replicas=(int, 100), d=(int, None),
                start=(str, "stationary"), variant=(str, "first_empty"),
                torus=(_flag, True), events=(str, None),
                initial=(str, None)),
    "gap": dict(model=(str, REQUIRED), dims=(_dims, REQUIRED),
                q=(_grid, REQUIRED), d=(int, None), torus=(_flag, False)),
    "blocks": dict(model=(str, REQUIRED), q=(_grid, REQUIRED),
                   A=(float, REQUIRED), replicas=(int, 10_000),
                   dims=(_dims, None), d=(int, 2), k=(int, 3),
                   ell=(int, None), p2_mode=(str, "auto")),
    "paths": dict(model=(str, REQUIRED), mode=(str, REQUIRED),
                  dims=(_dims, REQUIRED), q=(_grid, REQUIRED),
                  samples=(int, 200), axis=(int, 0), direction=(int, 1)),
    "perc": dict(p=(_grid, REQUIRED), nmax=(int, 6), replicas=(int, 2000)),
}


def _resolve(args: argparse.Namespace) -> None:
    """Give every option of the command its value: the flag, else the
    config file's entry, else the table default. Every parsed option is
    None when its flag was not given."""
    options = {**_GLOBALS, **OPTIONS[args.command]}
    kv = read_config_file(args.config) if args.config else {}
    for key in kv:
        if key != "command" and key not in options:
            raise CliError(f"config key {key!r} is not an option of "
                           f"{args.command!r}")
    for name, (typ, default) in options.items():
        if getattr(args, name) is not None:
            continue
        if name in kv:
            value = typ(kv[name])
        elif default is REQUIRED:
            raise CliError(f"missing --{name.replace('_', '-')}")
        else:
            value = default
        setattr(args, name, value)


# -------------------------------------------------------------- subcommands

def _cmd_bootstrap(args) -> None:
    fam = resolve_family(args.model, args.d)
    params = dict(command="bootstrap", model=fam.name, n=args.n, q=args.q,
                  replicas=args.replicas, seed=args.seed, torus=args.torus)
    rows = []
    for i, q in enumerate(args.q):
        if not 0.0 <= q <= 1.0:
            raise CliError(f"q must be in [0,1], got {q}")
        est = bootstrap.estimate_span_probability(
            args.n, fam, q, args.replicas, args.seed + i, torus=args.torus)
        rows.append([fam.name, fam.d, args.n, q, args.replicas,
                     est.value, est.ci[0], est.ci[1], args.seed + i])
    emit_csv(args.out, params,
             ["model", "d", "n", "q", "replicas", "p_hat", "ci_lo", "ci_hi",
              "seed"], rows)


def _cmd_qc(args) -> None:
    fam = resolve_family(args.model, args.d)
    params = dict(command="qc", model=fam.name, n=args.n, tol=args.tol,
                  replicas=args.replicas, seed=args.seed)
    est = bootstrap.estimate_qc(args.n, fam, args.tol, args.replicas,
                                args.seed)
    emit_csv(args.out, params,
             ["model", "d", "n", "tol", "replicas", "seed", "q",
              "ci_lo", "ci_hi", "censored"],
             [[fam.name, fam.d, args.n, args.tol, args.replicas, args.seed,
               est.value, est.ci[0], est.ci[1], est.censored]])


def _cmd_lc(args) -> None:
    if len(args.q) != 1:
        raise CliError("lc takes a single q")
    fam = resolve_family(args.model, args.d)
    q = args.q[0]
    params = dict(command="lc", model=fam.name, q=q, n_max=args.n_max,
                  replicas=args.replicas, seed=args.seed, torus=args.torus)
    est = bootstrap.estimate_lc(q, fam, args.n_max, args.replicas, args.seed,
                                torus=args.torus)
    emit_csv(args.out, params,
             ["model", "d", "q", "n_max", "replicas", "seed", "lc_hat",
              "ci_lo", "ci_hi", "censored"],
             [[fam.name, fam.d, q, args.n_max, args.replicas, args.seed,
               est.value, est.ci[0], est.ci[1], est.censored]])


def _cmd_sim(args) -> None:
    if len(args.q) != 1:
        raise CliError("sim takes a single q")
    fam = resolve_family(args.model, args.d)
    q = args.q[0]
    geom = Geometry((args.n,) * fam.d, torus=args.torus)
    initial = None
    if args.initial:
        if not args.events:
            raise CliError("--initial needs --events")
        initial = read_grid(args.initial)
        if initial.geom != geom:
            raise CliError("initial grid does not match --n and --torus")
    kp = kcm.KcmParams(fam, q, geom, args.tmax, args.seed)
    params = dict(command="sim", model=fam.name, n=args.n, q=q,
                  tmax=args.tmax, replicas=args.replicas, seed=args.seed,
                  start=args.start, variant=args.variant, torus=args.torus)
    samples, _summary = kcm.sample_persistence_time(
        kp, args.replicas, start=args.start, variant=args.variant)
    rows = [[fam.name, geom.dims, q, args.tmax, args.seed, s.replica,
             s.tau0, s.censored, s.flips_executed] for s in samples]
    # the event log is staged first and lands only after the CSV does, so
    # a run that fails on either file leaves neither
    with contextlib.ExitStack() as stack:
        if args.events:
            if initial is None:
                initial = (Configuration.fully_empty(geom)
                           if args.start == "empty"
                           else Configuration.random(geom, q, args.seed, 0))
            res = kcm.simulate_kcm(kp, initial, replica=0, log_events=True)
            log = stack.enter_context(_atomic(args.events, "wb"))
            kcm.write_event_log(res.events, log)
        emit_csv(args.out, params,
                 ["model", "dims", "q", "tmax", "seed", "replica", "tau0",
                  "censored", "flips"], rows)


def _cmd_gap(args) -> None:
    from . import spectral  # loads ARPACK only when a class needs Lanczos

    fam = resolve_family(args.model, args.d)
    geom = Geometry(args.dims, torus=args.torus)
    params = dict(command="gap", model=fam.name, dims=args.dims, q=args.q,
                  seed=args.seed, torus=args.torus)
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
    if args.model not in ("fa2", "fakf", "gg"):
        raise CliError(f"unknown block model {args.model!r}")
    params = dict(command="blocks", model=args.model, q=args.q, A=args.A,
                  replicas=args.replicas, seed=args.seed,
                  dims=args.dims, k=args.k, p2_mode=args.p2_mode)
    rows = []
    for i, q in enumerate(args.q):
        if args.dims is not None:
            dims = args.dims
        else:
            bd = blocks.block_dims(args.model, q, args.A, d=args.d,
                                   ell=args.ell)
            if bd.degenerate:
                raise CliError(f"degenerate block dims {bd.dims} at q={q}; "
                               f"pass --dims explicitly")
            dims = bd.dims
        spec = blocks.BlockSpec(args.model, dims, q, args.A, k=args.k)
        probs = blocks.estimate_block_probs(spec, args.replicas,
                                            args.seed + i,
                                            p2_mode=args.p2_mode)
        lam, lam_mode = blocks.lambda_phi(spec)
        rows.append([args.model, dims, q, args.A, args.replicas,
                     args.seed + i, probs.p1.value, probs.p1.halfwidth,
                     probs.p2_value, probs.p2_mode, lam, lam_mode,
                     probs.condition_value])
    emit_csv(args.out, params,
             ["model", "dims", "q", "A", "replicas", "seed", "p1", "p1_ci",
              "p2", "p2_mode", "lambda_phi", "lambda_mode",
              "condition_value"], rows)


def _cmd_paths(args) -> None:
    if args.model not in ("fa2", "gg"):
        raise CliError("path sampling covers the fa2 and gg block models")
    if args.mode not in ("A", "B"):
        raise CliError("--mode must be A or B")
    if len(args.q) != 1:
        raise CliError("paths takes a single q")
    if len(args.dims) != 2:
        raise CliError("block dims must be two-dimensional")
    if args.samples < 1:
        raise CliError("--samples must be >= 1")
    q = args.q[0]
    n1, n2 = args.dims
    params = dict(command="paths", model=args.model, mode=args.mode,
                  dims=args.dims, q=q, samples=args.samples, seed=args.seed,
                  axis=args.axis, direction=args.direction)
    built = []
    for rep in range(args.samples):
        if args.mode == "B":
            cfg, x, y = paths.sample_path_B_instance(
                args.model, args.dims, q, args.seed, rep,
                axis=args.axis, direction=args.direction)
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
             [[args.mode, args.model, args.dims, q, args.samples, args.seed,
               max_len, max_len / norm, "exact",
               report.rho]])


def _cmd_perc(args) -> None:
    params = dict(command="perc", p=args.p, nmax=args.nmax,
                  replicas=args.replicas, seed=args.seed)
    ladder = percolation.RectangleLadder(args.nmax)
    rows = []
    for i, p in enumerate(args.p):
        scan = percolation.estimate_crossing_failure(args.nmax, p,
                                                     args.replicas,
                                                     args.seed + i)
        m_hat = scan.m_hat if scan.m_hat is not None else float("nan")
        for r in scan.rows:
            rows.append(["site", ladder.level_dims(r.n), 1.0 - p, p,
                         args.replicas, args.seed + i, r.n, r.side,
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

    def add(p, options, default=None):
        for name, (typ, _) in options.items():
            p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                           type=typ, default=default)

    # global flags are legal both before and after the subcommand; the
    # per-subcommand copies default to SUPPRESS so they never clobber
    # values parsed at the top level
    add(parser, _GLOBALS)
    common = argparse.ArgumentParser(add_help=False)
    add(common, _GLOBALS, argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        add(sub.add_parser(command, parents=[common]), options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        _COMMANDS[args.command](args)
    except (CliError, ValueError, NotImplementedError, OSError,
            RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
