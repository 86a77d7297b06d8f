"""Command-line front end: one subcommand per module, deterministic CSV out.

Every option is declared once, in `_GLOBALS` or `OPTIONS`, and
`parse_argv` reads argv from those tables alone: `--name value` or
`--name=value`, exact names, before or after the command, the last of a
repeated option winning; `-h`/`--help` prints the table. A run takes each
value from its flag, else from an optional flat key=value config file,
else from the table default. It emits a CSV whose comment lines
carry the seed, the package version, and a hash of the command, the seed
and every option of the command as resolved (not `--out` or `--config`,
which only name files), and writes output atomically so failed runs leave
no partial files. Grids of q (or p for `perc`) expand into independent
runs sharing the base seed with per-point offsets.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import sys
from types import SimpleNamespace

# hashlib imports _hashlib, which maps OpenSSL's libcrypto (about 3.5 MB of
# every command's peak RSS) for one digest; CPython's builtin module gives
# the same bytes. It is _sha2 from Python 3.12, _sha256 before.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__, blocks, bootstrap, kcm, paths, percolation, rng
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


def emit_csv(args: SimpleNamespace, header: list[str], rows) -> None:
    """Write comment lines, header, rows; atomically when `args.out` is a
    path. The hash reads the command's options from the table."""
    params = {"command": args.command, "seed": args.seed,
              **{name: getattr(args, name) for name in OPTIONS[args.command]}}
    blob = "\n".join(f"{k}={_cell(v)}" for k, v in sorted(params.items()))
    lines = [f"# seed={args.seed}", f"# version=kcmkit-{__version__}",
             f"# config={sha256(blob.encode()).hexdigest()[:16]}",
             ",".join(header)]
    lines += (",".join(_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    with _atomic(args.out) as fh:
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


# ------------------------------------------------------------------ argv

# a token such as -1 or -.5 is a value, not a flag
_NEGATIVE = re.compile(r"-[0-9.]")


def _is_flag(token: str) -> bool:
    return token.startswith("-") and not _NEGATIVE.match(token)


def _kind(typ) -> str:
    return typ.__name__.lstrip("_")      # int, float, str, grid, dims, flag


def _typed(label: str, typ, text: str):
    """typ(text), or a CliError that names `label`."""
    try:
        return typ(text)
    except CliError as e:
        raise CliError(f"{label}: {e}") from None
    except ValueError:
        raise CliError(f"{label}: expected {_kind(typ)}, got {text!r}") from None


def parse_argv(argv) -> SimpleNamespace:
    """The command named in argv and the options it gives, typed by the
    tables: a namespace holding `command` and every option of the command
    and of _GLOBALS, None where argv does not give it.

    An option is `--name value` or `--name=value`, with its exact name
    (underscores written as dashes), before or after the command; a
    separate value may not look like a flag, but may be a negative number.
    A repeated option keeps its last value. Anything else raises CliError.
    """
    given, positional = {}, []
    tokens = iter(argv)
    for token in tokens:
        if not _is_flag(token):
            positional.append(token)
            continue
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise CliError(f"{flag} needs a value")
        given[flag] = value
    commands = ", ".join(OPTIONS)
    if not positional:
        raise CliError(f"missing command; expected one of {commands}")
    command, *extra = positional
    if command not in OPTIONS:
        raise CliError(f"unknown command {command!r}; expected one of "
                       f"{commands}")
    if extra:
        raise CliError(f"unexpected argument {extra[0]!r}")
    options = {**_GLOBALS, **OPTIONS[command]}
    names = {f"--{name.replace('_', '-')}": name for name in options}
    args = SimpleNamespace(command=command, **dict.fromkeys(options))
    for flag, text in given.items():
        if flag not in names:
            raise CliError(f"unknown option {flag} for {command}")
        setattr(args, names[flag],
                _typed(flag, options[names[flag]][0], text))
    return args


def usage(command: str | None = None) -> str:
    """Help text from the tables: the commands, or one command's options
    with their kinds and defaults."""
    if command is None:
        return ("usage: kcm COMMAND [--name value | --name=value ...]\n\n"
                "Bootstrap closures, constrained dynamics, block events, "
                "canonical paths,\nand crossing scans.\n\n"
                f"commands: {', '.join(OPTIONS)}\n"
                "`kcm COMMAND --help` lists a command's options.\n")
    lines = [f"usage: kcm {command} [--name value | --name=value ...]", "",
             "options, by exact name, before or after the command; the last",
             "of a repeated option wins:"]
    for name, (typ, default) in {**OPTIONS[command], **_GLOBALS}.items():
        shown = ("required" if default is REQUIRED else
                 "none" if default is None else _cell(default))
        lines.append(f"  --{name.replace('_', '-'):<10} {_kind(typ):<6} "
                     f"{shown}")
    return "\n".join(lines) + "\n"


def _resolve(args: SimpleNamespace) -> None:
    """Give every option of the command its value: the flag, else the
    config file's entry, else the table default. Every parsed option is
    None when its flag was not given."""
    options = {**_GLOBALS, **OPTIONS[args.command]}
    kv = read_config_file(args.config) if args.config else {}
    for key in kv:
        if key not in options:
            raise CliError(f"config key {key!r} is not an option of "
                           f"{args.command!r}")
    for name, (typ, default) in options.items():
        if getattr(args, name) is not None:
            continue
        if name in kv:
            value = _typed(f"config key {name!r}", typ, kv[name])
        elif default is REQUIRED:
            raise CliError(f"missing --{name.replace('_', '-')}")
        else:
            value = default
        setattr(args, name, value)
    # a count of replicas names ids 0..R-1, and the ids are 64-bit
    if "replicas" in options and args.replicas > rng.REPLICA_IDS:
        raise CliError(f"--replicas must be at most 2^64, the number of "
                       f"distinct replica ids, got {args.replicas}")


# -------------------------------------------------------------- subcommands

def _cmd_bootstrap(args) -> None:
    fam = resolve_family(args.model, args.d)
    rows = []
    for i, q in enumerate(args.q):
        est = bootstrap.estimate_span_probability(
            args.n, fam, q, args.replicas, args.seed + i, torus=args.torus)
        rows.append([fam.name, fam.d, args.n, q, args.replicas,
                     est.value, est.ci[0], est.ci[1], args.seed + i])
    emit_csv(args, ["model", "d", "n", "q", "replicas", "p_hat", "ci_lo",
                    "ci_hi", "seed"], rows)


def _cmd_qc(args) -> None:
    fam = resolve_family(args.model, args.d)
    est = bootstrap.estimate_qc(args.n, fam, args.tol, args.replicas,
                                args.seed)
    emit_csv(args, ["model", "d", "n", "tol", "replicas", "seed", "q",
                    "ci_lo", "ci_hi", "censored"],
             [[fam.name, fam.d, args.n, args.tol, args.replicas, args.seed,
               est.value, est.ci[0], est.ci[1], est.censored]])


def _cmd_lc(args) -> None:
    if len(args.q) != 1:
        raise CliError("lc takes a single q")
    fam = resolve_family(args.model, args.d)
    q = args.q[0]
    est = bootstrap.estimate_lc(q, fam, args.n_max, args.replicas, args.seed,
                                torus=args.torus)
    emit_csv(args, ["model", "d", "q", "n_max", "replicas", "seed",
                    "lc_hat", "ci_lo", "ci_hi", "censored"],
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
        emit_csv(args, ["model", "dims", "q", "tmax", "seed", "replica",
                        "tau0", "censored", "flips"], rows)


def _cmd_gap(args) -> None:
    from . import spectral  # spares the other commands its import

    fam = resolve_family(args.model, args.d)
    geom = Geometry(args.dims, torus=args.torus)
    rows = []
    for i, q in enumerate(args.q):
        gen = spectral.build_generator(geom, fam, q)
        if gen.size == 1:   # nothing to solve: spectral_gap reads 0.0
            raise CliError(f"the class of the all-empty state on dims "
                           f"{','.join(map(str, geom.dims))} holds one "
                           f"state: no site can flip, so it has no gap")
        gap, degenerate = spectral.spectral_gap(gen)
        if degenerate:   # roundoff, not a gap: no row carries it
            raise CliError(f"the gap at q={q} is below "
                           f"{spectral.DEGENERATE_GAP:g}, where the "
                           f"eigensolve cannot tell it from 0")
        rows.append([fam.name, geom.dims, q, args.seed, gen.size, gap,
                     1.0 / gap])
    emit_csv(args, ["model", "dims", "q", "seed", "class_size", "gap",
                    "t_rel"], rows)


def _cmd_blocks(args) -> None:
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
            if math.prod(bd.dims) > blocks.MAX_BLOCK_SITES:
                raise CliError(f"--q {q} and --A {args.A} give a block of "
                               f"more than the 2^24 sites a block holds; "
                               f"raise --q or lower --A")
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
    emit_csv(args, ["model", "dims", "q", "A", "replicas", "seed", "p1",
                    "p1_ci", "p2", "p2_mode", "lambda_phi", "lambda_mode",
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
    norm = n1 * n2 * (n1 + n2) if args.mode == "B" else n1 * n2
    report = paths.congestion_constant(built, q)
    emit_csv(args, ["mode", "model", "dims", "q", "samples", "seed",
                    "max_len", "fitted_c", "rho_mode", "rho"],
             [[args.mode, args.model, args.dims, q, args.samples, args.seed,
               report.n_max, report.n_max / norm, "exact", report.rho]])


def _cmd_perc(args) -> None:
    rows = []
    for i, p in enumerate(args.p):
        scan = percolation.estimate_crossing_failure(args.nmax, p,
                                                     args.replicas,
                                                     args.seed + i)
        m_hat = scan.m_hat if scan.m_hat is not None else float("nan")
        for r in scan.rows:
            rows.append(["site", percolation.level_dims(r.n), 1.0 - p, p,
                         args.replicas, args.seed + i, r.n, r.side,
                         r.estimate.value, r.estimate.ci[0],
                         r.estimate.ci[1], m_hat])
    emit_csv(args, ["model", "dims", "q", "p", "replicas", "seed", "n",
                    "ell_n", "failure", "ci_lo", "ci_hi", "m_hat"], rows)


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if "-h" in argv or "--help" in argv:
            sys.stdout.write(usage(next((a for a in argv if a in OPTIONS),
                                        None)))
            return 0
        args = parse_argv(argv)
        _resolve(args)
        _COMMANDS[args.command](args)
    except MemoryError as e:
        # NumPy's names the request it could not meet; a bare one has no text
        print("error: out of memory" + (f": {e}" if str(e) else ""),
              file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as e:
        # CliError is a ValueError, NotImplementedError a RuntimeError
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
