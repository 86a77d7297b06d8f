"""CLI: determinism, config files, CSV shape, failure hygiene."""

import hashlib
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcmkit import blocks, cli, kcm, spectral
from kcmkit.cli import CliError, main, parse_argv, read_config_file, resolve_family
from kcmkit.families import make_family
from kcmkit.lattice import Configuration, Geometry, write_grid
from oracles import constraint_satisfied, relaxation_time_from_gap


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    rc = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else None
    return rc, text


def rows_of(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


# ------------------------------------------------------------------ parsing


def test_resolve_family_tokens():
    assert resolve_family("fa2", None).name == "fa_2f_d2"
    assert resolve_family("fa1", 1).name == "fa_1f_d1"
    assert resolve_family("fa_3f_d3", None).name == "fa_3f_d3"
    assert resolve_family("gg", None).name == "gg"
    assert resolve_family("east", None).name == "east_d1"
    with pytest.raises(ValueError):
        resolve_family("duarte", None)
    with pytest.raises(ValueError):
        resolve_family("fa9", None)


def test_every_option_reaches_its_handler():
    # an option its handler never reads is parsed and then silently ignored
    assert set(cli.OPTIONS) == set(cli._COMMANDS)
    for name, options in cli.OPTIONS.items():
        source = inspect.getsource(cli._COMMANDS[name])
        for dest in options:
            assert f"args.{dest}" in source, (name, dest)


def test_reader_takes_equals_form_and_last_repeat(tmp_path):
    base = ["bootstrap", "--model", "fa2", "--n", "6", "--q", "0.3"]
    rc1, a = run(tmp_path, *base, "--replicas", "50", "--seed", "2")
    rc2, b = run(tmp_path, "--seed=9", "bootstrap", "--model=fa2", "--n=6",
                 "--q=0.3", "--replicas=100", "--replicas", "50",
                 "--seed=2")
    assert rc1 == rc2 == 0 and a == b
    args = parse_argv(["lc", "--q=0.1,0.2", "--torus=no", "--n-max", "8",
                       "--d", "-1"])
    assert (args.command, args.q, args.torus, args.n_max, args.d) == (
        "lc", (0.1, 0.2), False, 8, -1)
    assert args.model is args.seed is args.replicas is None


@pytest.mark.parametrize("argv,message", [
    (["lc", "--n", "5"], "unknown option --n for lc"),        # --n-max
    (["lc", "--rep", "5"], "unknown option --rep for lc"),    # --replicas
    (["lc", "--n_max", "5"], "unknown option --n_max for lc"),
    (["bootstrap", "--wibble=3"], "unknown option --wibble for bootstrap"),
    (["bootstrap", "--n"], "--n needs a value"),
    (["bootstrap", "--model", "--n", "4"], "--model needs a value"),
    (["bootstrap", "--n", "4.5"], "--n: expected int, got '4.5'"),
    (["bootstrap", "--torus=maybe"], "--torus: bad boolean 'maybe'"),
    (["bootstrap", "lc"], "unexpected argument 'lc'"),
    (["--seed", "1"], "missing command; expected one of bootstrap, qc, lc, "
                      "sim, gap, blocks, paths, perc"),
    (["boot"], "unknown command 'boot'; expected one of bootstrap, qc, lc, "
               "sim, gap, blocks, paths, perc"),
])
def test_reader_refuses_bad_argv(tmp_path, capsys, argv, message):
    # exact names only: argparse's prefix matching read `lc --n 5` as
    # --n-max 5
    rc, text = run(tmp_path, *argv)
    assert rc == 2 and text is None
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err == f"error: {message}\n"


def test_help_exits_zero_and_writes_no_file(tmp_path, capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    assert all(command in out for command in cli.OPTIONS)
    rc, text = run(tmp_path, "lc", "--help", "--n-max", "bad")
    assert rc == 0 and text is None and os.listdir(tmp_path) == []
    lines = capsys.readouterr().out.splitlines()
    assert "  --n-max      int    4096" in lines
    assert "  --model      str    required" in lines
    assert "  --seed       int    0" in lines
    assert "  --out        str    none" in lines


# --------------------------------------------------- argv property (Hypothesis)

_TEXT = {
    int: st.integers(-10**9, 10**9).map(str),
    float: st.floats().map(repr),
    str: st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    cli._grid: st.lists(st.floats(), min_size=1, max_size=3).map(
        lambda v: ",".join(map(repr, v))),
    cli._dims: st.lists(st.integers(1, 40), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v))),
    cli._flag: st.sampled_from(["1", "0", "true", "False", " yes", "no",
                                "ON", "off"]),
}
_BAD_TEXT = {int: ["x", "", "1.5", "1e3"], float: ["x", "", "1,2"],
             cli._grid: ["", "x", "1,,2"], cli._dims: ["", "0", "2,-1", "x"],
             cli._flag: ["", "maybe", "2"]}
_ALL_FLAGS = {f"--{n.replace('_', '-')}" for opts in cli.OPTIONS.values()
              for n in opts}


@st.composite
def _argv(draw):
    """(argv, expected): expected maps each option to the typed value of
    its last flag, or is None when argv carries exactly one defect."""
    command = draw(st.sampled_from(sorted(cli.OPTIONS)))
    options = {**cli._GLOBALS, **cli.OPTIONS[command]}
    flag = {f"--{n.replace('_', '-')}": n for n in options}
    groups, expected = [], dict.fromkeys(options)
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(sorted(options)))
        typ = options[name][0]
        text = draw(_TEXT[typ])
        f = f"--{name.replace('_', '-')}"
        # a separate value may not start with "-" unless it is a number;
        # the = form carries any text
        if text.startswith("-") or draw(st.booleans()):
            groups.append([f"{f}={text}"])
        else:
            groups.append([f, text])
        expected[name] = typ(text)
    defect = draw(st.sampled_from([None, "unknown", "prefix", "missing",
                                   "value", "extra", "command"]))
    if defect == "unknown":
        groups.append([draw(st.sampled_from(
            sorted(_ALL_FLAGS - set(flag)) + ["--threads", "--"])), "1"])
    elif defect == "prefix":
        f = draw(st.sampled_from(sorted(flag)))
        cut = f[:draw(st.integers(3, len(f) - 1))] if len(f) > 3 else "--x"
        groups.append([cut if cut not in flag else "--x", "1"])
    elif defect == "value":
        typed = sorted(n for n in options if options[n][0] in _BAD_TEXT)
        name = draw(st.sampled_from(typed))
        groups.append([f"--{name.replace('_', '-')}="
                       f"{draw(st.sampled_from(_BAD_TEXT[options[name][0]]))}"])
    elif defect == "extra":
        groups.append([draw(st.sampled_from(["x", "lc", "0.5"]))])
    where = draw(st.integers(0, len(groups)))
    if defect != "command":
        groups.insert(where, [command])
    argv = [token for group in groups for token in group]
    if defect == "missing":
        argv.append(draw(st.sampled_from(sorted(flag))))
    return argv, None if defect else expected


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_parse_argv_types_every_drawn_option_or_raises(case):
    argv, expected = case
    if expected is None:
        with pytest.raises(CliError):
            parse_argv(argv)
        return
    args = parse_argv(argv)
    got = {name: getattr(args, name) for name in expected}
    # repr compares NaN equal to NaN
    assert args.command in argv and repr(got) == repr(expected)


# every subcommand with only its required flags, so every default is read;
# sha256 of the whole stdout, comment lines included
_DEFAULT_RUNS = {
    "bootstrap --model fa2 --n 4 --q 0.3":
        "7ab94153ffaa63fc6e81c61381d9270134ee767193fd3f232b662425c3a1d3ef",
    "qc --model fa1 --n 4":
        "cccf552a3ac778925e692b31593e475e806638536de96e4faaf27696040083e1",
    "lc --model fa2 --q 0.5":
        "d9b181419c79515ba9c862833e60cac92146939d62b31a57e1451795b838b56e",
    "sim --model east --n 4 --q 0.5 --tmax 1":
        "2ee37f519bb9c332a48f8ab8b966947819029417b9b25107fb05a8be3b64d501",
    "gap --model east --dims 4 --q 0.3":
        "d6191fc7bdfd8bdd79266cee0133f0eb6688523f5febd6cdecb4103b70eed12b",
    "blocks --model fa2 --q 0.3 --A 3.5 --dims 3,3":
        "fff17f3912df902573c9f7a8b62d886694da3dd14051f262786a850408000a0a",
    "blocks --model gg --q 0.4 --A 2":
        "7c3972a584a70ae5ab9a355b7640f57d7e2f00a158105156137e8b89db71e16a",
    "paths --model fa2 --mode A --dims 3,3 --q 0.3":
        "30034eafe6a06812c83d48e80284e475cfb34149e2fb970a20fe30cc4b6f9ee3",
    "perc --p 0.2":
        "d1b27d8405483e1623b95ed7d14abc72b2881c9fd2cd46717d21eb2f001d8f05",
}
_EVENT_LOG_DIGEST = (
    "a25b904d44f713920657e03ae83351ddc50455ba65370ea4ec4b88f2332e1ddf")
# 11,849 records in one run: the compiled log doubles four times
_LONG_EVENT_LOG_DIGEST = (
    "8c45bfcb05d938da952ce6882be4d5b663a7463167cc93753bb06b20d7f5f154")


@pytest.mark.usefixtures("each_kernels")
def test_default_runs_are_pinned(capsys):
    for argv, digest in _DEFAULT_RUNS.items():
        assert main(argv.split()) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.usefixtures("each_kernels")
def test_event_log_bytes_are_pinned(tmp_path):
    events = tmp_path / "run.events"
    rc, _ = run(tmp_path, "sim", "--model", "fa1", "--d", "1", "--n", "8",
                "--q", "0.5", "--tmax", "5", "--replicas", "2", "--seed",
                "4", "--events", str(events))
    assert rc == 0
    blob = events.read_bytes()
    assert len(blob) == 17 * 13
    assert hashlib.sha256(blob).hexdigest() == _EVENT_LOG_DIGEST


@pytest.mark.usefixtures("each_kernels")
def test_long_event_log_bytes_are_pinned(tmp_path):
    events = tmp_path / "run.events"
    rc, _ = run(tmp_path, "sim", "--model", "fa1", "--d", "2", "--n", "8",
                "--q", "0.5", "--tmax", "200", "--replicas", "1", "--seed",
                "4", "--events", str(events))
    assert rc == 0
    blob = events.read_bytes()
    assert len(blob) == 11849 * 13
    assert hashlib.sha256(blob).hexdigest() == _LONG_EVENT_LOG_DIGEST


# one run of each subcommand, writing its CSV (and sim its event log) into
# {tmp}, and one run reading a config file
_EVERY_COMMAND_TO_FILES = [
    ("bootstrap --model fa2 --n 4 --q 0.3 --replicas 5 --out {tmp}/b.csv", 0),
    ("qc --model fa1 --n 4 --replicas 5 --out {tmp}/qc.csv", 0),
    ("lc --model fa2 --q 0.5 --replicas 5 --n-max 16 --out {tmp}/lc.csv", 0),
    ("sim --model east --n 4 --q 0.5 --tmax 1 --replicas 2 --out "
     "{tmp}/sim.csv --events {tmp}/sim.events", 0),
    ("gap --model east --dims 4 --q 0.3 --out {tmp}/gap.csv", 0),
    ("blocks --model fa2 --q 0.3 --A 3.5 --dims 3,3 --replicas 5 --out "
     "{tmp}/blocks.csv", 0),
    ("paths --model fa2 --mode A --dims 3,3 --q 0.3 --samples 2 --out "
     "{tmp}/paths.csv", 0),
    ("perc --p 0.2 --nmax 3 --replicas 5 --out {tmp}/perc.csv", 0),
    ("qc --config {tmp}/qc.cfg --out {tmp}/qc2.csv", 0),
]

# (module, runs): a fresh interpreter imports kcmkit.cli, makes each run
# (argv text, exit code) through cli.main, and after each finds the module
# unloaded
_UNLOADED = [
    # scipy.sparse.linalg costs about 0.3 s of import; no command imports
    # scipy, and the sparse eigensolve (32,767 states) loads only scipy's
    # ARPACK library, from its file
    ("scipy", [
        ("bootstrap --model fa2 --n 4 --q 0.3 --replicas 5", 0),
        ("qc --model fa1 --n 4 --replicas 5", 0),
        ("lc --model fa2 --q 0.5 --replicas 5 --n-max 16", 0),
        ("sim --model east --n 4 --q 0.5 --tmax 1 --replicas 2", 0),
        ("blocks --model fa2 --q 0.3 --A 3.5 --dims 3,3 --replicas 5", 0),
        ("paths --model fa2 --mode A --dims 3,3 --q 0.3 --samples 2", 0),
        ("perc --p 0.2 --nmax 3 --replicas 5", 0),
        ("gap --model east --d 1 --dims 10 --q 0.3", 0),
        ("gap --model fa1 --d 2 --dims 3,5 --q 0.3", 0)]),
    # argparse, with gettext and the parsers it built, cost about 9 ms of
    # every command; the option tables are read directly
    ("argparse", [("-h", 0), ("perc --help", 0),
                  ("perc --p 0.2 --nmax 3 --replicas 5", 0),
                  ("lc --n 5", 2)]),
    # np.median imports numpy.ma, about 15 ms, on its first call
    ("numpy.ma", [("sim --model east --n 4 --q 0.5 --tmax 1 --replicas 3", 0),
                  ("qc --model fa1 --n 4 --replicas 6", 0)]),
    # hashlib imports _hashlib, which maps OpenSSL's libcrypto: about 3.5 MB
    # of peak RSS for the one digest of the config line
    ("hashlib", _EVERY_COMMAND_TO_FILES),
    ("_hashlib", _EVERY_COMMAND_TO_FILES),
]


@pytest.mark.parametrize("module,runs", _UNLOADED,
                         ids=[module for module, _ in _UNLOADED])
def test_commands_leave_module_unloaded(tmp_path, module, runs):
    (tmp_path / "qc.cfg").write_text("model = fa1\nn = 4\nreplicas = 5\n")
    runs = [([t.format(tmp=tmp_path) for t in text.split()], rc)
            for text, rc in runs]
    code = "\n".join([
        "import sys",
        "from kcmkit.cli import main",
        f"for argv, rc in {runs!r}:",
        "    assert main(argv) == rc, argv",
        f"    assert {module!r} not in sys.modules, argv",
    ])
    _assert_runs_alone(code)


def test_config_hash_falls_back_to_hashlib_with_the_same_bytes():
    # with the builtin modules blocked, the import falls back to hashlib;
    # the header, config line included, keeps every byte
    code = "\n".join([
        "import sys",
        "for name in sys.argv[1:]:",
        "    sys.modules[name] = None",
        "from kcmkit.cli import main",
        "assert main('gap --model east --dims 4 --q 0.3'.split()) == 0",
        "assert ('hashlib' in sys.modules) == bool(sys.argv[1:])",
    ])
    lean = _run_alone(["-c", code])
    fallback = _run_alone(["-c", code, "_sha2", "_sha256"])
    assert lean.returncode == 0, lean.stderr
    assert fallback.returncode == 0, fallback.stderr
    assert "# config=" in lean.stdout
    assert fallback.stdout == lean.stdout


def _run_alone(argv, **kwargs) -> subprocess.CompletedProcess:
    """Run python with `argv` in a fresh interpreter that imports kcmkit
    from src/."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, **kwargs)


def _assert_runs_alone(code: str) -> None:
    proc = _run_alone(["-c", code])
    assert proc.returncode == 0, proc.stderr


# per option kind, two texts with different typed values
_TWO_TEXTS = {int: ("5", "6"), float: ("2.5", "3.5"), str: ("x", "y"),
              cli._grid: ("0.3", "0.4"), cli._dims: ("3,3", "4,4"),
              cli._flag: ("0", "1")}


def _config_line(capsys, argv) -> str:
    """The `# config=` line of a run of argv, resolved but not executed."""
    args = parse_argv(argv)
    cli._resolve(args)
    cli.emit_csv(args, ["h"], [])
    if args.out is None:
        text = capsys.readouterr().out
    else:
        with open(args.out) as fh:
            text = fh.read()
    return next(l for l in text.splitlines() if l.startswith("# config="))


@pytest.mark.parametrize("command,name", [
    (command, name) for command in cli.OPTIONS
    for name in [*cli.OPTIONS[command], "seed"]])
def test_config_hash_covers_every_option(tmp_path, capsys, command, name):
    # the hash reads the option table, so no option can be left out of it
    base = [command]
    for opt, (typ, default) in cli.OPTIONS[command].items():
        if default is cli.REQUIRED:
            base += [f"--{opt.replace('_', '-')}", _TWO_TEXTS[typ][0]]
    options = {**cli._GLOBALS, **cli.OPTIONS[command]}
    resolved = parse_argv(base)
    cli._resolve(resolved)
    other = next(t for t in _TWO_TEXTS[options[name][0]]
                 if options[name][0](t) != getattr(resolved, name))
    flag = f"--{name.replace('_', '-')}"
    line = _config_line(capsys, base)
    assert _config_line(capsys, [*base, f"{flag}={other}"]) != line
    # --out and --config only name files
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert _config_line(capsys, [*base, "--config", str(empty)]) == line
    assert _config_line(capsys, [*base, "--out",
                                 str(tmp_path / "a.csv")]) == line


def test_readme_cli_examples_parse():
    # every `kcm ...` line of the README's code blocks names real options
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = [l.split() for l in fh if l.startswith("kcm ")]
    for argv in lines:
        args = parse_argv(argv[1:])
        cli._resolve(args)
    assert {argv[1] for argv in lines} == set(cli.OPTIONS)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = fa2\nn = 6  # grid side\nq = 0.4\n"
                   "replicas = 100\n")
    assert read_config_file(str(cfg)) == {
        "model": "fa2", "n": "6", "q": "0.4", "replicas": "100"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(str(bad))


# ------------------------------------------------------------- determinism


def test_bootstrap_byte_identical(tmp_path):
    argv = ["bootstrap", "--model", "fa2", "--n", "8", "--q", "0.4",
            "--seed", "1", "--replicas", "300"]
    rc1, a = run(tmp_path, *argv)
    rc2, b = run(tmp_path, *argv)
    assert rc1 == rc2 == 0
    assert a == b
    assert "# seed=1" in a and "# version=kcmkit-" in a and "# config=" in a


def test_global_flags_work_in_both_positions(tmp_path):
    rc1, a = run(tmp_path, "--seed", "2", "bootstrap", "--model", "fa2",
                 "--n", "6", "--q", "0.3", "--replicas", "200")
    rc2, b = run(tmp_path, "bootstrap", "--model", "fa2", "--n", "6",
                 "--q", "0.3", "--replicas", "200", "--seed", "2")
    assert rc1 == rc2 == 0 and a == b


def test_q_grid_expands_with_seed_offsets(tmp_path):
    rc, text = run(tmp_path, "bootstrap", "--model", "fa2", "--n", "6",
                   "--q", "0.2,0.3,0.4", "--seed", "5", "--replicas", "100")
    assert rc == 0
    header, rows = rows_of(text)
    assert [r["q"] for r in rows] == ["0.2", "0.3", "0.4"]
    assert [r["seed"] for r in rows] == ["5", "6", "7"]
    hats = [float(r["p_hat"]) for r in rows]
    assert hats == sorted(hats)


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = fa2\nn = 6\nq = 0.4\nreplicas = 200\n")
    rc1, a = run(tmp_path, "bootstrap", "--config", str(cfg))
    rc2, b = run(tmp_path, "bootstrap", "--config", str(cfg),
                 "--q", "0.2")
    assert rc1 == rc2 == 0
    assert rows_of(a)[1][0]["q"] == "0.4"
    assert rows_of(b)[1][0]["q"] == "0.2"


def test_config_file_sets_seed_and_out(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "cfg.csv"
    cfg.write_text(f"model = fa2\nn = 6\nq = 0.4\nreplicas = 100\n"
                   f"seed = 7\nout = {out}\n")
    assert main(["bootstrap", "--config", str(cfg)]) == 0
    text = out.read_text()
    assert "# seed=7" in text and rows_of(text)[1][0]["seed"] == "7"
    rc, flags = run(tmp_path, "bootstrap", "--model", "fa2", "--n", "6",
                    "--q", "0.4", "--replicas", "100", "--seed", "7")
    assert rc == 0 and text == flags
    rc, text = run(tmp_path, "--seed", "3", "bootstrap", "--config", str(cfg))
    assert rc == 0
    assert "# seed=3" in text and rows_of(text)[1][0]["seed"] == "3"


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = fa2\nn = 6\nq = 0.4\nwibble = 3\n")
    rc, text = run(tmp_path, "bootstrap", "--config", str(cfg))
    assert rc == 2 and text is None


def test_config_file_refuses_command_key(tmp_path, capsys):
    # the command comes from argv alone; a file naming another is an error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = qc\nmodel = fa2\nn = 6\nq = 0.4\n")
    rc, text = run(tmp_path, "bootstrap", "--config", str(cfg))
    assert rc == 2 and text is None
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]
    assert capsys.readouterr().err == (
        "error: config key 'command' is not an option of 'bootstrap'\n")


def test_config_file_bad_value_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = fa2\nn = six\nq = 0.4\n")
    rc, text = run(tmp_path, "bootstrap", "--config", str(cfg))
    assert rc == 2 and text is None
    assert capsys.readouterr().err == (
        "error: config key 'n': expected int, got 'six'\n")


# ----------------------------------------------------------------- failures


def test_invalid_k_exits_nonzero_without_output(tmp_path):
    rc, text = run(tmp_path, "bootstrap", "--model", "fa9", "--n", "8",
                   "--q", "0.4")
    assert rc == 2
    assert text is None
    assert not (tmp_path / "out.csv.tmp").exists()


def test_missing_required_flag_exits_nonzero(tmp_path):
    rc, text = run(tmp_path, "bootstrap", "--model", "fa2", "--q", "0.4")
    assert rc == 2 and text is None


def test_bad_q_exits_nonzero(tmp_path):
    rc, text = run(tmp_path, "bootstrap", "--model", "fa2", "--n", "6",
                   "--q", "1.5")
    assert rc == 2 and text is None


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_paths_without_samples_exits_nonzero(tmp_path, capsys, samples):
    rc, text = run(tmp_path, "paths", "--model", "fa2", "--mode", "A",
                   "--dims", "3,3", "--q", "0.3", "--samples", samples)
    assert rc == 2 and text is None
    assert capsys.readouterr().err == "error: --samples must be >= 1\n"


def test_lc_with_n_max_zero_exits_nonzero(tmp_path, capsys):
    rc, text = run(tmp_path, "lc", "--model", "fa2", "--q", "0.5",
                   "--replicas", "5", "--n-max", "0")
    assert rc == 2 and text is None
    assert capsys.readouterr().err == "error: n_max must be >= 1, got 0\n"


_SIM4 = ["sim", "--model", "east", "--n", "4", "--q", "0.5", "--replicas", "2"]


@pytest.mark.parametrize("argv,message", [
    # an infinite horizon never ends the event loop
    ([*_SIM4, "--tmax", "inf", "--variant", "first_legal"],
     "t_max must be in (0, inf), got inf"),
    ([*_SIM4, "--tmax", "inf", "--events", "run.events"],
     "t_max must be in (0, inf), got inf"),
    # a NaN or infinite tol never ends the bisection, or never starts it
    (["qc", "--model", "fa1", "--n", "4", "--replicas", "5", "--tol", "nan"],
     "tol must be positive and finite, got nan"),
    (["qc", "--model", "fa1", "--n", "4", "--replicas", "5", "--tol", "inf"],
     "tol must be positive and finite, got inf"),
    (["blocks", "--model", "fa2", "--q", "0.3", "--A", "nan", "--dims", "3,3",
      "--replicas", "5"], "A must be positive and finite, got nan"),
    (["blocks", "--model", "fa2", "--q", "0.3", "--A", "inf"],
     "A must be positive and finite, got inf"),
], ids=["sim-inf-tmax", "sim-inf-tmax-events", "qc-nan-tol", "qc-inf-tol",
        "blocks-nan-A", "blocks-inf-A"])
def test_non_finite_values_exit_2_without_files(tmp_path, capsys,
                                                monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out.csv"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_qc_tol_below_float_spacing_returns(tmp_path):
    # near the threshold lo and hi become neighbouring floats, closer than
    # the bisection can halve; a tol below their spacing must still stop it
    proc = _run_alone(["-m", "kcmkit.cli", "qc", "--model", "fa1", "--n",
                       "4", "--replicas", "2", "--tol", "1e-17"],
                      cwd=tmp_path, timeout=20)
    assert proc.returncode == 0, proc.stderr
    _, rows = rows_of(proc.stdout)
    assert len(rows) == 1 and 0.0 < float(rows[0]["q"]) < 1.0
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,message", [
    (["blocks", "--model", "fakf", "--k", "4", "--d", "2", "--q", "0.3",
      "--A", "3", "--ell", "4"],
     "fakf blocks need 3 <= k <= 2d - 1, got k=4, d=2"),
    (["gap", "--model", "east", "--dims", "4", "--q", "1e-320"],
     "q=1e-320 underflows the stationary weights of the class to 0; q is "
     "too close to 0 or 1"),
    # the true gaps are about 1e-18 and 1e-200: roundoff, not a gap, comes
    # out of the eigensolve
    (["gap", "--model", "east", "--dims", "4", "--q", "1e-9"],
     "the gap at q=1e-09 is below 1e-12, where the eigensolve cannot tell "
     "it from 0"),
    (["gap", "--model", "east", "--dims", "4", "--q", "0.3,1e-100"],
     "the gap at q=1e-100 is below 1e-12, where the eigensolve cannot tell "
     "it from 0"),
    # the east site's one rule reads the occupied outside: nothing flips
    (["gap", "--model", "east", "--d", "1", "--dims", "1", "--q", "0.3"],
     "the class of the all-empty state on dims 1 holds one state: no site "
     "can flip, so it has no gap"),
    (["blocks", "--model", "fa2", "--q", "1e-300", "--A", "3.5"],
     "--q 1e-300 and --A 3.5 give a block of more than the 2^24 sites a "
     "block holds; raise --q or lower --A"),
    (["blocks", "--model", "fa2", "--q", "0.3", "--A", "3.5", "--dims",
      "4097,4096", "--replicas", "1"],
     "a block holds at most 2^24 sites, got 4097x4096"),
    (["bootstrap", "--model", "fa2", "--n", "4", "--q", "0.3", "--replicas",
      "10000000000000000000000"],
     "--replicas must be at most 2^64, the number of distinct replica ids, "
     "got 10000000000000000000000"),
], ids=["blocks-fakf-k-past-2d-1", "gap-subnormal-q", "gap-degenerate-1e-9",
        "gap-degenerate-1e-100", "gap-one-state-class",
        "blocks-q-A-past-site-cap",
        "blocks-dims-past-site-cap", "bootstrap-replicas-past-id-space"])
def test_bad_value_exits_2_with_one_line(tmp_path, argv, message):
    # in a fresh interpreter, so that a warning NumPy prints reaches stderr
    proc = _run_alone(["-m", "kcmkit.cli", *argv, "--out", "out.csv"],
                      cwd=tmp_path, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["--model", "fa2", "--q", "0.05", "--A", "3.5", "--replicas", "2"],
    ["--model", "fakf", "--k", "3", "--d", "3", "--q", "0.3", "--A", "3",
     "--ell", "4", "--replicas", "2"],
], ids=["fa2-209x209", "fakf-16x16x16"])
def test_blocks_bound_past_float_range_is_inf(tmp_path, argv):
    # (2/q)^|seed set| overflows a float on these blocks
    rc, text = run(tmp_path, "blocks", *argv)
    assert rc == 0
    row = rows_of(text)[1][0]
    assert row["lambda_mode"] == "bound"
    assert row["lambda_phi"] == "inf"


@pytest.mark.parametrize("argv", [
    ["blocks", "--model", "gg", "--q", "0.3", "--A", "3", "--dims", "1,4",
     "--replicas", "5"],
    ["paths", "--model", "gg", "--mode", "A", "--dims", "1,4", "--q", "0.3",
     "--samples", "2"],
], ids=["blocks", "paths"])
def test_gg_block_of_one_column_exits_2_without_files(tmp_path, capsys,
                                                      argv):
    rc, text = run(tmp_path, *argv)
    assert rc == 2 and text is None
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err == (
        "error: gg blocks need at least 2 columns, got width 1\n")


def test_threads_flag_is_gone(tmp_path):
    for argv in (["--threads", "2", "bootstrap"],
                 ["bootstrap", "--threads", "2"]):
        assert main([*argv, "--model", "fa2", "--n", "6", "--q", "0.4",
                     "--replicas", "100", "--out",
                     str(tmp_path / "out.csv")]) == 2
        assert os.listdir(tmp_path) == []


def test_unwritable_out_leaves_no_partials(tmp_path):
    rc = main(["bootstrap", "--model", "fa2", "--n", "6", "--q", "0.4",
               "--replicas", "100", "--out",
               str(tmp_path / "nodir" / "out.csv")])
    assert rc == 2
    assert os.listdir(tmp_path) == []


# Runs the CLI under a 1 GiB address-space cap, so that a box which slips
# past the size check fails fast with MemoryError instead of allocating
# tens of gigabytes.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from kcmkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("n", [46341, 60000])
def test_box_past_int32_tables_exits_2_before_allocating(tmp_path, n):
    # n^2 > 2^31 - 1 sites: the int32 tables cannot hold the pad index
    out = tmp_path / "out.csv"
    proc = _run_alone(["-c", _CAPPED, "bootstrap", "--model", "fa2", "--n",
                       str(n), "--q", "0.1", "--replicas", "1", "--out",
                       str(out)], timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: a box of {n * n} sites is too large: "
                           f"site indices and the pad index are int32, so a "
                           f"box holds at most 2^31 - 1 = 2147483647 sites\n")
    assert proc.stdout == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,asked", [
    (["perc", "--p", "0.2", "--nmax", "40"],
     "8.00 TiB for an array with shape (1099511627776,) and data type "
     "uint64"),
    (["bootstrap", "--model", "fa2", "--n", "46340", "--q", "0.1",
      "--replicas", "1"],
     "8.00 GiB for an array with shape (2147395600,) and data type int32"),
], ids=["perc-nmax-40-keys", "bootstrap-46340-tables"])
def test_out_of_memory_exits_2_with_one_line(tmp_path, argv, asked):
    # each box fits the int32 tables, but not 1 GiB of memory
    out = tmp_path / "out.csv"
    proc = _run_alone(["-c", _CAPPED, *argv, "--out", str(out)], timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"error: out of memory: Unable to allocate {asked}\n"
    assert os.listdir(tmp_path) == []


def test_bare_memory_error_is_named(tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError
    monkeypatch.setitem(cli._COMMANDS, "lc", exhausted)
    assert run(tmp_path, "lc", "--model", "fa1", "--q", "0.2") == (2, None)
    assert capsys.readouterr().err == "error: out of memory\n"


# -------------------------------------------------------------- subcommands


def test_qc_and_lc_rows(tmp_path):
    rc, text = run(tmp_path, "qc", "--model", "fa1", "--d", "1", "--n", "8",
                   "--replicas", "100", "--tol", "0.002", "--seed", "3")
    assert rc == 0
    _, rows = rows_of(text)
    assert rows[0]["model"] == "fa_1f_d1"
    assert 0.0 < float(rows[0]["q"]) < 1.0

    rc, text = run(tmp_path, "lc", "--model", "fa1", "--d", "1",
                   "--q", "0.2", "--replicas", "100", "--seed", "3")
    assert rc == 0
    _, rows = rows_of(text)
    assert int(float(rows[0]["lc_hat"])) >= 1


def test_sim_rows_and_event_log(tmp_path):
    events = tmp_path / "run.events"
    rc, text = run(tmp_path, "sim", "--model", "fa1", "--d", "1",
                   "--n", "8", "--q", "0.5", "--tmax", "20",
                   "--replicas", "4", "--seed", "4",
                   "--events", str(events))
    assert rc == 0
    header, rows = rows_of(text)
    assert header[:5] == ["model", "dims", "q", "tmax", "seed"]
    assert len(rows) == 4
    assert [r["replica"] for r in rows] == ["0", "1", "2", "3"]
    times = kcm.read_event_log(str(events))["t"]
    assert len(times) > 0
    assert np.all(np.diff(times) >= 0)


def test_sim_empty_start_event_log_replays_from_the_empty_grid(tmp_path):
    events = tmp_path / "run.events"
    rc, text = run(tmp_path, "sim", "--model", "fa2", "--n", "5", "--q",
                   "0.3", "--tmax", "4", "--replicas", "2", "--seed", "8",
                   "--start", "empty", "--events", str(events))
    assert rc == 0
    assert [r["tau0"] for r in rows_of(text)[1]] == ["0.0", "0.0"]
    log = kcm.read_event_log(str(events))
    fam, geom = make_family("fa_kf", d=2, k=2), Geometry((5, 5), torus=True)
    empty = Configuration.fully_empty(geom)
    want = kcm.simulate_kcm(kcm.KcmParams(fam, 0.3, geom, 4.0, 8), empty,
                            log_events=True)
    assert len(log) > 0 and log.tobytes() == want.events.tobytes()
    # every event is a legal resample of the grid it finds
    cfg = empty.copy()
    for v, s in zip(log["v"].tolist(), log["s"].tolist()):
        assert constraint_satisfied(cfg, fam, v)
        cfg.bits[v] = s
    assert cfg == want.final


def test_sim_initial_grid_checked_before_any_output(tmp_path):
    base = ["sim", "--model", "fa1", "--d", "1", "--n", "8", "--q", "0.5",
            "--tmax", "5", "--replicas", "2", "--seed", "4"]
    events = tmp_path / "run.events"
    grids = {}
    for name, dims, torus in (("short", (6,), True), ("free", (8,), False),
                              ("right", (8,), True)):
        grids[name] = str(tmp_path / f"{name}.grid")
        write_grid(Configuration.fully_empty(Geometry(dims, torus=torus)),
                   grids[name])
    for extra in (["--events", str(events), "--initial",
                   str(tmp_path / "missing.grid")],
                  ["--events", str(events), "--initial", grids["short"]],
                  ["--events", str(events), "--initial", grids["free"]],
                  ["--initial", grids["right"]]):
        rc, text = run(tmp_path, *base, *extra)
        assert rc == 2 and text is None, extra
        assert not events.exists()
    rc, text = run(tmp_path, *base, "--events", str(events),
                   "--initial", grids["right"])
    assert rc == 0 and events.exists()


def test_sim_events_in_missing_dir_leaves_no_out(tmp_path):
    rc, text = run(tmp_path, "sim", "--model", "fa1", "--d", "1", "--n", "8",
                   "--q", "0.5", "--tmax", "5", "--replicas", "2",
                   "--events", str(tmp_path / "nodir" / "run.events"))
    assert rc == 2 and text is None
    assert os.listdir(tmp_path) == []


def test_sim_out_in_missing_dir_leaves_no_events(tmp_path):
    events = tmp_path / "run.events"
    rc = main(["sim", "--model", "fa1", "--d", "1", "--n", "8", "--q", "0.5",
               "--tmax", "5", "--replicas", "2", "--events", str(events),
               "--out", str(tmp_path / "nodir" / "out.csv")])
    assert rc == 2
    assert os.listdir(tmp_path) == []


def test_gap_matches_direct_call(tmp_path):
    rc, text = run(tmp_path, "gap", "--model", "east", "--d", "1",
                   "--dims", "4", "--q", "0.3")
    assert rc == 0
    _, rows = rows_of(text)
    gen = spectral.build_generator(Geometry((4,)), make_family("east", 1),
                                   0.3)
    assert float(rows[0]["t_rel"]) == pytest.approx(
        relaxation_time_from_gap(*spectral.spectral_gap(gen)))
    assert int(rows[0]["class_size"]) == gen.size


def test_blocks_matches_direct_call(tmp_path):
    rc, text = run(tmp_path, "blocks", "--model", "fa2", "--q", "0.4",
                   "--A", "1.0", "--dims", "3,3", "--replicas", "500",
                   "--seed", "5")
    assert rc == 0
    _, rows = rows_of(text)
    spec = blocks.BlockSpec("fa2", (3, 3), 0.4, 1.0)
    probs = blocks.estimate_block_probs(spec, 500, 5)
    assert float(rows[0]["p1"]) == pytest.approx(probs.p1.value)
    assert rows[0]["p2_mode"] == probs.p2_mode
    assert float(rows[0]["condition_value"]) == pytest.approx(
        probs.condition_value)


def test_blocks_p2_mode_reaches_the_row(tmp_path):
    argv = ["blocks", "--model", "fa2", "--q", "0.4", "--A", "1.0",
            "--dims", "3,3", "--replicas", "300", "--seed", "5"]
    rc, text = run(tmp_path, *argv, "--p2-mode", "guess")
    assert rc == 2 and text is None
    rc, text = run(tmp_path, *argv, "--p2-mode", "mc")
    assert rc == 0
    row = rows_of(text)[1][0]
    probs = blocks.estimate_block_probs(
        blocks.BlockSpec("fa2", (3, 3), 0.4, 1.0), 300, 5, p2_mode="mc")
    assert row["p2_mode"] == "mc"
    assert float(row["p2"]) == probs.p2_value
    rc, text = run(tmp_path, *argv)
    assert rc == 0 and rows_of(text)[1][0]["p2_mode"] == "exact"


def test_blocks_fakf_k_defaults_to_3(tmp_path):
    argv = ["blocks", "--model", "fakf", "--q", "0.3", "--A", "1.0",
            "--dims", "3,3,3", "--replicas", "100", "--seed", "2"]
    rc1, a = run(tmp_path, *argv)
    rc2, b = run(tmp_path, *argv, "--k", "3")
    assert rc1 == rc2 == 0
    assert rows_of(a) == rows_of(b)


def test_blocks_degenerate_dims_flagged(tmp_path):
    rc, text = run(tmp_path, "blocks", "--model", "fa2", "--q", "0.9",
                   "--A", "0.1")
    assert rc == 2 and text is None


def test_paths_csv_reports_family_congestion(tmp_path):
    rc, text = run(tmp_path, "paths", "--model", "fa2", "--mode", "B",
                   "--dims", "4,4", "--q", "0.4", "--samples", "40",
                   "--seed", "6")
    assert rc == 0
    _, rows = rows_of(text)
    row = rows[0]
    assert row["mode"] == "B" and row["dims"] == "4x4"
    assert int(row["max_len"]) <= 16 * 4 * 4 * 8
    assert row["rho_mode"] == "exact"
    assert float(row["rho"]) >= 1.0

    rc, text = run(tmp_path, "paths", "--model", "gg", "--mode", "A",
                   "--dims", "6,4", "--q", "0.4", "--samples", "20",
                   "--seed", "7")
    assert rc == 0
    _, rows = rows_of(text)
    assert int(rows[0]["max_len"]) % 2 == 1


def test_perc_rows_carry_fit(tmp_path):
    rc, text = run(tmp_path, "perc", "--p", "0.2", "--nmax", "4",
                   "--replicas", "400", "--seed", "8")
    assert rc == 0
    _, rows = rows_of(text)
    assert [r["n"] for r in rows] == ["1", "2", "3", "4"]
    assert [r["ell_n"] for r in rows] == ["2", "4", "8", "16"]
    m = {float(r["m_hat"]) for r in rows}
    assert len(m) == 1 and m.pop() > 0
    for r in rows:
        assert float(r["ci_lo"]) <= float(r["failure"]) <= float(r["ci_hi"])
