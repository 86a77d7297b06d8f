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
        "a06a3cd7b6d910c2d354d2e279ed79800516e55b1a1f86d85a55820e216cb54f",
    "qc --model fa1 --n 4":
        "987b42d7ec7d14fc20c81540cb1551ce811d529adf75f5418f60a273054f17a6",
    "lc --model fa2 --q 0.5":
        "90aa8140283b36eb31c4eca0d2c721ab9ae0561aea4259f9922747895d5ae47d",
    "sim --model east --n 4 --q 0.5 --tmax 1":
        "1aa0a101de4c113251183b7b86b1b5611b54c7bb275c3fbfcc68a8bf5b794487",
    "gap --model east --dims 4 --q 0.3":
        "1594abd7b20340b093673ec9a198d1fb88acd7200f5f4ddd6c968c26b0464449",
    "blocks --model fa2 --q 0.3 --A 3.5 --dims 3,3":
        "64f078ff0e3eea5d896db38297b467c549c485bf9fe0955d5eebc3f28c0d6065",
    "blocks --model gg --q 0.4 --A 2":
        "f7e2b003eb4744ccf3846a45db64f9100bf18db046c16c1d3038cf63f87dfdc5",
    "paths --model fa2 --mode A --dims 3,3 --q 0.3":
        "30034eafe6a06812c83d48e80284e475cfb34149e2fb970a20fe30cc4b6f9ee3",
    "perc --p 0.2":
        "d1b27d8405483e1623b95ed7d14abc72b2881c9fd2cd46717d21eb2f001d8f05",
}
_EVENT_LOG_DIGEST = (
    "a25b904d44f713920657e03ae83351ddc50455ba65370ea4ec4b88f2332e1ddf")


def test_default_runs_are_pinned(capsys):
    for argv, digest in _DEFAULT_RUNS.items():
        assert main(argv.split()) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_event_log_bytes_are_pinned(tmp_path):
    events = tmp_path / "run.events"
    rc, _ = run(tmp_path, "sim", "--model", "fa1", "--d", "1", "--n", "8",
                "--q", "0.5", "--tmax", "5", "--replicas", "2", "--seed",
                "4", "--events", str(events))
    assert rc == 0
    blob = events.read_bytes()
    assert len(blob) == 17 * 13
    assert hashlib.sha256(blob).hexdigest() == _EVENT_LOG_DIGEST


def test_only_gap_imports_scipy():
    # scipy.sparse.linalg costs about 0.3 s of import; no command imports
    # scipy, and the sparse eigensolve (32,767 states) loads only scipy's
    # ARPACK library, from its file
    code = "\n".join([
        "import sys",
        "from kcmkit.cli import main",
        "for argv in (",
        "    'bootstrap --model fa2 --n 4 --q 0.3 --replicas 5',",
        "    'qc --model fa1 --n 4 --replicas 5',",
        "    'lc --model fa2 --q 0.5 --replicas 5 --n-max 16',",
        "    'sim --model east --n 4 --q 0.5 --tmax 1 --replicas 2',",
        "    'blocks --model fa2 --q 0.3 --A 3.5 --dims 3,3 --replicas 5',",
        "    'paths --model fa2 --mode A --dims 3,3 --q 0.3 --samples 2',",
        "    'perc --p 0.2 --nmax 3 --replicas 5',",
        "    'gap --model east --d 1 --dims 10 --q 0.3',",
        "    'gap --model fa1 --d 2 --dims 3,5 --q 0.3'):",
        "    assert main(argv.split()) == 0, argv",
        "    assert 'scipy' not in sys.modules, argv",
    ])
    _assert_runs_alone(code)


def test_cli_import_leaves_argparse_unloaded():
    # argparse, with gettext and the parsers it built, cost about 9 ms of
    # every command; the option tables are read directly
    code = "\n".join([
        "import sys",
        "from kcmkit.cli import main",
        "for argv in (['-h'], ['perc', '--help'], ['perc', '--p', '0.2',",
        "             '--nmax', '3', '--replicas', '5'], ['lc', '--n', '5']):",
        "    main(argv)",
        "    assert 'argparse' not in sys.modules, argv",
    ])
    _assert_runs_alone(code)


def test_sim_and_qc_leave_numpy_ma_unloaded():
    # np.median imports numpy.ma, about 15 ms, on its first call
    code = "\n".join([
        "import sys",
        "from kcmkit.cli import main",
        "for argv in (",
        "    'sim --model east --n 4 --q 0.5 --tmax 1 --replicas 3',",
        "    'qc --model fa1 --n 4 --replicas 6'):",
        "    assert main(argv.split()) == 0, argv",
        "    assert 'numpy.ma' not in sys.modules, argv",
    ])
    _assert_runs_alone(code)


def _assert_runs_alone(code: str) -> None:
    """Run `code` in a fresh interpreter that imports kcmkit from src/."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    times, verts, vals = kcm.read_event_log(str(events))
    assert len(times) > 0
    assert np.all(np.diff(times) >= 0)


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
        spectral.relaxation_time(gen))
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
