"""tools/bench_record.py reads perfbench/run.py's output and summarizes it:
checked on a canned run output, with no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _result(wall, rss, correct=True):
    metrics = {"wall_s": (wall, "s"), "compute_s": (wall / 4, "s"),
               "setup_s": (0.2, "s"), "peak_rss_mb": (rss, "MB"),
               "ok_frac": (1.0, "ratio"), "spectral.build.states": (5, "count")}
    return json.dumps({"correct": correct, "attempted": 7, "failed": 0,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


# the shape of a traced run's stdout: sessions, counters, timings, env and
# the result object last
TRACED = "\n".join([
    "session 1 run: wall 2.407 s, compute 0.610 s, per call [0.26, 0.65]",
    "session 2 trace: wall 2.501 s, compute 0.640 s, per call [0.27, 0.66]",
    'counters {"sha256": "ed30302bba79fcd3", "spectral.build.states": 33279}',
    'timings {"spectral.build.self_s": 0.031}',
    'env {"kernels": "compiled", "importable": ["compiled", "pure"], '
    '"parity": "pure and compiled CSVs compared"}',
    _result(2.4, 59.5)])


def test_parse_run_reads_env_counters_and_result():
    got = bench_record.parse_run(TRACED + "\n")
    assert got["env"]["kernels"] == "compiled"
    assert got["env"]["parity"] == "pure and compiled CSVs compared"
    assert got["counters"] == {"sha256": "ed30302bba79fcd3",
                               "spectral.build.states": 33279}
    assert got["result"]["correct"] is True
    assert bench_record.end_to_end(got["result"]) == {
        "wall_s": 2.4, "compute_s": 0.6, "setup_s": 0.2,
        "peak_rss_mb": 59.5, "ok_frac": 1.0}


def test_parse_run_untraced_has_no_counters():
    text = "\n".join(["session 1 run: wall 2.4 s", 'env {"kernels": "pure"}',
                      _result(2.4, 61.0)])
    got = bench_record.parse_run(text)
    assert got["counters"] is None and got["env"] == {"kernels": "pure"}
    with pytest.raises(ValueError, match="env"):
        bench_record.parse_run(_result(2.4, 61.0))


@pytest.mark.parametrize("value", [None, "", "0", "1"])
def test_head_records_the_bytecode_variable(value, monkeypatch):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    got = bench_record.head("ab12", 40.0)
    assert got["commit"] == "ab12" and got["parent"] is None
    assert got["command"].endswith("--seconds 40 --trace 0")
    # the record keeps the value as it was, null if unset
    assert json.loads(json.dumps(got))["PYTHONDONTWRITEBYTECODE"] == value


def test_summary_and_pairs_won():
    assert bench_record.summary([3.0]) == {"median": 3.0, "iqr": 0.0}
    # inclusive quartiles of 1..4 are 1.75 and 3.25
    assert bench_record.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5,
                                                          "iqr": 1.5}
    runs = [bench_record.parse_run("\n".join(['env {}', _result(w, r)]))
            for w, r in ((2.0, 59.0), (2.2, 59.1), (2.1, 61.4), (2.3, 61.5))]
    change, parent = bench_record.side(runs[:2]), bench_record.side(runs[2:])
    assert change["correct"] and change["runs"][1]["peak_rss_mb"] == 59.1
    assert change["metrics"]["peak_rss_mb"]["median"] == pytest.approx(59.05)
    won = bench_record.wins(change["runs"], parent["runs"])
    # lower is better but for ok_frac, and a tie counts for neither side
    assert won == {"wall_s": 2, "compute_s": 2, "setup_s": 0,
                   "peak_rss_mb": 2, "ok_frac": 0}
