"""The summary rules of ``scripts/bench_pairs.py``, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_METRICS = [{"name": "norm_cpu_s", "unit": "s", "better": "lower"},
            {"name": "rate", "unit": "1/s", "better": "higher"}]


def _runs(pairs):
    """Runs from ``(parent, change)`` values of both metrics, the rate
    being the reciprocal of the time."""
    def result(v):
        return {"correct": True, "metrics": {
            "norm_cpu_s": {"value": v, "unit": "s"},
            "rate": {"value": 1.0 / v, "unit": "1/s"}}}
    return [{"parent": result(p), "change": result(c)} for p, c in pairs]


def test_clear_win_meets_the_claim_rule_in_both_directions():
    pairs = [(5.8 + 0.01 * i, 5.4 + 0.01 * i) for i in range(10)]
    time_row, rate_row = bench_pairs.summarize(_runs(pairs), _METRICS)
    for row in (time_row, rate_row):
        assert row["pairs"] == 10 and row["wins"] == 10 and row["claim"]
    assert time_row["parent"][1] == pytest.approx(5.845)
    assert time_row["gap"] == pytest.approx(0.4)
    assert time_row["parent_iqr"] == pytest.approx(0.045)


def test_eight_wins_in_ten_or_a_narrow_gap_do_not():
    # Two losses: 8 of 10 wins, below nine tenths.
    pairs = [(5.8, 5.4)] * 8 + [(5.4, 5.8)] * 2
    (row, _) = bench_pairs.summarize(_runs(pairs), _METRICS)
    assert row["wins"] == 8 and not row["claim"]
    # Every pair won, but by less than the parent's quartile distance.
    pairs = [(5.0 + 0.1 * i, 4.99 + 0.1 * i) for i in range(10)]
    (row, _) = bench_pairs.summarize(_runs(pairs), _METRICS)
    assert row["wins"] == 10 and not row["claim"]


def test_ties_count_for_neither_side():
    (row, _) = bench_pairs.summarize(_runs([(1.0, 1.0)] * 3), _METRICS)
    assert row["wins"] == 0 and row["gap"] == 0.0 and not row["claim"]


def test_a_pair_with_a_failed_run_is_left_out():
    runs = _runs([(2.0, 1.0), (2.0, 1.0)])
    runs[1]["change"] = {"error": "exit 1: no pass completed"}
    (row, _) = bench_pairs.summarize(runs, _METRICS)
    assert row["pairs"] == 1 and row["parent"] == (2.0, 2.0, 2.0)
    runs[0]["parent"] = {"error": "exit 1"}
    (row, _) = bench_pairs.summarize(runs, _METRICS)
    assert row == {"metric": "norm_cpu_s", "pairs": 0}


@pytest.mark.parametrize("body,cause", [
    ("1 / 0", "ZeroDivisionError"),
    ("import sys; sys.exit('no pass completed')", "no pass completed"),
    ("print('not json')", "no JSON result"),
    ("print('{\"correct\": true}')", None)])
def test_a_failed_run_is_named_by_its_last_stderr_line(tmp_path, body, cause):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body + "\n")
    run = bench_pairs.run_once(tmp_path, "grow-k", 1, 1)
    assert run.get("cause") == cause
    assert ("error" in run) == (cause is not None)


def test_failed_runs_are_counted_per_side_by_cause():
    runs = _runs([(2.0, 1.0)] * 4)
    runs[0]["parent"] = {"error": "exit 1: ZeroDivisionError: float "
                         "division by zero", "cause": "ZeroDivisionError"}
    runs[2]["parent"] = dict(runs[0]["parent"])
    runs[3]["change"] = {"error": "exit 1: x", "cause": "ValueError"}
    got = bench_pairs.failures(runs)
    assert got == {"parent": {"ZeroDivisionError": 2},
                   "change": {"ValueError": 1}}
    assert bench_pairs.failures(_runs([(2.0, 1.0)])) == {"parent": {},
                                                          "change": {}}
