"""The summary of scripts/ab_bench.py, on made-up runs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "scripts" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

END_TO_END = [
    {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.25},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
]


def _runs(op_s, rows_per_s):
    return [
        {"op_s": {"value": a, "unit": "s"}, "rows_per_s": {"value": b, "unit": "rows/s"}}
        for a, b in zip(op_s, rows_per_s)
    ]


def test_quartiles():
    assert ab_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_by_the_metric_direction():
    parent = _runs([0.50, 0.52, 0.54, 0.56, 0.58], [100, 100, 100, 100, 100])
    change = _runs([0.40, 0.41, 0.42, 0.60, 0.44], [90, 90, 110, 90, 90])
    rows = {r["name"]: r for r in ab_bench.summarize(END_TO_END, parent, change)}
    assert set(rows) == {"op_s", "rows_per_s"}  # metrics the runs lack are skipped
    op = rows["op_s"]
    assert op["wins"] == 4 and op["pairs"] == 5
    assert op["parent"] == pytest.approx((0.52, 0.54, 0.56))
    assert op["change"] == pytest.approx((0.41, 0.42, 0.44))
    assert not op["clear"]  # 4 of 5 is below 9 in 10
    assert rows["rows_per_s"]["wins"] == 1 and not rows["rows_per_s"]["clear"]


def test_clear_needs_nine_in_ten_and_a_median_gap_beyond_the_parent_spread():
    parent = _runs([1.0 + 0.01 * i for i in range(10)], [1.0] * 10)
    ahead = _runs([0.5 + 0.01 * i for i in range(10)], [2.0] * 10)
    rows = {r["name"]: r for r in ab_bench.summarize(END_TO_END, parent, ahead)}
    assert rows["op_s"]["clear"] and rows["rows_per_s"]["clear"]

    # Every pair won, but by less than the parent's interquartile range.
    close = _runs([0.999 + 0.01 * i for i in range(10)], [1.0] * 10)
    rows = {r["name"]: r for r in ab_bench.summarize(END_TO_END, parent, close)}
    assert rows["op_s"]["wins"] == 10 and not rows["op_s"]["clear"]
    assert rows["rows_per_s"]["wins"] == 0  # a tie is not a win


def test_format_rows_prints_every_metric():
    parent = _runs([1.0, 1.1], [5.0, 6.0])
    text = ab_bench.format_rows(ab_bench.summarize(END_TO_END, parent, parent))
    assert text.count("\n") == 2 and "op_s" in text and "rows_per_s" in text
