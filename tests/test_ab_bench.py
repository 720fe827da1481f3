"""The summary of scripts/ab_bench.py, on made-up runs (no benchmark
subprocess), and its copy of the checkout."""

import importlib.util
import json
import os
import subprocess
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


def _one_metric(parent_op_s, change_op_s, parent_rows, change_rows):
    rows = ab_bench.summarize(END_TO_END, _runs(parent_op_s, parent_rows), _runs(change_op_s, change_rows))
    return {r["name"]: r for r in rows}


def test_worse_marks_a_median_that_moved_past_the_bound():
    # Both bounds are 0.25 of the parent median: op_s 1.0 s, rows_per_s 100.
    flat = [1.0] * 5, [100.0] * 5
    cases = [  # change op_s, change rows_per_s, worse?
        (1.25, 75.0, False),  # at the bound
        (1.2500001, 74.99999, True),  # just past it
        (1.2499999, 75.00001, False),  # just inside it
        (0.5, 200.0, False),  # better by far
    ]
    for op_s, rows_per_s, worse in cases:
        rows = _one_metric(flat[0], [op_s] * 5, flat[1], [rows_per_s] * 5)
        assert rows["op_s"]["worse"] is worse and rows["rows_per_s"]["worse"] is worse, (op_s, rows_per_s)
        assert not rows["op_s"]["unresolved"] and rows["op_s"]["bound"] == 0.25


def test_unresolved_marks_a_parent_spread_wider_than_the_bound():
    # Inclusive quartiles of five runs are the second and fourth values.
    for q1, q3, unresolved in [(0.875, 1.125, False), (0.875, 1.126, True), (0.874, 1.125, True),
                               (0.9, 1.1, False)]:
        parent = [q1, q1, 1.0, q3, q3]
        rows = _one_metric(parent, [1.0] * 5, [100.0] * 5, [100.0] * 5)
        assert rows["op_s"]["unresolved"] is unresolved, (q1, q3)
        assert not rows["op_s"]["worse"] and not rows["rows_per_s"]["unresolved"]
    # A wide parent spread does not hide a regression past the bound.
    rows = _one_metric([0.5, 0.5, 1.0, 1.5, 1.5], [2.0] * 5, [100.0] * 5, [100.0] * 5)
    assert rows["op_s"]["unresolved"] and rows["op_s"]["worse"]


def test_format_rows_prints_every_metric():
    parent = _runs([1.0, 1.1], [5.0, 6.0])
    text = ab_bench.format_rows(ab_bench.summarize(END_TO_END, parent, parent))
    assert text.count("\n") == 2 and "op_s" in text and "rows_per_s" in text
    assert text.splitlines()[0].endswith("wins   clear worse unresolved")


def test_format_rows_shows_both_flags():
    rows = _one_metric([0.5, 0.5, 1.0, 1.5, 1.5], [2.0] * 5, [100.0] * 5, [100.0] * 5)
    header, op_s, rows_per_s = ab_bench.format_rows(list(rows.values())).splitlines()
    assert op_s.split()[-3:] == ["no", "yes", "yes"]
    assert rows_per_s.split()[-3:] == ["no", "no", "no"]


def _fake_runs(monkeypatch, failing=None):
    """Replace the extract, the copy and the benchmark runs; the change is faster, and
    the ``failing`` (side, workload) run reports one failed operation. Returns
    the (side, workload) of every run, in order."""
    calls = []

    def run_bench(checkout, workload, seconds, seed):
        side = "change" if os.path.basename(checkout).startswith("ab_bench_change_") else "parent"
        calls.append((side, workload))
        op_s = 0.2 if side == "change" else 0.3
        return {"metrics": {"op_s": {"value": op_s, "unit": "s"}}, "failed": int((side, workload) == failing)}

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    monkeypatch.setattr(ab_bench, "extract", lambda rev, dest: None)
    monkeypatch.setattr(ab_bench, "copy_checkout", lambda dest: None)
    monkeypatch.setattr(ab_bench, "resolve", lambda rev: "0123abcd" * 5)
    return calls


def test_main_prints_one_table_per_workload(monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    assert ab_bench.main(["HEAD~1", "global_sweep", "erm_fit", "--pairs", "2"]) == 0
    tables = capsys.readouterr().out.split("\n\n")[:2]
    for workload, table in zip(["global_sweep", "erm_fit"], tables):
        assert table.startswith(f"{workload}: HEAD~1 (parent) vs this checkout, 2 pairs")
        assert "op_s" in table and " 2/2 " in table
        assert table.endswith("failed operations: parent 0, change 0")
    # Pairs alternate which side runs first, one workload after the other.
    sides = ("parent", "change", "change", "parent")
    assert calls == [(side, w) for w in ("global_sweep", "erm_fit") for side in sides]


def test_main_exits_1_if_any_run_of_any_workload_failed(monkeypatch, capsys):
    _fake_runs(monkeypatch, failing=("parent", "erm_fit"))
    assert ab_bench.main(["HEAD~1", "global_sweep", "erm_fit", "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "failed operations: parent 0, change 0" in out
    assert "failed operations: parent 1, change 0" in out


def test_json_out_holds_what_the_tables_show(monkeypatch, capsys, tmp_path):
    _fake_runs(monkeypatch, failing=("change", "erm_fit"))
    path = tmp_path / "ab.json"
    argv = ["HEAD~1", "emg_mask", "erm_fit", "--pairs", "3", "--seconds", "8", "--seed", "1"]
    assert ab_bench.main(argv + ["--json-out", str(path)]) == 1
    report = json.loads(path.read_text())
    assert {k: report[k] for k in ("parent_rev", "parent_commit", "seed", "seconds", "pairs")} == {
        "parent_rev": "HEAD~1", "parent_commit": "0123abcd" * 5, "seed": 1, "seconds": 8.0, "pairs": 3,
    }
    assert list(report["workloads"]) == ["emg_mask", "erm_fit"]
    assert report["workloads"]["emg_mask"]["failed"] == {"parent": 0, "change": 0}
    assert report["workloads"]["erm_fit"]["failed"] == {"parent": 0, "change": 3}
    (op,) = report["workloads"]["emg_mask"]["metrics"]
    assert op["parent"] == {"q1": 0.3, "median": 0.3, "q3": 0.3}
    assert op["change"] == {"q1": 0.2, "median": 0.2, "q3": 0.2}
    assert (op["name"], op["better"], op["wins"], op["pairs"], op["clear"]) == ("op_s", "lower", 3, 3, True)
    assert (op["bound"], op["worse"], op["unresolved"]) == (0.25, False, False)
    assert " 3/3 " in capsys.readouterr().out


def test_copy_checkout_takes_what_git_does_not_ignore(monkeypatch, tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    for name, text in [(".gitignore", "*.pyc\n.bench_out/\n"), ("pkg/mod.py", "committed\n"),
                       ("gone.py", "committed\n")]:
        (repo / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "init")
    (repo / "pkg" / "mod.py").write_text("edited\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "mod.pyc").write_text("ignored\n")
    (repo / ".bench_out").mkdir()
    (repo / ".bench_out" / "trace.csv").write_text("ignored\n")
    (repo / "gone.py").unlink()

    monkeypatch.setattr(ab_bench, "ROOT", str(repo))
    dest.mkdir()
    ab_bench.copy_checkout(str(dest))
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "edited\n"
