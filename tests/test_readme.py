"""The README's runnable claims: the library quick start prints what the
README says it prints, its CLI quick start runs as written, and the CLI
chain at its defaults gives the headline experiment's seed-0 accuracies."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from embmask.cli import main
from embmask.experiment import ExperimentSpec, run_seed
from embmask.synthbench import BenchmarkSpec, generate_benchmark

ROOT = Path(__file__).resolve().parents[1]


def _section(heading):
    """The README's text from ``heading`` to the next "## " heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index(heading):]
    return section[:section.index("\n## ")]


def _quick_start():
    """The ``python`` block under "## Quick start (library)" and the ``text`` block after it."""
    found = re.search(r"```python\n(.*?)```.*?```text\n(.*?)```", _section("## Quick start (library)"), re.S)
    assert found, "the quick start has no python block followed by a text block"
    return found.group(1), found.group(2)


def _cli_quick_start():
    """The ``embmask`` commands of the ``sh`` block under "## Quick start
    (CLI)", each with its continuation lines joined, as argument lists."""
    found = re.search(r"```sh\n(.*?)```", _section("## Quick start (CLI)"), re.S)
    assert found, "the CLI quick start has no sh block"
    commands = [shlex.split(line) for line in found.group(1).replace("\\\n", " ").splitlines()]
    assert commands and all(argv[0] == "embmask" for argv in commands)
    return [argv[1:] for argv in commands]


def test_cli_quick_start_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text("seed = 0\n")
    for argv in _cli_quick_start():
        assert main(argv) == 0, argv


def test_library_quick_start_prints_what_the_readme_states():
    code, stated = _quick_start()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == stated


def test_cli_chain_at_its_defaults_gives_run_seeds_unseen_accuracies(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 0\nout_dir = unused\n")

    def run(cmd, out, **kv):
        argv = [cmd, "--config", str(cfg), "--set", f"out_dir={tmp_path / out}"]
        for k, v in kv.items():
            argv += ["--set", f"{k}={v}"]
        assert main(argv) == 0
        return tmp_path / out

    data = {"data.dir": run("gen-data", "data")}
    base = {**data, "base.model": run("train-erm", "erm", **data) / "base_model"}
    emg = run("train-emg", "emg", **base) / "emg_model"
    unseen = {}
    for mode, extra in (("none", {}), ("emg", {"emg.model": emg})):
        report = run("eval", f"eval_{mode}", **base, **{"eval.mode": mode}, **extra) / "report.json"
        unseen[mode] = json.loads(report.read_text())["per_domain_mean"]["unseen"]

    train, unseen_data, _ = generate_benchmark(BenchmarkSpec(seed=0))
    row = run_seed(ExperimentSpec(), train, unseen_data, 0)
    assert unseen == {"none": row["unmasked_unseen"], "emg": row["masked_unseen"]}
