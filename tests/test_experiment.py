"""The headline experiment's one definition: the spec equals the literals
that criteria 5 and 6 of test_acceptance.py spell out, the CLI defaults
read it, and scripts/run_pipeline.py reports what ``run_seed`` returns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from embmask import BenchmarkSpec, MaskGenConfig, Mlp, generate_benchmark, split_model
from embmask.cli import SCHEMAS
from embmask.config import parse_hidden
from embmask.experiment import ExperimentSpec, base_layers, importance_rng, new_generator, run_seed

ROOT = Path(__file__).parents[1]


def test_spec_equals_the_acceptance_literals():
    spec = ExperimentSpec()
    train, _, _ = generate_benchmark(BenchmarkSpec())
    assert base_layers(train, spec.hidden) == [16, 64, 5]
    assert spec.erm_epochs == 80
    split = split_model(Mlp(base_layers(train, spec.hidden), seed=0))
    assert new_generator(split, 16, spec.emg_hidden, 0).layer_sizes == [16, 32, 64]
    assert spec.emg_epochs == 3
    assert spec.mask == MaskGenConfig()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_and_importance_stream_follow_the_seed_rules(seed):
    split = split_model(Mlp([16, 64, 5], seed=seed))
    gen = new_generator(split, 16, ExperimentSpec().emg_hidden, seed)
    assert gen.store.checksum() == Mlp([16, 32, 64], prefix="g.", seed=seed + 1).store.checksum()
    expected = np.random.default_rng(np.random.SeedSequence((seed, 0x6B))).random(16)
    assert np.array_equal(importance_rng(seed).random(16), expected)


def test_cli_defaults_equal_the_spec():
    spec = ExperimentSpec()
    erm, emg = SCHEMAS["train-erm"], SCHEMAS["train-emg"]
    assert parse_hidden(erm["model.hidden"].default) == list(spec.hidden)
    assert erm["train.max_epochs"].default == spec.erm_epochs
    assert parse_hidden(emg["emg.hidden"].default) == list(spec.emg_hidden)
    assert emg["emg.max_epochs"].default == spec.emg_epochs
    for cmd in ("train-emg", "eval", "bound-check", "export-embeddings"):
        for key in ("tau", "inference_mode"):
            if f"mask.{key}" in SCHEMAS[cmd]:
                assert SCHEMAS[cmd][f"mask.{key}"].default == getattr(spec.mask, key)


def test_run_pipeline_reports_run_seed(tmp_path):
    out = tmp_path / "p.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["--seeds", "0", "--erm-epochs", "2", "--emg-epochs", "1", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"wrote {out}\n")
    train, unseen, _ = generate_benchmark(BenchmarkSpec())
    expected = run_seed(ExperimentSpec(erm_epochs=2, emg_epochs=1), train, unseen, 0)
    assert json.loads(out.read_text())["per_seed"] == [expected]
