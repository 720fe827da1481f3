"""End-to-end CLI: run directories, exit codes, determinism."""

import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from embmask.cli import (
    COMMANDS,
    EVAL_MODES,
    EXIT_CONFIG_ERROR,
    EXIT_MISSING_ARTIFACT,
    EXIT_OK,
    EXPORT_WHICH,
    SCHEMAS,
    main,
)
from embmask.experiment import base_layers
from embmask.mask import INFERENCE_MODES, TAU_MIN, TRAIN_TAU_MIN
from embmask.nn import Mlp, load_params, save_params
from embmask.rundir import RunDirectory
from embmask.synthbench import (
    BenchmarkSpec,
    DomainDataset,
    generate_benchmark,
    load_csv_dataset,
    save_csv_dataset,
)
from embmask.train import BATCH_SIZE, LEARNING_RATE, PATIENCE, VAL_FRACTION, TrainConfig, train_erm
from numeric_env import numeric_environment

SMALL_BENCH = {
    "benchmark.num_classes": 3,
    "benchmark.d_shared": 4,
    "benchmark.d_specific": 4,
    "benchmark.samples_per_domain": 120,
    "benchmark.unseen_samples": 120,
}


def run_cmd(cmd, cfg_path, **overrides):
    argv = [cmd, "--config", str(cfg_path)]
    for k, v in overrides.items():
        argv += ["--set", f"{k}={v}"]
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + linear ERM + EMG, shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "cfg.txt"
    cfg.write_text("seed = 0\nout_dir = unused\n")
    data_dir = root / "data"
    erm_dir = root / "erm"
    emg_dir = root / "emg"

    assert run_cmd("gen-data", cfg, out_dir=data_dir, **SMALL_BENCH) == 0
    assert (
        run_cmd(
            "train-erm",
            cfg,
            out_dir=erm_dir,
            **{"data.dir": data_dir, "model.hidden": "", "train.max_epochs": 10},
        )
        == 0
    )
    base = erm_dir / "base_model"
    assert (
        run_cmd(
            "train-emg",
            cfg,
            out_dir=emg_dir,
            **{"data.dir": data_dir, "base.model": base, "emg.hidden": "8"},
        )
        == 0
    )
    return {"root": root, "cfg": cfg, "data": data_dir, "base": base, "emg": emg_dir / "emg_model"}


_RUN = ["seed", "out_dir"]
_BASE = [*_RUN, "data.dir", "base.model"]
_MASK = ["mask.tau", "mask.inference_mode"]
_MASK_SOURCE = ["eval.mode", "emg.model", "eval.mask_percent", *_MASK]

# Every key of every command, so that a new field of BenchmarkSpec,
# TrainConfig or MaskGenConfig does not become a CLI key unnoticed.
COMMAND_KEYS = {
    "gen-data": [
        *_RUN,
        *(
            f"benchmark.{k}"
            for k in (
                "num_classes", "d_shared", "d_specific", "num_train_domains",
                "samples_per_domain", "unseen_samples", "spurious_strength",
                "noise_sigma",
            )
        ),
    ],
    "train-erm": [*_RUN, "data.dir", "model.hidden", "train.max_epochs"],
    "train-emg": [*_BASE, "emg.hidden", "emg.max_epochs", "mask.tau"],
    "eval": [*_BASE, *_MASK_SOURCE],
    "sweep-global": [*_BASE, "sweep.grid"],
    "bound-check": [*_BASE, "emg.model", *_MASK],
    "export-embeddings": [*_BASE, "export.which", *_MASK_SOURCE],
}


def _config(run_dir):
    """The key -> value snapshot in ``run_dir``/config.txt."""
    lines = (run_dir / "config.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def test_command_keys_are_pinned(pipeline):
    assert {c: sorted(s) for c, s in SCHEMAS.items()} == {
        c: sorted(keys) for c, keys in COMMAND_KEYS.items()
    }
    emg_dir = pipeline["emg"].parent
    config = _config(emg_dir)
    assert sorted(config) == sorted(COMMAND_KEYS["train-emg"])
    epochs = (emg_dir / "emg_trace.csv").read_text().splitlines()[1:]
    assert 1 <= len(epochs) <= int(config["emg.max_epochs"])
    assert [row.split(",")[3] for row in epochs].count("1") == 1


def test_gen_data_rundir_complete_and_verifies(pipeline):
    data = pipeline["data"]
    assert (data / "STATUS").read_text().strip() == "complete"
    assert (data / "config.txt").exists()
    assert (data / "oracle.json").exists()
    assert sorted(p.name for p in data.glob("train_domain_*.csv")) == [
        "train_domain_0.csv",
        "train_domain_1.csv",
        "train_domain_2.csv",
    ]
    RunDirectory.verify(str(data))


def test_train_outputs_verify(pipeline):
    for prefix in ("base", "emg"):
        model = pipeline[prefix]
        assert model.with_suffix(".manifest").exists()
        assert model.with_suffix(".params").exists()
        RunDirectory.verify(str(model.parent))


def test_train_erm_reads_domains_in_index_order(tmp_path):
    """With 11 domains, train_domain_10.csv sorts before train_domain_2.csv
    as a string; the CLI fit must still see generate_benchmark's order."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 0\nout_dir = unused\n")
    bench = {**SMALL_BENCH, "benchmark.num_train_domains": 11, "benchmark.samples_per_domain": 30}
    assert run_cmd("gen-data", cfg, out_dir=tmp_path / "data", **bench) == 0
    erm = {"data.dir": tmp_path / "data", "model.hidden": "4", "train.max_epochs": 2}
    assert run_cmd("train-erm", cfg, out_dir=tmp_path / "erm", **erm) == 0

    spec = BenchmarkSpec(**{k.split(".")[1]: v for k, v in bench.items()}, seed=0)
    train, _, _ = generate_benchmark(spec)
    model, _ = train_erm(TrainConfig(seed=0, max_epochs=2), train, base_layers(train, [4]))
    assert load_params(str(tmp_path / "erm" / "base_model")).store.checksum() == model.store.checksum()


def test_eval_modes_and_report_shape(pipeline, tmp_path):
    cfg, data, base = pipeline["cfg"], pipeline["data"], pipeline["base"]
    emg = {"eval.mode": "emg", "emg.model": pipeline["emg"]}
    # The mask-source keys each mode reads: config.txt records no others.
    for name, extra, read in (
        ("none", {"eval.mode": "none"}, []),
        ("global", {"eval.mode": "global", "eval.mask_percent": 25}, ["eval.mask_percent"]),
        ("noise_free", emg, ["emg.model", *_MASK]),
        ("sample_avg", {**emg, "mask.inference_mode": "sample_avg"}, ["emg.model", *_MASK]),
        # expected is the keep probability 1-p: mask.tau does not shape it.
        (
            "expected",
            {**emg, "mask.inference_mode": "expected"},
            ["emg.model", "mask.inference_mode"],
        ),
    ):
        out = tmp_path / f"eval_{name}"
        code = run_cmd("eval", cfg, out_dir=out, **{"data.dir": data, "base.model": base, **extra})
        assert code == 0
        assert sorted(_config(out)) == sorted([*_BASE, "eval.mode", *read])
        report = json.loads((out / "report.json").read_text())
        assert list(report) == ["per_domain_mean"]
        keys = set(report["per_domain_mean"])
        assert {"train_pooled", "unseen", "train_domain_0"} <= keys
        for v in report["per_domain_mean"].values():
            assert 0.0 <= v <= 1.0


def test_eval_rerun_bitwise_identical(pipeline, tmp_path):
    cfg, data, base = pipeline["cfg"], pipeline["data"], pipeline["base"]
    out = tmp_path / "rerun"  # identical config implies the same out_dir
    outs = []
    for _ in range(2):
        assert run_cmd("eval", cfg, out_dir=out, **{"data.dir": data, "base.model": base}) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_global_csv(pipeline, tmp_path):
    cfg, data, base = pipeline["cfg"], pipeline["data"], pipeline["base"]
    out = tmp_path / "sweep"
    code = run_cmd(
        "sweep-global",
        cfg,
        out_dir=out,
        **{"data.dir": data, "base.model": base, "sweep.grid": "0,25,50"},
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "percent,unseen_acc,train_acc,unseen_best"
    assert lines[1].startswith("0,")
    RunDirectory.verify(str(out))


def test_global_eval_matches_its_sweep_row(pipeline, tmp_path):
    """eval.mode = global and sweep-global draw importance from one stream,
    so one seed gives them one mask."""
    cfg, data, base = pipeline["cfg"], pipeline["data"], pipeline["base"]
    inputs = {"data.dir": data, "base.model": base}
    global_mask = {"eval.mode": "global", "eval.mask_percent": 50}
    assert run_cmd("eval", cfg, out_dir=tmp_path / "eval", **inputs, **global_mask) == 0
    grid = {"sweep.grid": "0,50"}
    assert run_cmd("sweep-global", cfg, out_dir=tmp_path / "sweep", **inputs, **grid) == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())["per_domain_mean"]
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    _, unseen, train, _ = next(r for r in rows if r.startswith("50,")).split(",")
    assert (float(unseen), float(train)) == (report["unseen"], report["train_pooled"])


def test_bound_check_zero_violations(pipeline, tmp_path):
    cfg, data, base = pipeline["cfg"], pipeline["data"], pipeline["base"]
    out = tmp_path / "bound"
    code = run_cmd(
        "bound-check",
        cfg,
        out_dir=out,
        **{"data.dir": data, "base.model": base, "emg.model": pipeline["emg"]},
    )
    assert code == 0
    reports = json.loads((out / "bound.json").read_text())
    assert set(reports) == {"L1", "L2"}
    for rep in reports.values():
        assert rep["violation_count"] == 0
        assert rep["ge"] <= rep["term_sh"] + rep["term_sp"] + 1e-9


def test_export_embeddings_with_masks(pipeline, tmp_path):
    cfg, data, base = pipeline["cfg"], pipeline["data"], pipeline["base"]
    out = tmp_path / "export"
    code = run_cmd(
        "export-embeddings",
        cfg,
        out_dir=out,
        **{
            "data.dir": data,
            "base.model": base,
            "eval.mode": "emg",
            "emg.model": pipeline["emg"],
        },
    )
    assert code == 0
    assert (out / "embeddings_3.csv").exists()  # unseen domain index = 3
    assert (out / "masks_3.csv").exists()


# -- error contracts -----------------------------------------------------------------


def test_missing_base_model_exits_2(pipeline, tmp_path, capsys):
    cfg, data = pipeline["cfg"], pipeline["data"]
    code = run_cmd(
        "train-emg",
        cfg,
        out_dir=tmp_path / "x",
        **{"data.dir": data, "base.model": tmp_path / "nope"},
    )
    assert code == 2
    assert "error code=2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # no run dir mutation on missing input


def test_missing_data_dir_exits_2(pipeline, tmp_path):
    assert run_cmd("eval", pipeline["cfg"], out_dir=tmp_path / "x", **{"data.dir": tmp_path / "no", "base.model": pipeline["base"]}) == 2


def test_unknown_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 0\nout_dir = x\nbenchmark.clases = 3\n")
    assert main(["gen-data", "--config", str(cfg)]) == 3
    assert "error code=3" in capsys.readouterr().err


def test_syntax_error_exits_3(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed 0\n")
    assert main(["gen-data", "--config", str(cfg)]) == 3


def test_bad_set_flag_exits_3(pipeline):
    assert main(["gen-data", "--config", str(pipeline["cfg"]), "--set", "oops"]) == 3


def test_missing_seed_exits_3(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("out_dir = x\n")
    assert main(["gen-data", "--config", str(cfg)]) == 3


@pytest.mark.parametrize(
    "cmd, overrides",
    [
        ("export-embeddings", {"eval.mode": "bogus"}),
        ("export-embeddings", {"export.which": "all"}),
        ("eval", {"eval.mode": "emg", "mask.inference_mode": "zzz"}),
        ("bound-check", {"bound.distance": "L3"}),
        ("train-emg", {"mask.tau": 0}),
        ("sweep-global", {"sweep.grid": "0,x"}),
        *(
            pytest.param(cmd, {key: value}, id=f"{cmd}-{key}={value}")
            for cmd, key, value in (
                ("train-emg", "mask.tau", "nan"),
                ("train-emg", "mask.tau", "inf"),
                # Below mask.TAU_MIN the mask logit overflows, and below
                # mask.TRAIN_TAU_MIN training's gradient may (|dloss/dm|/(4 tau)).
                ("train-emg", "mask.tau", "1e-320"),
                ("train-emg", "mask.tau", repr(float(TAU_MIN))),
                ("train-emg", "mask.tau", repr(float(np.nextafter(TRAIN_TAU_MIN, 0.0)))),
                # Keys a command does not read are not accepted.
                ("train-emg", "train.max_epochs", 5),
                # Removed settings are unknown keys to every command.
                ("train-erm", "train.hard_target", "true"),
                ("train-emg", "train.hard_target", "true"),
                ("train-emg", "mask.sample_count", 4),
                ("eval", "mask.sample_count", 4),
                ("gen-data", "benchmark.mixing", "true"),
                ("sweep-global", "sweep.repeats", 0),
                # The predictor is always the base model's last linear layer.
                ("train-emg", "base.split_index", -1),
                ("eval", "base.split_index", -2),
                ("eval", "base.split_index", 5),
                ("sweep-global", "base.split_index", -1),
                ("bound-check", "base.split_index", -1),
                ("export-embeddings", "base.split_index", -1),
                # The noise clamp is a constant, not a key.
                ("train-emg", "mask.clamp_eps", 1e-12),
                ("eval", "mask.clamp_eps", 1e-12),
                # Out-of-range values are config errors, not run failures.
                ("sweep-global", "sweep.grid", "10,20"),
                ("sweep-global", "sweep.grid", "0,150"),
                ("train-erm", "model.hidden", 0),
                ("train-erm", "train.max_epochs", 0),
                ("train-emg", "emg.max_epochs", 0),
                ("train-emg", "emg.hidden", -3),
                ("gen-data", "benchmark.noise_sigma", "nan"),
                ("gen-data", "benchmark.noise_sigma", "inf"),
                ("gen-data", "benchmark.noise_sigma", -1),
                # NumPy's seed sequences take no negative entropy.
                ("gen-data", "seed", -1),
                ("train-erm", "seed", -1),
            )
        ),
        pytest.param(
            "eval",
            {"eval.mode": "global", "eval.mask_percent": 150},
            id="eval-global-eval.mask_percent=150",
        ),
        # Removed too: permutation importance draws nothing, so it has no repeats.
        pytest.param(
            "eval", {"eval.mode": "global", "eval.repeats": 0}, id="eval-global-eval.repeats=0"
        ),
        pytest.param(
            "eval", {"eval.mode": "emg", "eval.repeats": 2}, id="eval-emg-eval.repeats=2"
        ),
        # A mask-source key the mode does not read is rejected unless it
        # holds its default.
        pytest.param(
            "eval",
            {"eval.mode": "none", "emg.model": "elsewhere/emg_model"},
            id="eval-none-emg.model",
        ),
        pytest.param(
            "export-embeddings",
            {"eval.mode": "global", "mask.tau": 0.5},
            id="export-embeddings-global-mask.tau=0.5",
        ),
        pytest.param(
            "eval",
            {"eval.mode": "emg", "mask.inference_mode": "expected", "mask.tau": 0.7},
            id="eval-emg-expected-mask.tau=0.7",
        ),
        # An out_dir that is empty once stripped names no directory; it is
        # refused before any data is generated or read.
        *(pytest.param(cmd, {"out_dir": " "}, id=f"{cmd}-out_dir=") for cmd in COMMANDS),
    ],
    ids=lambda v: v if isinstance(v, str) else ",".join(v),
)
def test_bad_config_value_exits_3_before_run_dir(pipeline, tmp_path, capsys, monkeypatch, cmd, overrides):
    inputs = {} if cmd == "gen-data" else {"data.dir": pipeline["data"]}
    if cmd not in ("gen-data", "train-erm"):
        inputs["base.model"] = pipeline["base"]
    if cmd == "bound-check" or overrides.get("eval.mode") == "emg":
        inputs["emg.model"] = pipeline["emg"]
    if "out_dir" in overrides:
        for name in ("generate_benchmark", "_load_data_dir"):
            monkeypatch.setattr(f"embmask.cli.{name}", lambda *a: pytest.fail("worked before checking out_dir"))
    monkeypatch.chdir(tmp_path)  # an empty out_dir would resolve here
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], **{"out_dir": out, **inputs, **overrides}) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error code=3")
    assert str(overrides.get("export.which", "")) in err
    assert not out.exists() and not any(tmp_path.iterdir())


# The training settings that are now constants of embmask.train, as the
# config.txt of a train-erm run recorded them while they were keys.
_FORMER_TRAIN_LINES = [
    "train.batch_size = 64",
    "train.learning_rate = 0.001",
    "train.patience = 10",
    "train.val_fraction = 0.2",
]


@pytest.mark.parametrize("line", _FORMER_TRAIN_LINES, ids=lambda line: line.split(" = ")[0])
@pytest.mark.parametrize("cmd", ["train-erm", "train-emg"])
def test_former_training_key_exits_3_as_unknown_before_run_dir(pipeline, tmp_path, capsys, cmd, line):
    inputs = {"data.dir": pipeline["data"]}
    if cmd == "train-emg":
        inputs["base.model"] = pipeline["base"]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"seed = 0\nout_dir = unused\n{line}\n")
    out = tmp_path / "out"
    assert run_cmd(cmd, cfg, out_dir=out, **inputs) == 3
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert len(err.splitlines()) == 1 and err.startswith('error code=3 msg="unknown keys')
    assert f"'{key}': 3" in err  # the key and its line in the config file
    assert not out.exists()


def test_bound_check_unread_mask_key_names_only_its_setting(pipeline, tmp_path, capsys):
    """bound-check always takes the generator's masks and has no eval.mode
    key, so the message names the inference mode alone."""
    out = tmp_path / "out"
    overrides = {"mask.inference_mode": "expected", "mask.tau": 0.7}
    inputs = {"data.dir": pipeline["data"], "base.model": pipeline["base"], "emg.model": pipeline["emg"]}
    assert run_cmd("bound-check", pipeline["cfg"], out_dir=out, **inputs, **overrides) == 3
    err = capsys.readouterr().err
    assert 'msg="mask.tau is not read with mask.inference_mode = expected"' in err
    assert "eval.mode" not in err
    assert not out.exists()


def _model_run(path, manifest, values):
    """A complete run directory at ``path`` whose manifest lists a base
    model file: the manifest line ``manifest`` and the payload ``values``."""
    run = RunDirectory(str(path), {})
    run.write_text("base_model.manifest", manifest)
    (path / "base_model.params").write_bytes(np.asarray(values, "<f8").tobytes())
    run.register("base_model.params")
    run.finalize()
    return path / "base_model"


@pytest.fixture(scope="module")
def misfits(pipeline):
    """A 16-feature data directory and a base model with a 12-wide
    embedding; the pipeline's models take 8 features and mask 8 values.
    Data directories with 5 classes and with a label -1; the pipeline's
    base model predicts 3 classes. Also base models, in runs that verify,
    with a NaN parameter, and with payloads too short for their layers: a
    ``w1`` that takes 32 values after a 64-wide layer, and ``b0`` missing.
    A generator that masks the 8 embedding values but takes 16 features."""
    root, cfg = pipeline["root"], pipeline["cfg"]
    wide = {**SMALL_BENCH, "benchmark.d_shared": 8, "benchmark.d_specific": 8}
    assert run_cmd("gen-data", cfg, out_dir=root / "data16", **wide) == 0
    five = {**SMALL_BENCH, "benchmark.num_classes": 5}
    assert run_cmd("gen-data", cfg, out_dir=root / "more_classes", **five) == 0
    negative = root / "negative_label"
    shutil.copytree(pipeline["data"], negative)
    unseen = load_csv_dataset(str(negative / "unseen.csv"))
    unseen.labels[7] = -1
    save_csv_dataset(unseen, str(negative / "unseen.csv"))
    _reseal(negative)
    erm = {"data.dir": pipeline["data"], "model.hidden": "12", "train.max_epochs": 1}
    assert run_cmd("train-erm", cfg, out_dir=root / "erm12", **erm) == 0
    gen16 = RunDirectory(str(root / "gen16"), {})
    save_params(Mlp([16, 8], prefix="g."), gen16.file("emg_model"))
    gen16.register("emg_model.manifest", "emg_model.params")
    gen16.finalize()
    line = pipeline["base"].with_suffix(".manifest").read_text()
    nan = np.fromfile(pipeline["base"].with_suffix(".params"), "<f8")
    nan[0] = np.nan
    return {
        "data16": root / "data16",
        "more_classes": root / "more_classes",
        "negative_label": negative,
        "base12": root / "erm12" / "base_model",
        "gen16": root / "gen16" / "emg_model",
        "nan_parameter": _model_run(root / "nan_parameter", line, nan),
        "unchained": _model_run(
            root / "unchained",
            "layers=8,64,3 prefix= trainable=1\n",
            np.ones(8 * 64 + 64 + 32 * 3 + 3),
        ),
        "missing_bias": _model_run(
            root / "missing_bias", "layers=8,3 prefix= trainable=1\n", np.ones(8 * 3)
        ),
    }


@pytest.mark.parametrize(
    "cmd, misfit",
    [
        *(
            (cmd, misfit)
            for misfit in ("data", "more_classes", "negative_label")
            for cmd in SCHEMAS
            if "base.model" in SCHEMAS[cmd]
        ),
        *(
            (cmd, misfit)
            for misfit in ("generator", "generator_input")
            for cmd in SCHEMAS
            if "emg.model" in SCHEMAS[cmd]
        ),
        ("eval", "nan_parameter"),
        ("eval", "unchained"),
        ("eval", "missing_bias"),
    ],
)
def test_inputs_that_do_not_fit_exit_1_before_run_dir(
    pipeline, misfits, tmp_path, capsys, cmd, misfit
):
    if misfit == "data":  # the base model takes 8 features
        inputs = {"data.dir": misfits["data16"], "base.model": pipeline["base"]}
    elif misfit in ("more_classes", "negative_label"):  # the base model predicts 3 classes
        inputs = {"data.dir": misfits[misfit], "base.model": pipeline["base"]}
    elif misfit == "generator":  # the generator masks 8 values of a 12-wide embedding
        inputs = {"data.dir": pipeline["data"], "base.model": misfits["base12"]}
        if cmd != "bound-check":
            inputs["eval.mode"] = "emg"
    elif misfit == "generator_input":  # the generator takes 16 features, the data has 8
        inputs = {"data.dir": pipeline["data"], "base.model": pipeline["base"]}
        if cmd != "bound-check":
            inputs["eval.mode"] = "emg"
    else:  # a base model file that holds no usable model
        inputs = {"data.dir": pipeline["data"], "base.model": misfits[misfit]}
    if cmd == "bound-check" or inputs.get("eval.mode") == "emg":
        inputs["emg.model"] = misfits["gen16"] if misfit == "generator_input" else pipeline["emg"]
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **inputs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "Traceback" not in err
    if misfit in ("more_classes", "negative_label"):
        assert "not one of the base model's 3 classes" in err
    if misfit == "generator_input":
        assert "EMG model" in err and "widths (16, 8), needs (8, 8)" in err
    assert not out.exists()


def test_bound_check_without_oracle_exits_2_before_run_dir(pipeline, tmp_path, capsys):
    """A data directory that is complete and verifies, but whose manifest
    does not list oracle.json."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "oracle.json").unlink()
    manifest = data / "MANIFEST.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.endswith("  oracle.json\n")))
    assert "oracle.json" not in RunDirectory.verify(str(data))
    out = tmp_path / "out"
    inputs = {"data.dir": data, "base.model": pipeline["base"], "emg.model": pipeline["emg"]}
    assert run_cmd("bound-check", pipeline["cfg"], out_dir=out, **inputs) == 2
    err = capsys.readouterr().err
    assert err.count("error code=") == 1
    assert err.startswith(f'error code=2 msg="oracle.json missing in {data}"')
    assert "Traceback" not in err and not out.exists()


def test_base_model_with_more_outputs_than_the_data_has_classes_is_valid(pipeline, tmp_path):
    cfg, data = pipeline["cfg"], tmp_path / "data"
    assert run_cmd("gen-data", cfg, out_dir=data, **{**SMALL_BENCH, "benchmark.num_classes": 2}) == 0
    inputs = {"data.dir": data, "base.model": pipeline["base"]}
    assert run_cmd("eval", cfg, out_dir=tmp_path / "eval", **inputs) == 0


@pytest.mark.parametrize("cmd, run", [("train-erm", "data"), ("eval", "erm"), ("bound-check", "emg")])
def test_out_dir_that_is_an_input_run_exits_3(pipeline, tmp_path, capsys, cmd, run):
    """Writing there would replace the manifest that lists the run's inputs.
    The path is spelled through ``..``, so only its real path matches."""
    for name, src in (("data", pipeline["data"]), ("erm", pipeline["base"].parent), ("emg", pipeline["emg"].parent)):
        shutil.copytree(src, tmp_path / name)
    inputs = {"data.dir": tmp_path / "data"}
    if cmd != "train-erm":
        inputs["base.model"] = tmp_path / "erm" / "base_model"
    if cmd == "bound-check":
        inputs["emg.model"] = tmp_path / "emg" / "emg_model"
    manifest = (tmp_path / run / "MANIFEST.txt").read_bytes()
    assert run_cmd(cmd, pipeline["cfg"], out_dir=f"{tmp_path / run}/../{run}", **inputs) == 3
    err = capsys.readouterr().err
    assert err.count("error code=") == 1 and err.startswith("error code=3")
    RunDirectory.verify(str(tmp_path / run))
    assert (tmp_path / run / "MANIFEST.txt").read_bytes() == manifest


def _corrupt_manifest(data, base):
    path = base.with_suffix(".manifest")
    text = path.read_text()
    assert " prefix= " in text
    path.write_text(text.replace(" prefix= ", " ", 1))


def _non_utf8_status(data, base):
    (data / "STATUS").write_bytes(b"\xff\n")


def _non_utf8_run_manifest(data, base):
    with open(data / "MANIFEST.txt", "ab") as fh:
        fh.write(b"\xff\n")


def _non_utf8_model_manifest(data, base):
    base.with_suffix(".manifest").write_bytes(b"layers=8,3 prefix=\xff trainable=1\n")
    _reseal(base.parent)


def _corrupt_oracle(data, base):
    path = data / "oracle.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _nan_feature(data, base):
    path = data / "unseen.csv"
    lines = path.read_text().splitlines()
    lines[5] = "nan" + lines[5][lines[5].index(",") :]
    path.write_text("\n".join(lines) + "\n")
    _reseal(data)


def _swapped_header(data, base):
    path = data / "unseen.csv"
    text = path.read_text()
    assert ",label,domain\n" in text
    path.write_text(text.replace(",label,domain\n", ",domain,label\n", 1))
    _reseal(data)


def _malformed_cell(data, base):
    path = data / "unseen.csv"
    lines = path.read_text().splitlines()
    lines[5] = "1_0" + lines[5][lines[5].index(",") :]
    path.write_text("\n".join(lines) + "\n")
    _reseal(data)


def _flip_param_byte(data, base):
    path = base.with_suffix(".params")
    blob = bytearray(path.read_bytes())
    blob[0] ^= 1
    path.write_bytes(bytes(blob))


def _incomplete_data_dir(data, base):
    (data / "STATUS").write_text("incomplete\n")


def _garbled_manifest_line(data, base):
    with open(data / "MANIFEST.txt", "a") as fh:
        fh.write("not-a-manifest-line\n")


def _list_in_manifest(data, name):
    """List ``name`` in the manifest of ``data`` and re-seal it."""
    with open(data / "MANIFEST.txt", "a") as fh:
        fh.write(f"{'0' * 64}  {name}\n")
    _reseal(data)


# Each lists a valid copy of a training domain under a name that matches
# train_domain_*.csv, so only the manifest name rule can refuse it.
def _manifest_name_outside_run(data, base):
    (data / "train_domain_").mkdir()
    (data.parent / "elsewhere").mkdir()
    shutil.copy(data / "train_domain_0.csv", data.parent / "elsewhere" / "x.csv")
    _list_in_manifest(data, "train_domain_/../../elsewhere/x.csv")


def _manifest_name_in_subdirectory(data, base):
    (data / "train_domain_sub").mkdir()
    shutil.copy(data / "train_domain_0.csv", data / "train_domain_sub" / "x.csv")
    _list_in_manifest(data, "train_domain_sub/x.csv")


def _manifest_name_of_a_symlink(data, base):
    (data.parent / "elsewhere").mkdir()
    shutil.copy(data / "train_domain_0.csv", data.parent / "elsewhere" / "x.csv")
    (data / "train_domain_9.csv").symlink_to(data.parent / "elsewhere" / "x.csv")
    _list_in_manifest(data, "train_domain_9.csv")


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_manifest,
        _corrupt_oracle,
        _nan_feature,
        _swapped_header,
        _malformed_cell,
        _flip_param_byte,
        _incomplete_data_dir,
        _garbled_manifest_line,
        _manifest_name_outside_run,
        _manifest_name_in_subdirectory,
        _manifest_name_of_a_symlink,
        _non_utf8_status,
        _non_utf8_run_manifest,
        _non_utf8_model_manifest,
    ],
)
def test_corrupt_input_exits_1_without_traceback(pipeline, tmp_path, capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    shutil.copytree(pipeline["base"].parent, tmp_path / "erm")
    base = tmp_path / "erm" / pipeline["base"].name
    corrupt(data, base)
    out = tmp_path / "out"
    assert run_cmd("eval", pipeline["cfg"], out_dir=out, **{"data.dir": data, "base.model": base}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "Traceback" not in err
    assert err.count("error code=") == 1
    if corrupt is _nan_feature:  # re-sealed, so the CSV check itself refuses it
        assert "unseen.csv:6: non-finite feature value" in err
    if corrupt is _swapped_header:
        assert "unseen.csv:1: expected the header" in err
    if corrupt is _malformed_cell:
        assert "unseen.csv:6: " in err and "'1_0'" in err
    if corrupt in (_manifest_name_outside_run, _manifest_name_in_subdirectory):
        assert "not a file name" in err
    if corrupt is _manifest_name_of_a_symlink:
        assert "train_domain_9.csv" in err and "not a regular file" in err
    if corrupt in (_non_utf8_status, _non_utf8_run_manifest):
        assert "not UTF-8 text" in err
    if corrupt is _non_utf8_model_manifest:
        assert "base_model.manifest is not one line" in err
    assert not out.exists()


def test_failed_allocation_exits_1_without_traceback(pipeline, tmp_path, capsys, monkeypatch):
    """NumPy raises MemoryError for a request the host refuses, such as the
    7.28 TiB of samples_per_domain = 10**12; whether a huge request fails at
    once depends on the host, so the refusal is simulated."""

    def refuse(spec):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("embmask.cli.generate_benchmark", refuse)
    out = tmp_path / "out"
    assert run_cmd("gen-data", pipeline["cfg"], out_dir=out, **{"benchmark.samples_per_domain": 10**12}) == 1
    err = capsys.readouterr().err
    assert err.count("error code=") == 1 and err.count("error code=1") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cmd, key, value",
    [
        ("gen-data", "benchmark.samples_per_domain", 2**63),
        ("gen-data", "benchmark.samples_per_domain", 2**63 - 1),
        ("gen-data", "benchmark.d_specific", 2**63),
        ("gen-data", "benchmark.unseen_samples", 2**63),
        ("gen-data", "benchmark.d_shared", 2**62),
        ("gen-data", "benchmark.num_train_domains", 10**20),
        ("train-erm", "model.hidden", 10**20),
        ("train-emg", "emg.hidden", 2**63),
    ],
)
def test_size_numpy_refuses_to_represent_exits_1_without_traceback(pipeline, tmp_path, capsys, cmd, key, value):
    """NumPy refuses these sizes with a ValueError or OverflowError before it
    allocates anything; the command reports that as it reports a MemoryError."""
    inputs = {"gen-data": SMALL_BENCH, "train-erm": {"data.dir": pipeline["data"]}}.get(
        cmd, {"data.dir": pipeline["data"], "base.model": pipeline["base"]}
    )
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **{**inputs, key: value}) == 1
    err = capsys.readouterr().err
    assert err.count("error code=") == 1 and err.startswith("error code=1")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "train-emg"])
def test_models_given_in_each_others_place_exit_1_before_run_dir(pipeline, tmp_path, capsys, cmd):
    """A base model and a generator file differ in their parameter prefix:
    each is refused in the other's place, whatever its widths."""
    inputs = {"data.dir": pipeline["data"], "base.model": pipeline["emg"]}
    out = tmp_path / "generator_as_base"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **inputs) == 1
    err = capsys.readouterr().err
    assert err.count("error code=") == 1 and err.startswith("error code=1")
    assert "base model" in err and "prefix 'g.', not ''" in err
    assert not out.exists()

    if cmd == "eval":
        inputs = {"data.dir": pipeline["data"], "base.model": pipeline["base"]}
        inputs.update({"eval.mode": "emg", "emg.model": pipeline["base"]})
        out = tmp_path / "base_as_generator"
        assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **inputs) == 1
        err = capsys.readouterr().err
        assert err.count("error code=") == 1 and err.startswith("error code=1")
        assert "EMG model" in err and "prefix '', not 'g.'" in err
        assert not out.exists()


def _reseal(run):
    """Rewrite the manifest of ``run`` to the current bytes of the files it lists."""
    manifest = run / "MANIFEST.txt"
    names = [line.split("  ", 1)[1] for line in manifest.read_text().splitlines()]
    digests = [hashlib.sha256((run / name).read_bytes()).hexdigest() for name in names]
    manifest.write_text("".join(f"{d}  {name}\n" for d, name in zip(digests, names)))


DATA_COMMANDS = [cmd for cmd in SCHEMAS if "data.dir" in SCHEMAS[cmd]]


def _data_inputs(pipeline, cmd, data):
    """The input keys ``cmd`` needs to run on the data directory ``data``."""
    inputs = {"data.dir": data}
    if "base.model" in SCHEMAS[cmd]:
        inputs["base.model"] = pipeline["base"]
    if cmd == "bound-check":
        inputs["emg.model"] = pipeline["emg"]
    return inputs


@pytest.mark.parametrize("cmd", DATA_COMMANDS)
def test_empty_domain_exits_1_before_run_dir(pipeline, tmp_path, capsys, cmd):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    unseen = data / "unseen.csv"
    unseen.write_text(unseen.read_text().splitlines(keepends=True)[0])  # the header alone
    _reseal(data)
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **_data_inputs(pipeline, cmd, data)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "unseen.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", DATA_COMMANDS)
def test_domains_of_different_widths_exit_1_before_run_dir(pipeline, tmp_path, capsys, cmd):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "train_domain_1.csv"
    domain = load_csv_dataset(str(path))
    width = domain.dim
    save_csv_dataset(DomainDataset(domain.features[:, 1:], domain.labels, 1), str(path))
    _reseal(data)
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **_data_inputs(pipeline, cmd, data)) == 1
    err = capsys.readouterr().err
    assert err.count("error code=") == 1 and err.startswith("error code=1")
    assert "Traceback" not in err
    assert f"train_domain_1.csv in {data} has {width - 1} features" in err
    assert f"train_domain_0.csv has {width}" in err
    assert not out.exists()


def _duplicate_train_domain(data):
    shutil.copy(data / "train_domain_0.csv", data / "train_domain_9.csv")
    _list_in_manifest(data, "train_domain_9.csv")
    return "train_domain_0.csv and train_domain_9.csv"


def _unseen_as_train_domain(data):
    unseen = load_csv_dataset(str(data / "unseen.csv"))
    save_csv_dataset(DomainDataset(unseen.features, unseen.labels, 1), str(data / "unseen.csv"))
    _reseal(data)
    return "train_domain_1.csv and unseen.csv"


@pytest.mark.parametrize("duplicate", [_duplicate_train_domain, _unseen_as_train_domain])
@pytest.mark.parametrize("cmd", DATA_COMMANDS)
def test_duplicate_domain_index_exits_1_before_run_dir(
    pipeline, tmp_path, capsys, cmd, duplicate
):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    files = duplicate(data)
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **_data_inputs(pipeline, cmd, data)) == 1
    err = capsys.readouterr().err
    assert err.count("error code=") == 1 and err.startswith("error code=1")
    assert "Traceback" not in err
    assert f"{files} in {data} share a domain index" in err
    assert not out.exists()


def test_train_erm_label_beyond_the_rows_exits_1_before_run_dir(pipeline, tmp_path, capsys):
    """The output layer is sized from the largest label, so a label of 10**12
    would ask for a 466 TiB weight: it fails closed before any allocation."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "train_domain_0.csv"
    domain = load_csv_dataset(str(path))
    domain.labels[3] = 10**12
    save_csv_dataset(domain, str(path))
    _reseal(data)
    out = tmp_path / "out"
    assert run_cmd("train-erm", pipeline["cfg"], out_dir=out, **{"data.dir": data}) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error code=1")
    assert "Traceback" not in err and f"largest training label {10**12}" in err
    assert not out.exists()


def test_os_error_exits_1_with_one_line(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"not a run directory\n")
    inputs = {"data.dir": pipeline["data"], "base.model": pipeline["base"]}
    assert run_cmd("eval", pipeline["cfg"], out_dir=out, **inputs) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error code=1")
    assert "Traceback" not in err
    assert out.read_bytes() == b"not a run directory\n"
    # The config file's own read errors stay config errors.
    assert run_cmd("eval", tmp_path / "no_config.txt", out_dir=tmp_path / "x", **inputs) == 3
    assert capsys.readouterr().err.startswith("error code=3")


@pytest.mark.parametrize(
    "shared",
    [[99], "abc", [0.5], [0, 4]],
    ids=["beyond-embedding", "not-a-list", "not-ints", "overlaps-specific"],
)
def test_tampered_oracle_dims_exit_1_before_run_dir(pipeline, tmp_path, capsys, shared):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    path = data / "oracle.json"
    blob = json.loads(path.read_text())
    blob["shared_dims"] = shared
    path.write_text(json.dumps(blob))
    _reseal(data)
    out = tmp_path / "out"
    inputs = {"data.dir": data, "base.model": pipeline["base"], "emg.model": pipeline["emg"]}
    assert run_cmd("bound-check", pipeline["cfg"], out_dir=out, **inputs) == 1
    err = capsys.readouterr().err
    assert err.count("error code=") == 1 and err.startswith("error code=1")
    assert "Traceback" not in err
    assert not out.exists()


def test_bound_check_mask_not_shaped_like_z_exits_1(pipeline, tmp_path, capsys, monkeypatch):
    """The generator's width is checked before any mask is made, so only a
    replaced mask source reaches bound_terms' own ShapeMismatchError."""
    from embmask import cli

    monkeypatch.setattr(cli, "emg_masks", lambda gen, x, cfg, seed=0: np.ones((len(x) + 1, 3)))
    out = tmp_path / "out"
    inputs = {"data.dir": pipeline["data"], "base.model": pipeline["base"], "emg.model": pipeline["emg"]}
    assert run_cmd("bound-check", pipeline["cfg"], out_dir=out, **inputs) == 1
    err = capsys.readouterr().err
    assert err.startswith('error code=1 msg="masks shape') and "Traceback" not in err
    assert not out.exists()


def test_failed_training_leaves_no_run_dir(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    for path in data.glob("train_domain_*.csv"):
        domain = load_csv_dataset(str(path))
        domain.labels[:] = 0  # one class: ERM has nothing to learn
        save_csv_dataset(domain, str(path))
    _reseal(data)
    out = tmp_path / "out"
    assert run_cmd("train-erm", pipeline["cfg"], out_dir=out, **{"data.dir": data}) == 1
    assert capsys.readouterr().err.startswith("error code=1")
    assert not out.exists()


def test_non_utf8_domain_csv_exits_1_before_run_dir(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    csv_path = data / "train_domain_0.csv"
    csv_path.write_bytes(csv_path.read_bytes() + b"\xff\n")
    _reseal(data)
    out = tmp_path / "out"
    assert run_cmd("train-erm", pipeline["cfg"], out_dir=out, **{"data.dir": data}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "train_domain_0.csv" in err and "UTF-8" in err
    assert not out.exists()


def test_inputs_outside_the_manifest_are_not_read(pipeline, tmp_path, capsys):
    cfg, base = pipeline["cfg"], pipeline["base"]
    # gen-data with fewer domains into the same directory leaves the old
    # train_domain_2.csv behind, outside the new manifest.
    data = tmp_path / "data"
    for domains in (3, 2):
        bench = {**SMALL_BENCH, "benchmark.num_train_domains": domains}
        assert run_cmd("gen-data", cfg, out_dir=data, **bench) == 0
    assert (data / "train_domain_2.csv").exists()
    out = tmp_path / "eval"
    assert run_cmd("eval", cfg, out_dir=out, **{"data.dir": data, "base.model": base}) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["per_domain_mean"]) == [
        "train_domain_0", "train_domain_1", "train_pooled", "unseen",
    ]

    # eval into the directory of a copy of a train-erm run: base_model.*
    # stay on disk but are no longer part of that run.
    erm = tmp_path / "erm"
    shutil.copytree(base.parent, erm)
    stale = erm / base.name
    assert run_cmd("eval", cfg, out_dir=erm, **{"data.dir": data, "base.model": base}) == 0
    capsys.readouterr()
    out = tmp_path / "eval_stale"
    assert run_cmd("eval", cfg, out_dir=out, **{"data.dir": data, "base.model": stale}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "manifest" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def past_the_guard(tmp_path_factory):
    """A data directory whose finite features are near 1e300, and a 2-epoch
    base model trained on the default data: the embedding is past permutation
    importance's overflow guard."""
    root = tmp_path_factory.mktemp("past_the_guard")
    cfg = root / "cfg.txt"
    cfg.write_text("seed = 0\nout_dir = unused\n")
    assert run_cmd("gen-data", cfg, out_dir=root / "data") == 0
    assert run_cmd("gen-data", cfg, out_dir=root / "huge", **{"benchmark.noise_sigma": 1e300}) == 0
    assert run_cmd("train-erm", cfg, out_dir=root / "erm", **{"data.dir": root / "data", "train.max_epochs": 2}) == 0
    return cfg, {"data.dir": root / "huge", "base.model": root / "erm" / "base_model"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "cmd, overrides",
    [("sweep-global", {}), ("eval", {"eval.mode": "global"}), ("export-embeddings", {"eval.mode": "global"})],
    ids=["sweep-global", "eval-global", "export-embeddings-global"],
)
def test_embedding_past_the_overflow_guard_exits_1_before_run_dir(past_the_guard, tmp_path, capsys, cmd, overrides):
    """The global mask is refused before anything is predicted, so no
    product overflows, and before ``out_dir`` exists."""
    cfg, inputs = past_the_guard
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cmd(cmd, cfg, out_dir=out, **inputs, **overrides) == 1
    err = capsys.readouterr().err
    assert err.startswith('error code=1 msg="permutation importance: overflow bound')
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_artifact_digest_chain_covers_every_code_path(monkeypatch):
    """scripts/artifact_digests.py is the byte-identity check of refactors:
    its CHAIN runs every command, every eval.mode of each command that takes
    one, every inference mode of eval, and both export.which values."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the script sets it on import
    path = Path(__file__).parents[1] / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def used(key):
        """(command, value of ``key``) for every CHAIN run whose command takes it."""
        return {
            (cmd, settings.get(key, SCHEMAS[cmd][key].default))
            for cmd, _out, settings in script.CHAIN
            if key in SCHEMAS[cmd]
        }

    assert {cmd for cmd, _out, _settings in script.CHAIN} == set(COMMANDS)
    mode_commands = [cmd for cmd, schema in SCHEMAS.items() if "eval.mode" in schema]
    assert used("eval.mode") == {(cmd, m) for cmd in mode_commands for m in EVAL_MODES}
    assert used("export.which") == {("export-embeddings", w) for w in EXPORT_WHICH}
    assert {m for cmd, m in used("mask.inference_mode") if cmd == "eval"} == set(INFERENCE_MODES)


@pytest.fixture(scope="module")
def digest_chain(tmp_path_factory):
    """The 14 run directories of scripts/artifact_digests.py, run in its own
    process so that no state of this one leaks into it: (out root, process)."""
    root = Path(__file__).parents[1]
    out = tmp_path_factory.mktemp("digest_chain")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "artifact_digests.py"), str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out, proc


def test_artifact_digests_match_golden(digest_chain):
    """The 14 run directories of scripts/artifact_digests.py are byte for
    byte those recorded in tests/golden/artifact_digests.txt."""
    root = Path(__file__).parents[1]
    _, proc = digest_chain
    golden = (root / "tests" / "golden" / "artifact_digests.txt").read_text()
    moved = sorted({line.split()[-1] for line in set(proc.stdout.splitlines()) ^ set(golden.splitlines())})
    assert proc.stdout == golden, f"run directories that differ: {', '.join(moved)}; {numeric_environment()}"


def _readme_text() -> str:
    """README.md with every run of whitespace, line breaks included, one space."""
    return " ".join((Path(__file__).parents[1] / "README.md").read_text().split())


def test_readme_violation_counts_are_the_chains_bound_report(digest_chain):
    out, _ = digest_chain
    report = json.loads((out / "bound" / "bound.json").read_text())
    stated = re.search(r"(\d+) of (\d+) \(L2\) and (\d+) \(L1\) in the run of `scripts/artifact_digests\.py`", _readme_text())
    assert stated, "the README quotes no violation counts of the digest chain"
    l2, n, l1 = map(int, stated.groups())
    assert (l2, n, l1) == (report["L2"]["violation_count"], report["L2"]["n"], report["L1"]["violation_count"])


def _keys(cmd: str, prefix: str) -> set[str]:
    return {key for key in SCHEMAS[cmd] if key.startswith(prefix)}


def test_readme_key_counts_and_lists_are_the_schemas():
    text = _readme_text()
    counts = re.search(r"The (\w+) commands take (\d+) distinct keys, (\d+) over all commands", text)
    assert counts, "the README states no key counts"
    assert counts.groups() == ("seven", str(len(set().union(*SCHEMAS.values()))), str(sum(map(len, SCHEMAS.values()))))
    assert len(SCHEMAS) == 7
    gen = re.search(r"`gen-data` takes every `benchmark\.\*` key: (.*?)\.", text)
    assert {f"benchmark.{name}" for name in re.findall(r"`(\w+)`", gen.group(1))} == _keys("gen-data", "benchmark.")
    assert "`train-erm` takes `train.max_epochs`, the one `train.*` key" in text
    assert _keys("train-erm", "train.") == {f"train.{f.name}" for f in fields(TrainConfig)} - {"train.seed"}
    assert _keys("train-erm", "train.") == {"train.max_epochs"}
    assert "`train-emg` takes no `train.*` key" in text
    assert _keys("train-emg", "train.") == set()
    recipe = re.search(
        r"Batch size (\d+), learning rate (\S+), patience (\d+) and validation share (\S+) are the constants "
        r"`BATCH_SIZE`, `LEARNING_RATE`, `PATIENCE` and `VAL_FRACTION` of `embmask.train`",
        text,
    )
    assert recipe, "the README states no training constants"
    assert tuple(map(float, recipe.groups())) == (BATCH_SIZE, LEARNING_RATE, PATIENCE, VAL_FRACTION)
    assert "Of the `mask.*` keys it takes `mask.tau`, the one that training reads" in text
    assert _keys("train-emg", "mask.") == {"mask.tau"}
    both = re.search(r"`eval`, `bound-check` and `export-embeddings` take both `mask\.\*` keys \((.*?)\)", text)
    for cmd in ("eval", "bound-check", "export-embeddings"):
        assert set(re.findall(r"`([\w.]+)`", both.group(1))) == _keys(cmd, "mask."), cmd


def test_readme_exit_codes_are_the_clis():
    stated = re.search(
        r"Exit codes: `(\d+)` success, `(\d+)` missing input artifact, `(\d+)` configuration error .*?, `(\d+)` any other error",
        _readme_text(),
    )
    assert stated, "the README lists no exit codes"
    # ``main`` returns a literal 1 for every error without a code of its own.
    assert tuple(map(int, stated.groups())) == (EXIT_OK, EXIT_MISSING_ARTIFACT, EXIT_CONFIG_ERROR, 1)


def test_every_chain_csv_is_one_dialect(digest_chain):
    """Every CSV the 14 chain runs write is one header row, then rows of as
    many cells, every line ending in CRLF, no line a reader must skip, and a
    body that ``np.loadtxt`` parses whole."""
    out, _ = digest_chain
    paths = sorted(out.rglob("*.csv"))
    assert {p.relative_to(out).parts[0] for p in paths} >= {"data", "erm", "emg", "sweep", "export_none"}
    for path in paths:
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), path
        lines = raw.decode().split("\r\n")[:-1]
        header = lines[0].split(",")
        assert all(cell.isidentifier() for cell in header), path
        assert not [line for line in lines if line.startswith("#")], path
        assert all(len(line.split(",")) == len(header) for line in lines[1:]), path
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert body.shape == (len(lines) - 1, len(header)), path
