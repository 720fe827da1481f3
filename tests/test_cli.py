"""End-to-end CLI: run directories, exit codes, determinism."""

import hashlib
import importlib.util
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from embmask.cli import COMMANDS, EVAL_MODES, EXPORT_WHICH, SCHEMAS, main
from embmask.nn import ParamStore, load_params, save_params
from embmask.rundir import RunDirectory
from embmask.synthbench import load_csv_dataset, save_csv_dataset

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
_BASE = [*_RUN, "data.dir", "base.model", "base.split_index"]
_MASK = ["mask.tau", "mask.inference_mode", "mask.sample_count"]
_MASK_SOURCE = ["eval.mode", "emg.model", "eval.mask_percent", "eval.repeats", *_MASK]
_TRAIN = ["train.batch_size", "train.learning_rate", "train.patience", "train.val_fraction"]

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
                "noise_sigma", "mixing",
            )
        ),
    ],
    "train-erm": [*_RUN, "data.dir", "model.hidden", *_TRAIN, "train.max_epochs"],
    "train-emg": [
        *_BASE, "emg.hidden", "emg.max_epochs", *_TRAIN, "train.hard_target",
        "mask.tau",
    ],
    "eval": [*_BASE, *_MASK_SOURCE],
    "sweep-global": [*_BASE, "sweep.grid", "sweep.repeats"],
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
    trace = (emg_dir / "emg_trace.csv").read_text().splitlines()[1:]
    epochs = [row for row in trace if not row.startswith("#")]
    assert 1 <= len(epochs) <= int(config["emg.max_epochs"])


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


def test_eval_modes_and_report_shape(pipeline, tmp_path):
    cfg, data, base = pipeline["cfg"], pipeline["data"], pipeline["base"]
    # The mask-source keys each mode reads: config.txt records no others.
    for mode, extra, read in (
        ("none", {}, []),
        ("global", {"eval.mask_percent": 25}, ["eval.mask_percent", "eval.repeats"]),
        ("emg", {"emg.model": pipeline["emg"]}, ["emg.model", *_MASK]),
    ):
        out = tmp_path / f"eval_{mode}"
        code = run_cmd(
            "eval", cfg, out_dir=out, **{"data.dir": data, "base.model": base, "eval.mode": mode, **extra}
        )
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
    assert lines[0] == "percent,unseen_acc,train_acc"
    assert lines[1].startswith("0,")
    RunDirectory.verify(str(out))


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
        ("train-erm", {"train.val_fraction": 2}),
        ("sweep-global", {"sweep.grid": "0,x"}),
        *(
            pytest.param(cmd, {key: value}, id=f"{cmd}-{key}={value}")
            for cmd, key, value in (
                ("train-erm", "train.learning_rate", "nan"),
                ("train-erm", "train.learning_rate", -1),
                ("train-erm", "train.learning_rate", 0),
                ("train-emg", "mask.tau", "nan"),
                ("train-emg", "mask.tau", "inf"),
                # Keys a command does not read are not accepted.
                ("train-emg", "train.max_epochs", 5),
                ("train-erm", "train.hard_target", "true"),
                ("train-emg", "mask.sample_count", 4),
                # The Gumbel clamp is a constant, not a key.
                ("train-emg", "mask.clamp_eps", 1e-12),
                ("eval", "mask.clamp_eps", 1e-12),
                # Out-of-range values are config errors, not run failures.
                ("sweep-global", "sweep.grid", "10,20"),
                ("sweep-global", "sweep.grid", "0,150"),
                ("sweep-global", "sweep.repeats", 0),
                ("train-erm", "model.hidden", 0),
                ("train-emg", "emg.hidden", -3),
                # -1 or a layer index of the one-layer base model.
                ("eval", "base.split_index", -2),
                ("eval", "base.split_index", 5),
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
        pytest.param(
            "eval", {"eval.mode": "global", "eval.repeats": 0}, id="eval-global-eval.repeats=0"
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
            "eval", {"eval.mode": "emg", "eval.repeats": 2}, id="eval-emg-eval.repeats=2"
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else ",".join(v),
)
def test_bad_config_value_exits_3_before_run_dir(pipeline, tmp_path, capsys, cmd, overrides):
    inputs = {} if cmd == "gen-data" else {"data.dir": pipeline["data"]}
    if cmd not in ("gen-data", "train-erm"):
        inputs["base.model"] = pipeline["base"]
    if cmd == "bound-check" or overrides.get("eval.mode") == "emg":
        inputs["emg.model"] = pipeline["emg"]
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **inputs, **overrides) == 3
    err = capsys.readouterr().err
    assert "error code=3" in err
    assert str(overrides.get("export.which", "")) in err
    assert not out.exists()


def _model_run(path, store):
    """A complete run directory at ``path`` whose manifest lists the base
    model ``store``."""
    run = RunDirectory(str(path), {})
    save_params(store, run.file("base_model"))
    run.register("base_model.manifest", "base_model.params")
    run.finalize()
    return path / "base_model"


def _params(**shapes):
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, np.ones(shape))
    return store


@pytest.fixture(scope="module")
def misfits(pipeline):
    """A 16-feature data directory and a base model with a 12-wide
    embedding; the pipeline's models take 8 features and mask 8 values.
    Also base models, in runs that verify, with a NaN parameter, with a
    ``w1`` that does not take ``w0``'s width, and with ``b0`` missing."""
    root, cfg = pipeline["root"], pipeline["cfg"]
    wide = {**SMALL_BENCH, "benchmark.d_shared": 8, "benchmark.d_specific": 8}
    assert run_cmd("gen-data", cfg, out_dir=root / "data16", **wide) == 0
    erm = {"data.dir": pipeline["data"], "model.hidden": "12", "train.max_epochs": 1}
    assert run_cmd("train-erm", cfg, out_dir=root / "erm12", **erm) == 0
    nan = load_params(str(pipeline["base"]))
    nan["w0"][0, 0] = np.nan
    unchained = _params(w0=(8, 64), b0=(64,), w1=(32, 3), b1=(3,))
    return {
        "data16": root / "data16",
        "base12": root / "erm12" / "base_model",
        "nan_parameter": _model_run(root / "nan_parameter", nan),
        "unchained": _model_run(root / "unchained", unchained),
        "missing_bias": _model_run(root / "missing_bias", _params(w0=(8, 3))),
    }


@pytest.mark.parametrize(
    "cmd, misfit",
    [
        *((cmd, "data") for cmd in SCHEMAS if "base.model" in SCHEMAS[cmd]),
        *((cmd, "generator") for cmd in SCHEMAS if "emg.model" in SCHEMAS[cmd]),
        ("bound-check", "predictor"),
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
    elif misfit == "generator":  # the generator masks 8 values of a 12-wide embedding
        inputs = {"data.dir": pipeline["data"], "base.model": misfits["base12"]}
        if cmd != "bound-check":
            inputs["eval.mode"] = "emg"
    elif misfit == "predictor":  # split at 0, the predictor has two layers; the bound needs one
        inputs = {"data.dir": pipeline["data"], "base.model": misfits["base12"], "base.split_index": 0}
    else:  # a base model file that holds no usable model
        inputs = {"data.dir": pipeline["data"], "base.model": misfits[misfit]}
    if cmd == "bound-check" or inputs.get("eval.mode") == "emg":
        inputs["emg.model"] = pipeline["emg"]
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **inputs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "Traceback" not in err
    assert not out.exists()


def _corrupt_manifest(data, base):
    path = base.with_suffix(".manifest")
    path.write_text(path.read_text().replace(" offset=0 ", " ", 1))


def _corrupt_oracle(data, base):
    path = data / "oracle.json"
    path.write_text(path.read_text()[:100])


def _nan_feature(data, base):
    path = data / "unseen.csv"
    lines = path.read_text().splitlines()
    lines[5] = "nan" + lines[5][lines[5].index(",") :]
    path.write_text("\n".join(lines) + "\n")


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


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt_manifest,
        _corrupt_oracle,
        _nan_feature,
        _flip_param_byte,
        _incomplete_data_dir,
        _garbled_manifest_line,
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
    assert not out.exists()


def _reseal(run):
    """Rewrite the manifest of ``run`` to the current bytes of the files it lists."""
    manifest = run / "MANIFEST.txt"
    names = [line.split("  ", 1)[1] for line in manifest.read_text().splitlines()]
    digests = [hashlib.sha256((run / name).read_bytes()).hexdigest() for name in names]
    manifest.write_text("".join(f"{d}  {name}\n" for d, name in zip(digests, names)))


@pytest.mark.parametrize("cmd", [cmd for cmd in SCHEMAS if "data.dir" in SCHEMAS[cmd]])
def test_empty_domain_exits_1_before_run_dir(pipeline, tmp_path, capsys, cmd):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    unseen = data / "unseen.csv"
    unseen.write_text(unseen.read_text().splitlines(keepends=True)[0])  # the header alone
    _reseal(data)
    inputs = {"data.dir": data}
    if "base.model" in SCHEMAS[cmd]:
        inputs["base.model"] = pipeline["base"]
    if cmd == "bound-check":
        inputs["emg.model"] = pipeline["emg"]
    out = tmp_path / "out"
    assert run_cmd(cmd, pipeline["cfg"], out_dir=out, **inputs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "unseen.csv" in err
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

    # eval into the directory of a train-erm run: base_model.* stay on disk
    # but are no longer part of that run.
    erm = tmp_path / "erm"
    shutil.copytree(base.parent, erm)
    stale = erm / base.name
    assert run_cmd("eval", cfg, out_dir=erm, **{"data.dir": data, "base.model": stale}) == 0
    capsys.readouterr()
    out = tmp_path / "eval_stale"
    assert run_cmd("eval", cfg, out_dir=out, **{"data.dir": data, "base.model": stale}) == 1
    err = capsys.readouterr().err
    assert err.startswith("error code=1") and "manifest" in err
    assert not out.exists()


def test_artifact_digest_chain_covers_every_code_path(monkeypatch):
    """scripts/artifact_digests.py is the byte-identity check of refactors:
    its CHAIN runs every command, every eval.mode of each command that takes
    one, and both export.which values."""
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
