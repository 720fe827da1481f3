"""Command-line front end.

One config file per command (strict flat key/value format, see config.py)
with ``--set key=value`` overrides. Every command writes into a fresh or
existing run directory whose artifacts are checksummed in a manifest, and is
idempotent given identical config and seed. Exit codes: 0 success, 2 missing
input artifact, 3 config parse error, 1 anything else.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from .baseline import sweep_mask_percent, permutation_importance, global_mask_from_scores
from .config import Field, load_config, parse_grid, parse_hidden
from .errors import ConfigError, EmbmaskError
from .evaluate import (
    DISTANCE_KINDS,
    RunReport,
    accuracy,
    bound_terms,
    emg_masks,
    export_embeddings,
    export_masks,
)
from .mask import MaskGenConfig
from .nn import Mlp, load_params, save_params, split_model
from .rundir import RunDirectory
from .synthbench import (
    BenchmarkSpec,
    DomainDataset,
    generate_benchmark,
    load_csv_dataset,
    load_oracle,
    pool_domains,
    save_csv_dataset,
    save_oracle,
)
from .train import TrainConfig, train_emg, train_erm

EXIT_OK = 0
EXIT_MISSING_ARTIFACT = 2
EXIT_CONFIG_ERROR = 3


class MissingArtifact(EmbmaskError):
    pass


# -- schemas -----------------------------------------------------------------

_COMMON = {
    "seed": Field(int, required=True),
    "out_dir": Field(str, required=True),
}


def _section(cls, prefix: str, *skip: str, **defaults) -> dict[str, Field]:
    """A ``prefix.<field>`` key for each field of dataclass ``cls`` not in
    ``skip``, typed like the field and defaulted by ``defaults`` or the field."""
    types = get_type_hints(cls)
    return {
        f"{prefix}.{f.name}": Field(types[f.name], defaults.get(f.name, f.default))
        for f in fields(cls)
        if f.name not in skip
    }


def _build(cls, cfg: dict, prefix: str, **fixed):
    """``cls`` from the ``prefix.*`` keys of ``cfg``; ``fixed`` supplies the
    fields that have no key of their own."""
    head = prefix + "."
    kwargs = {k[len(head):]: v for k, v in cfg.items() if k.startswith(head)}
    return cls(**kwargs, **fixed)


_MASK = _section(MaskGenConfig, "mask")

# Where eval and export-embeddings take their mask from: none, a global
# bottom-p% permutation-importance mask, or the trained generator.
_MASK_SOURCE = {
    "eval.mode": Field(str, "none"),
    "emg.model": Field(str, ""),
    "eval.mask_percent": Field(float, 50.0),
    "eval.repeats": Field(int, 5),
    **_MASK,
}

_BASE = {
    "data.dir": Field(str, required=True),
    "base.model": Field(str, ""),
    "base.split_index": Field(int, -1),  # -1: last linear layer is predictor
}

SCHEMAS: dict[str, dict[str, Field]] = {
    "gen-data": {**_COMMON, **_section(BenchmarkSpec, "benchmark", "seed")},
    "train-erm": {
        **_COMMON,
        "data.dir": Field(str, required=True),
        "model.hidden": Field(str, "64"),
        # hard_target is an EMG ablation: ERM trains on the labels.
        **_section(TrainConfig, "train", "seed", "hard_target", max_epochs=80),
    },
    "train-emg": {
        **_COMMON,
        **_BASE,
        "emg.hidden": Field(str, "32"),
        # Short fit on purpose: trained to convergence the generator's
        # objective is minimized by the keep-everything mask, so the
        # filtering benefit lives in the early epochs.
        "emg.max_epochs": Field(int, 3),
        **_section(TrainConfig, "train", "seed", "max_epochs"),
        # Training draws its own noise: the inference settings do not apply.
        **_section(MaskGenConfig, "mask", "inference_mode", "sample_count"),
    },
    "eval": {**_COMMON, **_BASE, **_MASK_SOURCE},
    "sweep-global": {
        **_COMMON,
        **_BASE,
        "sweep.grid": Field(str, ",".join(str(p) for p in range(0, 95, 5))),
        "sweep.repeats": Field(int, 5),
    },
    "bound-check": {
        **_COMMON,
        **_BASE,
        "emg.model": Field(str, ""),
        "bound.distance": Field(str, "both"),
        **_MASK,
    },
    "export-embeddings": {
        **_COMMON,
        **_BASE,
        "export.which": Field(str, "unseen"),
        **_MASK_SOURCE,
    },
}


# -- shared helpers ------------------------------------------------------------


def _require_path(path: str, what: str) -> str:
    if not path:
        raise MissingArtifact(f"{what} not configured")
    if not os.path.exists(path):
        raise MissingArtifact(f"{what} not found: {path}")
    return path


def _load_model(prefix: str, what: str):
    """Parameters saved at ``prefix`` inside a verified run directory."""
    if not prefix:
        raise MissingArtifact(f"{what} not configured")
    for suffix in (".manifest", ".params"):
        if not os.path.exists(prefix + suffix):
            raise MissingArtifact(f"{what} not found: {prefix}{suffix}")
    RunDirectory.verify(os.path.dirname(prefix) or ".")
    return load_params(prefix)


def _load_data_dir(data_dir: str):
    _require_path(data_dir, "data directory")
    train_paths = sorted(glob.glob(os.path.join(data_dir, "train_domain_*.csv")))
    unseen_path = os.path.join(data_dir, "unseen.csv")
    oracle_path = os.path.join(data_dir, "oracle.json")
    if not train_paths or not os.path.exists(unseen_path):
        raise MissingArtifact(f"no benchmark CSVs in {data_dir}")
    RunDirectory.verify(data_dir)
    oracle = load_oracle(oracle_path) if os.path.exists(oracle_path) else None

    def load(path: str) -> DomainDataset:
        data = load_csv_dataset(path)
        data.oracle = oracle
        return data

    return [load(p) for p in train_paths], load(unseen_path), oracle


def _load_split(cfg):
    store = _load_model(cfg["base.model"], "base model")
    store.freeze()
    model = Mlp.from_store(store)
    idx = cfg["base.split_index"]
    return split_model(model, None if idx < 0 else idx)


def _load_generator(cfg) -> Mlp:
    return Mlp.from_store(_load_model(cfg["emg.model"], "EMG model"), prefix="g.")


def _mask_source(cfg, split, train_data):
    """``masks_for(data)`` for the configured eval.mode: None, the global
    bottom-p% mask, or the generator's per-sample masks for ``data``."""
    mode = cfg["eval.mode"]
    if mode not in ("none", "global", "emg"):
        raise ConfigError(f"unknown eval mode {mode!r}")
    mask_cfg = _build(MaskGenConfig, cfg, "mask")
    if mode == "none":
        return lambda data: None
    if mode == "global":
        rng = np.random.default_rng(np.random.SeedSequence((cfg["seed"], 0x6B)))
        report = permutation_importance(split, train_data, cfg["eval.repeats"], rng)
        mask = global_mask_from_scores(report.scores, cfg["eval.mask_percent"])
        return lambda data: mask
    gen = _load_generator(cfg)
    return lambda data: emg_masks(gen, data.features, mask_cfg, seed=cfg["seed"])


def _snapshot(run: RunDirectory, cfg: dict) -> None:
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    run.write_text("config.txt", "\n".join(lines) + "\n")


# -- commands -------------------------------------------------------------------


def cmd_gen_data(cfg) -> int:
    spec = _build(BenchmarkSpec, cfg, "benchmark", seed=cfg["seed"])
    train, unseen, oracle = generate_benchmark(spec)
    run = RunDirectory(cfg["out_dir"])
    _snapshot(run, cfg)
    for d in train:
        name = f"train_domain_{d.domain_index}.csv"
        save_csv_dataset(d, run.file(name))
        run.register(name)
    save_csv_dataset(unseen, run.file("unseen.csv"))
    save_oracle(oracle, run.file("oracle.json"))
    run.register("unseen.csv", "oracle.json")
    run.finalize()
    return EXIT_OK


def cmd_train_erm(cfg) -> int:
    train_data, _unseen, _oracle = _load_data_dir(cfg["data.dir"])
    tc = _build(TrainConfig, cfg, "train", seed=cfg["seed"])
    hidden = parse_hidden(cfg["model.hidden"])
    run = RunDirectory(cfg["out_dir"])
    _snapshot(run, cfg)
    dim = train_data[0].dim
    n_classes = int(max(d.labels.max() for d in train_data)) + 1
    model, trace = train_erm(tc, train_data, [dim, *hidden, n_classes])
    save_params(model.store, run.file("base_model"))
    trace.to_csv(run.file("erm_trace.csv"))
    run.register("base_model.manifest", "base_model.params", "erm_trace.csv")
    run.finalize()
    return EXIT_OK


def cmd_train_emg(cfg) -> int:
    split = _load_split(cfg)
    train_data, _unseen, _oracle = _load_data_dir(cfg["data.dir"])
    hidden = parse_hidden(cfg["emg.hidden"])
    tc = _build(TrainConfig, cfg, "train", seed=cfg["seed"], max_epochs=cfg["emg.max_epochs"])
    mask_cfg = _build(MaskGenConfig, cfg, "mask")
    run = RunDirectory(cfg["out_dir"])
    _snapshot(run, cfg)
    gen = Mlp(
        [train_data[0].dim, *hidden, split.embedding_dim],
        prefix="g.",
        seed=cfg["seed"] + 1,
    )
    gen, trace = train_emg(split, gen, train_data, mask_cfg, tc)
    save_params(gen.store, run.file("emg_model"))
    trace.to_csv(run.file("emg_trace.csv"))
    run.register("emg_model.manifest", "emg_model.params", "emg_trace.csv")
    run.finalize()
    return EXIT_OK


def cmd_eval(cfg) -> int:
    split = _load_split(cfg)
    train_data, unseen, _oracle = _load_data_dir(cfg["data.dir"])
    masks_for = _mask_source(cfg, split, train_data)
    run = RunDirectory(cfg["out_dir"])
    _snapshot(run, cfg)

    report = RunReport(seeds=[cfg["seed"]], config_echo={k: str(v) for k, v in cfg.items()})
    named = [(f"train_domain_{d.domain_index}", d) for d in train_data]
    named += [("train_pooled", pool_domains(train_data)), ("unseen", unseen)]
    for key, data in named:
        report.per_domain_mean[key] = accuracy(split, data, masks_for(data))
        report.per_domain_stderr[key] = 0.0
    report.to_json(run.file("report.json"))
    run.register("report.json")
    run.finalize()
    return EXIT_OK


def cmd_sweep_global(cfg) -> int:
    split = _load_split(cfg)
    train_data, unseen, _oracle = _load_data_dir(cfg["data.dir"])
    grid = parse_grid(cfg["sweep.grid"])
    run = RunDirectory(cfg["out_dir"])
    _snapshot(run, cfg)
    rng = np.random.default_rng(np.random.SeedSequence((cfg["seed"], 0x6B)))
    table = sweep_mask_percent(
        split,
        train_data,
        unseen,
        percent_grid=grid,
        repeats=cfg["sweep.repeats"],
        rng=rng,
    )
    table.to_csv(run.file("sweep.csv"))
    run.register("sweep.csv")
    run.finalize()
    return EXIT_OK


def cmd_bound_check(cfg) -> int:
    distance = cfg["bound.distance"]
    if distance not in ("both", *DISTANCE_KINDS):
        raise ConfigError(f"bound.distance must be both, L1 or L2, got {distance!r}")
    mask_cfg = _build(MaskGenConfig, cfg, "mask")
    split = _load_split(cfg)
    _train_data, unseen, oracle = _load_data_dir(cfg["data.dir"])
    if oracle is None:
        raise MissingArtifact(f"oracle.json missing in {cfg['data.dir']}")
    gen = _load_generator(cfg)
    run = RunDirectory(cfg["out_dir"])
    _snapshot(run, cfg)

    kinds = ("L1", "L2") if distance == "both" else (distance,)
    z = split.encode_np(unseen.features)
    masks = emg_masks(gen, unseen.features, mask_cfg, seed=cfg["seed"])
    reports = {k: bound_terms(split, oracle, z, masks, k).to_dict() for k in kinds}
    run.write_text("bound.json", json.dumps(reports, indent=1, sort_keys=True) + "\n")
    run.finalize()
    return EXIT_OK


def cmd_export_embeddings(cfg) -> int:
    which = cfg["export.which"]
    if which not in ("train", "unseen"):
        raise ConfigError(f"export.which must be train or unseen, got {which!r}")
    split = _load_split(cfg)
    train_data, unseen, _oracle = _load_data_dir(cfg["data.dir"])
    masks_for = _mask_source(cfg, split, train_data)
    run = RunDirectory(cfg["out_dir"])
    _snapshot(run, cfg)

    for data in train_data if which == "train" else [unseen]:
        masks = masks_for(data)
        if cfg["eval.mode"] == "emg":
            mask_name = f"masks_{data.domain_index}.csv"
            export_masks(masks, run.file(mask_name))
            run.register(mask_name)
        name = f"embeddings_{data.domain_index}.csv"
        export_embeddings(split, data, run.file(name), masks)
        run.register(name)
    run.finalize()
    return EXIT_OK


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-erm": cmd_train_erm,
    "train-emg": cmd_train_emg,
    "eval": cmd_eval,
    "sweep-global": cmd_sweep_global,
    "bound-check": cmd_bound_check,
    "export-embeddings": cmd_export_embeddings,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="embmask",
        description="Embedding-mask domain generalization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key",
        )
    args = parser.parse_args(argv)

    try:
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            overrides[key.strip()] = value.strip()
        cfg = load_config(args.config, SCHEMAS[args.command], overrides)
        if "EMBMASK_OUT_DIR" in os.environ:
            cfg["out_dir"] = os.environ["EMBMASK_OUT_DIR"]
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f'error code=3 msg="{exc}"', file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MissingArtifact as exc:
        print(f'error code=2 msg="{exc}"', file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except EmbmaskError as exc:
        print(f'error code=1 msg="{exc}"', file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
