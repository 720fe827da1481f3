"""Command-line front end.

One config file per command (strict flat key/value format, see config.py)
with ``--set key=value`` overrides; the config is the only way in, ``out_dir``
included. Every command writes into a fresh or existing run directory whose
artifacts are checksummed in a manifest, and is idempotent given identical
config and seed. Its ``config.txt`` holds only the keys that shaped the run:
``eval`` and ``export-embeddings`` leave out the mask-source keys their
``eval.mode`` does not read, and reject them unless they hold their defaults.
Exit codes: 0 success, 2 missing input artifact, 3 config error (including a
value out of range), 1 anything else (including inputs whose widths do not
fit together, and a domain CSV without rows). Configuration and inputs are
checked, and results computed, before ``out_dir`` is created, so a command
that fails leaves none behind; ``export-embeddings`` writes each domain's
files as it goes.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np

from .baseline import sweep_mask_percent, permutation_importance, global_mask_from_scores
from .config import Field, load_config, parse_grid, parse_hidden
from .errors import ConfigError, CorruptFileError, EmbmaskError, ShapeMismatchError
from .evaluate import (
    DISTANCE_KINDS,
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

# Where eval and export-embeddings take their mask from (none, a global
# bottom-p% permutation-importance mask, or the trained generator), each with
# the mask-source keys it reads. Any other mask-source key must keep its
# default, and config.txt leaves it out.
EVAL_MODES = {
    "none": (),
    "global": ("eval.mask_percent", "eval.repeats"),
    "emg": ("emg.model", *_MASK),
}
# The domains export-embeddings writes: every training domain, or the unseen one.
EXPORT_WHICH = ("train", "unseen")

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


def _require_path(path: str, what: str) -> None:
    if not path:
        raise MissingArtifact(f"{what} not configured")
    if not os.path.exists(path):
        raise MissingArtifact(f"{what} not found: {path}")


def _load_model(prefix: str, what: str):
    """Parameters saved at ``prefix``, listed in its run's verified manifest."""
    if not prefix:
        raise MissingArtifact(f"{what} not configured")
    run_path, name = os.path.split(prefix)
    files = (name + ".manifest", name + ".params")
    for file in files:
        _require_path(os.path.join(run_path, file), what)
    if not set(files) <= set(RunDirectory.verify(run_path or ".")):
        raise CorruptFileError(f"{what} {prefix} is not in its run's manifest")
    return load_params(prefix)


def _load_data_dir(data_dir: str):
    """Train domains, unseen domain and oracle (or None) listed in the
    verified manifest of ``data_dir``; every domain must have rows."""
    _require_path(data_dir, "data directory")
    listed = RunDirectory.verify(data_dir)
    train_names = sorted(fnmatch.filter(listed, "train_domain_*.csv"))
    if not train_names or "unseen.csv" not in listed:
        raise MissingArtifact(f"no benchmark CSVs in {data_dir}")
    oracle_path = os.path.join(data_dir, "oracle.json")
    oracle = load_oracle(oracle_path) if "oracle.json" in listed else None
    names = [*train_names, "unseen.csv"]
    domains = [load_csv_dataset(os.path.join(data_dir, n)) for n in names]
    for name, data in zip(names, domains):
        if data.n == 0:
            raise CorruptFileError(f"{name} in {data_dir} has no rows")
    return domains[:-1], domains[-1], oracle


def _load_split(cfg, dim: int):
    """The frozen base model split at ``base.split_index``; it must take
    ``dim`` features."""
    store = _load_model(cfg["base.model"], "base model")
    store.freeze()
    model = Mlp.from_store(store)
    idx = cfg["base.split_index"]
    if idx != -1 and not 0 <= idx < model.n_layers:
        raise ConfigError(f"base.split_index must be -1 or in [0, {model.n_layers}), got {idx}")
    if model.layer_sizes[0] != dim:
        raise ShapeMismatchError(
            f"base model takes {model.layer_sizes[0]} features, the data has {dim}"
        )
    return split_model(model, None if idx == -1 else idx)


def _load_generator(cfg, split, dim: int) -> Mlp:
    """The mask generator; it must map ``dim`` features to a mask as wide as
    ``split``'s embedding."""
    gen = Mlp.from_store(_load_model(cfg["emg.model"], "EMG model"), prefix="g.")
    widths = (gen.layer_sizes[0], gen.layer_sizes[-1])
    if widths != (dim, split.embedding_dim):
        raise ShapeMismatchError(
            f"EMG model maps {widths[0]} features to {widths[1]} mask values; "
            f"data has {dim} features, the embedding {split.embedding_dim} values"
        )
    return gen


def _mask_source(cfg, mode, split, train_data):
    """``masks_for(data)`` for mask source ``mode``: None, the global
    bottom-p% mask, or the generator's per-sample masks for ``data``. Drops
    from ``cfg`` the mask-source keys ``mode`` does not read."""
    if mode not in EVAL_MODES:
        raise ConfigError(f"unknown eval mode {mode!r}")
    unread = [k for k in _MASK_SOURCE if k not in ("eval.mode", *EVAL_MODES[mode])]
    for key in unread:
        if key in cfg and cfg.pop(key) != _MASK_SOURCE[key].default:
            raise ConfigError(f"{key} is not read with eval.mode = {mode}")
    if mode == "none":
        return lambda data: None
    if mode == "global":
        percent, repeats = cfg["eval.mask_percent"], cfg["eval.repeats"]
        if not (0.0 <= percent <= 100.0 and repeats >= 1):
            raise ConfigError("eval.mask_percent must be in [0, 100] and eval.repeats >= 1")
        rng = np.random.default_rng(np.random.SeedSequence((cfg["seed"], 0x6B)))
        pooled = pool_domains(train_data)
        z = split.encode_np(pooled.features)
        scores = permutation_importance(split, z, pooled.labels, repeats, rng)
        mask = global_mask_from_scores(scores, percent)
        return lambda data: mask
    mask_cfg = _build(MaskGenConfig, cfg, "mask")
    gen = _load_generator(cfg, split, train_data[0].dim)
    return lambda data: emg_masks(gen, data.features, mask_cfg, seed=cfg["seed"])


# -- commands -------------------------------------------------------------------


def cmd_gen_data(cfg) -> None:
    spec = _build(BenchmarkSpec, cfg, "benchmark", seed=cfg["seed"])
    train, unseen, oracle = generate_benchmark(spec)
    run = RunDirectory(cfg["out_dir"], cfg)
    for d in train:
        name = f"train_domain_{d.domain_index}.csv"
        save_csv_dataset(d, run.file(name))
        run.register(name)
    save_csv_dataset(unseen, run.file("unseen.csv"))
    save_oracle(oracle, run.file("oracle.json"))
    run.register("unseen.csv", "oracle.json")
    run.finalize()


def cmd_train_erm(cfg) -> None:
    train_data, _unseen, _oracle = _load_data_dir(cfg["data.dir"])
    tc = _build(TrainConfig, cfg, "train", seed=cfg["seed"])
    hidden = parse_hidden(cfg["model.hidden"])
    dim = train_data[0].dim
    n_classes = int(max(d.labels.max() for d in train_data)) + 1
    model, trace = train_erm(tc, train_data, [dim, *hidden, n_classes])
    run = RunDirectory(cfg["out_dir"], cfg)
    save_params(model.store, run.file("base_model"))
    trace.to_csv(run.file("erm_trace.csv"))
    run.register("base_model.manifest", "base_model.params", "erm_trace.csv")
    run.finalize()


def cmd_train_emg(cfg) -> None:
    train_data, _unseen, _oracle = _load_data_dir(cfg["data.dir"])
    split = _load_split(cfg, train_data[0].dim)
    hidden = parse_hidden(cfg["emg.hidden"])
    tc = _build(TrainConfig, cfg, "train", seed=cfg["seed"], max_epochs=cfg["emg.max_epochs"])
    mask_cfg = _build(MaskGenConfig, cfg, "mask")
    gen = Mlp(
        [train_data[0].dim, *hidden, split.embedding_dim],
        prefix="g.",
        seed=cfg["seed"] + 1,
    )
    gen, trace = train_emg(split, gen, train_data, mask_cfg, tc)
    run = RunDirectory(cfg["out_dir"], cfg)
    save_params(gen.store, run.file("emg_model"))
    trace.to_csv(run.file("emg_trace.csv"))
    run.register("emg_model.manifest", "emg_model.params", "emg_trace.csv")
    run.finalize()


def cmd_eval(cfg) -> None:
    train_data, unseen, _oracle = _load_data_dir(cfg["data.dir"])
    split = _load_split(cfg, train_data[0].dim)
    masks_for = _mask_source(cfg, cfg["eval.mode"], split, train_data)

    named = [(f"train_domain_{d.domain_index}", d) for d in train_data]
    named += [("train_pooled", pool_domains(train_data)), ("unseen", unseen)]
    means = {key: accuracy(split, data, masks_for(data)) for key, data in named}
    report = json.dumps({"per_domain_mean": means}, indent=1, sort_keys=True)
    run = RunDirectory(cfg["out_dir"], cfg)
    run.write_text("report.json", report + "\n")
    run.finalize()


def cmd_sweep_global(cfg) -> None:
    train_data, unseen, _oracle = _load_data_dir(cfg["data.dir"])
    split = _load_split(cfg, train_data[0].dim)
    grid = parse_grid(cfg["sweep.grid"])
    if cfg["sweep.repeats"] < 1:
        raise ConfigError(f"sweep.repeats must be >= 1, got {cfg['sweep.repeats']}")
    rng = np.random.default_rng(np.random.SeedSequence((cfg["seed"], 0x6B)))
    table = sweep_mask_percent(
        split,
        train_data,
        unseen,
        percent_grid=grid,
        repeats=cfg["sweep.repeats"],
        rng=rng,
    )
    run = RunDirectory(cfg["out_dir"], cfg)
    table.to_csv(run.file("sweep.csv"))
    run.register("sweep.csv")
    run.finalize()


def cmd_bound_check(cfg) -> None:
    train_data, unseen, oracle = _load_data_dir(cfg["data.dir"])
    if oracle is None:
        raise MissingArtifact(f"oracle.json missing in {cfg['data.dir']}")
    split = _load_split(cfg, train_data[0].dim)
    masks = _mask_source(cfg, "emg", split, train_data)(unseen)
    z = split.encode_np(unseen.features)
    reports = {k: asdict(bound_terms(split, oracle, z, masks, k)) for k in DISTANCE_KINDS}

    run = RunDirectory(cfg["out_dir"], cfg)
    run.write_text("bound.json", json.dumps(reports, indent=1, sort_keys=True) + "\n")
    run.finalize()


def cmd_export_embeddings(cfg) -> None:
    which = cfg["export.which"]
    if which not in EXPORT_WHICH:
        raise ConfigError(f"export.which must be train or unseen, got {which!r}")
    train_data, unseen, _oracle = _load_data_dir(cfg["data.dir"])
    split = _load_split(cfg, train_data[0].dim)
    masks_for = _mask_source(cfg, cfg["eval.mode"], split, train_data)
    run = RunDirectory(cfg["out_dir"], cfg)

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
        if cfg["seed"] < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
        COMMANDS[args.command](cfg)
        return EXIT_OK
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
