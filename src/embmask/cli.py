"""Command-line front end.

One config file per command (strict flat key/value format, see config.py)
with ``--set key=value`` overrides; the config is the only way in, ``out_dir``
included. Every command writes into a fresh or existing run directory whose
artifacts are checksummed in a manifest, and is idempotent given identical
config and seed. Its ``config.txt`` holds only the keys that shaped the run:
``eval`` and ``export-embeddings`` leave out the mask-source keys their
``eval.mode`` does not read, and reject them unless they hold their defaults.
Exit codes: 0 success, 2 missing input artifact, 3 config error (including a
value out of range and an ``out_dir`` that is an input's run), 1 anything else:
inputs that do not fit together (domains of different widths, a label the base
model has no output for), a domain CSV without rows, an embedding past
permutation importance's overflow guard, a manifest name that is not a regular
file in its run, an operating-system error such as an ``out_dir`` that is an
existing file, and an array NumPy cannot allocate. Configuration and inputs are
checked, and results computed, before ``out_dir`` is created, so a command that
fails leaves none behind; ``export-embeddings`` writes each domain's files as
it goes. The training commands default to the recipe of
``experiment.ExperimentSpec`` and build their models with its helpers; training
domains are read in domain-index order.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from dataclasses import asdict, fields
from typing import get_type_hints

from .baseline import (
    PERCENT_GRID,
    global_mask_from_scores,
    permutation_importance,
    sweep_mask_percent,
)
from .config import Field, load_config, parse_grid, parse_hidden
from .errors import ConfigError, CorruptFileError, EmbmaskError, ShapeMismatchError
from .evaluate import (
    accuracy,
    bound_terms,
    emg_masks,
    export_embeddings,
    export_masks,
)
from .experiment import ExperimentSpec, base_layers, new_generator
from .mask import MODE_READS, MaskGenConfig
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
# the mask-source keys it reads; emg also reads the mask.* fields that
# MODE_READS gives for its mask.inference_mode. Any other mask-source key
# must keep its default, and config.txt leaves it out.
EVAL_MODES = {
    "none": (),
    "global": ("eval.mask_percent",),
    "emg": ("emg.model", "mask.inference_mode"),
}
# The domains export-embeddings writes: every training domain, or the unseen one.
EXPORT_WHICH = ("train", "unseen")

_MASK_SOURCE = {
    "eval.mode": Field(str, "none"),
    "emg.model": Field(str, ""),
    "eval.mask_percent": Field(float, 50.0),
    **_MASK,
}

_BASE = {
    "data.dir": Field(str, required=True),
    "base.model": Field(str, ""),
}

# The training commands default to the headline experiment's recipe.
_SPEC = ExperimentSpec()

SCHEMAS: dict[str, dict[str, Field]] = {
    "gen-data": {**_COMMON, **_section(BenchmarkSpec, "benchmark", "seed")},
    "train-erm": {
        **_COMMON,
        "data.dir": Field(str, required=True),
        "model.hidden": Field(str, ",".join(map(str, _SPEC.hidden))),
        **_section(TrainConfig, "train", "seed", max_epochs=_SPEC.erm_epochs),
    },
    "train-emg": {
        **_COMMON,
        **_BASE,
        "emg.hidden": Field(str, ",".join(map(str, _SPEC.emg_hidden))),
        "emg.max_epochs": Field(int, _SPEC.emg_epochs),
        **_section(TrainConfig, "train", "seed", "max_epochs"),
        # Training draws its own noise: the inference settings do not apply.
        **_section(MaskGenConfig, "mask", "inference_mode"),
    },
    "eval": {**_COMMON, **_BASE, **_MASK_SOURCE},
    "sweep-global": {
        **_COMMON,
        **_BASE,
        "sweep.grid": Field(str, ",".join(f"{p:g}" for p in PERCENT_GRID)),
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


def _load_model(path: str, what: str, prefix: str, widths: tuple) -> Mlp:
    """The model saved at ``path``, listed in its run's verified manifest;
    its parameter names must start with ``prefix`` and its (input, output)
    widths must equal ``widths``, where None accepts any width."""
    if not path:
        raise MissingArtifact(f"{what} not configured")
    run_path, name = os.path.split(path)
    files = (name + ".manifest", name + ".params")
    for file in files:
        _require_path(os.path.join(run_path, file), what)
    if not set(files) <= set(RunDirectory.verify(run_path or ".")):
        raise CorruptFileError(f"{what} {path} is not in its run's manifest")
    model = load_params(path)
    if model.prefix != prefix:
        raise CorruptFileError(
            f"{what} {path} has parameter prefix {model.prefix!r}, not {prefix!r}"
        )
    has = (model.layer_sizes[0], model.layer_sizes[-1])
    if any(w is not None and w != h for w, h in zip(widths, has)):
        raise ShapeMismatchError(f"{what} {path} has (input, output) widths {has}, needs {widths}")
    return model


def _load_data_dir(data_dir: str):
    """Train domains, unseen domain and oracle (or None) listed in the
    verified manifest of ``data_dir``; every domain must have rows, the
    width of the first training domain and a domain index of its own."""
    _require_path(data_dir, "data directory")
    listed = RunDirectory.verify(data_dir)
    # By domain index, as gen-data writes and generate_benchmark lists them:
    # a shorter train_domain_<k>.csv name has the smaller k.
    train_names = sorted(fnmatch.filter(listed, "train_domain_*.csv"), key=lambda n: (len(n), n))
    if not train_names or "unseen.csv" not in listed:
        raise MissingArtifact(f"no benchmark CSVs in {data_dir}")
    oracle_path = os.path.join(data_dir, "oracle.json")
    oracle = load_oracle(oracle_path) if "oracle.json" in listed else None
    names = [*train_names, "unseen.csv"]
    domains = [load_csv_dataset(os.path.join(data_dir, n)) for n in names]
    owners = {}
    for name, data in zip(names, domains):
        owner = owners.setdefault(data.domain_index, name)
        if owner != name:
            raise CorruptFileError(f"{owner} and {name} in {data_dir} share a domain index")
        if data.n == 0:
            raise CorruptFileError(f"{name} in {data_dir} has no rows")
        if data.dim != domains[0].dim:
            raise ShapeMismatchError(
                f"{name} in {data_dir} has {data.dim} features, {names[0]} has {domains[0].dim}"
            )
    return domains[:-1], domains[-1], oracle


def _load_base(cfg):
    """Train domains, unseen domain, oracle (or None) and the frozen base
    model split before its last linear layer; the model must take the data's
    features and have an output for every label of every domain."""
    train_data, unseen, oracle = _load_data_dir(cfg["data.dir"])
    model = _load_model(cfg["base.model"], "base model", "", (train_data[0].dim, None))
    model.store.freeze()
    classes = model.layer_sizes[-1]
    for data in (*train_data, unseen):
        if not 0 <= data.labels.min() <= data.labels.max() < classes:
            raise ShapeMismatchError(
                f"a label of domain {data.domain_index} is not one of the base model's {classes} classes"
            )
    return train_data, unseen, oracle, split_model(model)


def _mask_source(cfg, mode, split, train_data):
    """``masks_for(data)`` for mask source ``mode``: None, the global
    bottom-p% mask, or the generator's per-sample masks for ``data``. Drops
    from ``cfg`` the mask-source keys ``mode`` does not read."""
    if mode not in EVAL_MODES:
        raise ConfigError(f"unknown eval mode {mode!r}")
    read = ("eval.mode", *EVAL_MODES[mode])
    # bound-check has no eval.mode key: it always takes the generator's masks.
    setting = [f"eval.mode = {mode}"] if "eval.mode" in cfg else []
    if mode == "emg":
        mask_cfg = _build(MaskGenConfig, cfg, "mask")
        read += tuple(f"mask.{f}" for f in MODE_READS[mask_cfg.inference_mode])
        setting.append(f"mask.inference_mode = {mask_cfg.inference_mode}")
    for key in _MASK_SOURCE:
        if key not in read and key in cfg and cfg.pop(key) != _MASK_SOURCE[key].default:
            raise ConfigError(f"{key} is not read with {' and '.join(setting)}")
    if mode == "none":
        return lambda data: None
    if mode == "global":
        percent = cfg["eval.mask_percent"]
        if not 0.0 <= percent <= 100.0:
            raise ConfigError(f"eval.mask_percent must be in [0, 100], got {percent}")
        pooled = pool_domains(train_data)
        scores = permutation_importance(split, split.encode_np(pooled.features), pooled.labels)
        mask = global_mask_from_scores(scores, percent)
        return lambda data: mask
    gen = _load_model(cfg["emg.model"], "EMG model", "g.", (train_data[0].dim, split.embedding_dim))
    return lambda data: emg_masks(gen, data.features, mask_cfg, seed=cfg["seed"])


def _check_out_dir(cfg) -> None:
    """Refuse an ``out_dir`` whose new manifest would replace an input's."""
    for key in ("data.dir", "base.model", "emg.model"):
        path = cfg.get(key, "")
        run = path if key == "data.dir" else os.path.dirname(path) or "."
        if path and os.path.realpath(run) == os.path.realpath(cfg["out_dir"]):
            raise ConfigError(f"out_dir {cfg['out_dir']} is the run of {key} = {path}")


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
    model, trace = train_erm(tc, train_data, base_layers(train_data, hidden))
    run = RunDirectory(cfg["out_dir"], cfg)
    save_params(model, run.file("base_model"))
    trace.to_csv(run.file("erm_trace.csv"))
    run.register("base_model.manifest", "base_model.params", "erm_trace.csv")
    run.finalize()


def cmd_train_emg(cfg) -> None:
    train_data, unseen, _oracle, split = _load_base(cfg)
    hidden = parse_hidden(cfg["emg.hidden"])
    tc = _build(TrainConfig, cfg, "train", seed=cfg["seed"], max_epochs=cfg["emg.max_epochs"])
    mask_cfg = _build(MaskGenConfig, cfg, "mask")
    gen = new_generator(split, train_data[0].dim, hidden, cfg["seed"])
    gen, trace = train_emg(split, gen, train_data, mask_cfg, tc)
    run = RunDirectory(cfg["out_dir"], cfg)
    save_params(gen, run.file("emg_model"))
    trace.to_csv(run.file("emg_trace.csv"))
    run.register("emg_model.manifest", "emg_model.params", "emg_trace.csv")
    run.finalize()


def cmd_eval(cfg) -> None:
    train_data, unseen, _oracle, split = _load_base(cfg)
    masks_for = _mask_source(cfg, cfg["eval.mode"], split, train_data)

    named = [(f"train_domain_{d.domain_index}", d) for d in train_data]
    named += [("train_pooled", pool_domains(train_data)), ("unseen", unseen)]
    means = {key: accuracy(split, data, masks_for(data)) for key, data in named}
    report = json.dumps({"per_domain_mean": means}, indent=1, sort_keys=True)
    run = RunDirectory(cfg["out_dir"], cfg)
    run.write_text("report.json", report + "\n")
    run.finalize()


def cmd_sweep_global(cfg) -> None:
    train_data, unseen, _oracle, split = _load_base(cfg)
    grid = parse_grid(cfg["sweep.grid"])
    table = sweep_mask_percent(split, train_data, unseen, grid)
    run = RunDirectory(cfg["out_dir"], cfg)
    table.to_csv(run.file("sweep.csv"))
    run.register("sweep.csv")
    run.finalize()


def cmd_bound_check(cfg) -> None:
    train_data, unseen, oracle, split = _load_base(cfg)
    if oracle is None:
        raise MissingArtifact(f"oracle.json missing in {cfg['data.dir']}")
    masks = _mask_source(cfg, "emg", split, train_data)(unseen)
    z = split.encode_np(unseen.features)
    reports = {k: asdict(r) for k, r in bound_terms(split, oracle, z, masks).items()}

    run = RunDirectory(cfg["out_dir"], cfg)
    run.write_text("bound.json", json.dumps(reports, indent=1, sort_keys=True) + "\n")
    run.finalize()


def cmd_export_embeddings(cfg) -> None:
    which = cfg["export.which"]
    if which not in EXPORT_WHICH:
        raise ConfigError(f"export.which must be train or unseen, got {which!r}")
    train_data, unseen, _oracle, split = _load_base(cfg)
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
        _check_out_dir(cfg)
        COMMANDS[args.command](cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(f'error code=3 msg="{exc}"', file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MissingArtifact as exc:
        print(f'error code=2 msg="{exc}"', file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (EmbmaskError, OSError, MemoryError, ValueError, OverflowError) as exc:
        print(f'error code=1 msg="{str(exc) or type(exc).__name__}"', file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
