"""The headline experiment, defined once: ERM base model, per-sample masks and
the global-mask baseline. The CLI's defaults and the scripts read it. A run
seed sets every stream of the base model and the generator; the global mask
draws nothing."""

from __future__ import annotations

from dataclasses import dataclass, field

from .baseline import sweep_mask_percent
from .errors import DegenerateDataError
from .evaluate import accuracy, emg_masks
from .mask import MaskGenConfig
from .nn import Mlp, SplitModel, split_model
from .synthbench import DomainDataset, pool_domains
from .train import TrainConfig, train_emg, train_erm


@dataclass(frozen=True)
class ExperimentSpec:
    hidden: tuple[int, ...] = (64,)  # base model hidden widths
    erm_epochs: int = 80
    emg_hidden: tuple[int, ...] = (32,)  # mask generator hidden widths
    # Short fit on purpose: trained to convergence the generator's
    # objective is minimized by the keep-everything mask, so the
    # filtering benefit lives in the early epochs.
    emg_epochs: int = 3
    mask: MaskGenConfig = field(default_factory=MaskGenConfig)


def base_layers(train: list[DomainDataset], hidden) -> list[int]:
    """``[dim, *hidden, n_classes]``: the base model's layer sizes for ``train``.
    More classes than pooled rows raise ``DegenerateDataError``, before any
    layer of that width is allocated."""
    n_classes = int(max(d.labels.max() for d in train)) + 1
    rows = sum(d.n for d in train)
    if n_classes > rows:
        raise DegenerateDataError(
            f"largest training label {n_classes - 1} asks for more classes than the {rows} training rows"
        )
    return [train[0].dim, *hidden, n_classes]


def new_generator(split: SplitModel, dim: int, hidden, seed: int) -> Mlp:
    """Run seed ``seed``'s untrained mask generator, ``dim`` features to ``split``'s embedding."""
    return Mlp([dim, *hidden, split.embedding_dim], prefix="g.", seed=seed + 1)


def run_seed(spec: ExperimentSpec, train: list, unseen: DomainDataset, seed: int) -> dict:
    """Pooled-train and unseen accuracy unmasked and under the generator's
    masks, and the unseen-best global mask's percent and unseen accuracy."""
    erm_tc = TrainConfig(seed=seed, max_epochs=spec.erm_epochs)
    model, _ = train_erm(erm_tc, train, base_layers(train, spec.hidden))
    split = split_model(model)
    pooled = pool_domains(train)
    row = {"unmasked_train": accuracy(split, pooled), "unmasked_unseen": accuracy(split, unseen)}

    model.store.freeze()
    gen = new_generator(split, train[0].dim, spec.emg_hidden, seed)
    emg_tc = TrainConfig(seed=seed, max_epochs=spec.emg_epochs)
    gen, _ = train_emg(split, gen, train, spec.mask, emg_tc)
    row["masked_train"] = accuracy(split, pooled, emg_masks(gen, pooled.features, spec.mask, seed))
    row["masked_unseen"] = accuracy(split, unseen, emg_masks(gen, unseen.features, spec.mask, seed))

    table = sweep_mask_percent(split, train, unseen)
    best = next(r for r in table.rows if r.percent == table.unseen_best_percent)
    row["global_best_percent"] = best.percent
    row["global_unseen"] = best.unseen_accuracy
    return row
