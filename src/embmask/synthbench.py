"""Synthetic multi-domain benchmark with known shared/specific features.

Construction: labels are uniform over C classes. The shared block is the
class mean (unit-norm vectors with pairwise angle >= 30 degrees, rejection
sampled) plus Gaussian noise -- predictive in every domain. The specific
block is rho * A_d @ mu_y + (1-rho) * eta where A_d is a per-domain random
orthogonal map: within a training domain it is a nearly clean class signal,
but the unseen domain uses a fresh map A_T, so any model leaning on the
specific block is systematically misled out of domain. An optional global
orthogonal rotation mixes the two blocks (disabling the oracle dim lists).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorruptFileError, CsvParseError

Array = np.ndarray

_MAX_MEAN_TRIES = 10_000
_MIN_ANGLE_DEG = 30.0


@dataclass
class BenchmarkSpec:
    num_classes: int = 5
    d_shared: int = 8
    d_specific: int = 8
    num_train_domains: int = 3
    samples_per_domain: int = 1000
    unseen_samples: int = 1000
    spurious_strength: float = 0.9  # rho
    noise_sigma: float = 0.5
    mixing: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.num_train_domains < 1:
            raise ConfigError("need at least 1 training domain")
        if not (0.0 <= self.spurious_strength <= 1.0):
            raise ConfigError("spurious_strength must be in [0, 1]")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        for name in ("d_shared", "d_specific", "samples_per_domain", "unseen_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def total_dim(self) -> int:
        return self.d_shared + self.d_specific


@dataclass
class Oracle:
    """Ground-truth construction metadata for diagnostics."""

    shared_dims: list[int] | None
    specific_dims: list[int] | None
    class_means: Array
    domain_maps: dict[int, Array]
    unseen_map: Array
    mixing_matrix: Array | None = None


@dataclass
class DomainDataset:
    features: Array
    labels: Array
    domain_index: int  # metadata only; never fed to EMG training

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def pool_domains(datasets: list[DomainDataset]) -> DomainDataset:
    """Concatenate domains into one dataset with domain index -1."""
    return DomainDataset(
        features=np.concatenate([d.features for d in datasets]),
        labels=np.concatenate([d.labels for d in datasets]),
        domain_index=-1,
    )


def _unit(v: Array) -> Array:
    return v / np.linalg.norm(v)


def _sample_class_means(rng: np.random.Generator, c: int, d: int) -> Array:
    """Unit-norm class means with pairwise angle >= 30 degrees."""
    cos_limit = math.cos(math.radians(_MIN_ANGLE_DEG))
    means: list[Array] = []
    tries = 0
    while len(means) < c:
        tries += 1
        if tries > _MAX_MEAN_TRIES:
            raise ConfigError(
                f"could not place {c} class means with >=30 degree separation "
                f"in {d} shared dims after {_MAX_MEAN_TRIES} tries"
            )
        cand = _unit(rng.normal(size=d))
        if all(abs(float(cand @ m)) <= cos_limit for m in means):
            means.append(cand)
    return np.stack(means)


def _semi_orthogonal(rng: np.random.Generator, rows: int, cols: int) -> Array:
    """Random matrix with orthonormal rows (rows <= cols) or columns."""
    if rows >= cols:
        q, r = np.linalg.qr(rng.normal(size=(rows, cols)))
        q = q * np.sign(np.diag(r))[None, :]
        return q
    return _semi_orthogonal(rng, cols, rows).T


def generate_benchmark(
    spec: BenchmarkSpec,
) -> tuple[list[DomainDataset], DomainDataset, Oracle]:
    """Deterministic per seed. Returns (train domains, unseen domain, oracle)."""
    root = np.random.SeedSequence(spec.seed)
    mean_ss, map_ss, mix_ss, *domain_ss = root.spawn(3 + spec.num_train_domains + 1)
    means = _sample_class_means(
        np.random.default_rng(mean_ss), spec.num_classes, spec.d_shared
    )

    map_rng = np.random.default_rng(map_ss)
    domain_maps = {
        d: _semi_orthogonal(map_rng, spec.d_specific, spec.d_shared)
        for d in range(spec.num_train_domains)
    }
    while True:
        unseen_map = _semi_orthogonal(map_rng, spec.d_specific, spec.d_shared)
        if all(
            np.linalg.norm(unseen_map - a) > 1e-6 for a in domain_maps.values()
        ):
            break

    mixing_matrix = None
    if spec.mixing:
        mixing_matrix = _semi_orthogonal(
            np.random.default_rng(mix_ss), spec.total_dim, spec.total_dim
        )

    oracle = Oracle(
        shared_dims=None if spec.mixing else list(range(spec.d_shared)),
        specific_dims=None if spec.mixing else list(range(spec.d_shared, spec.total_dim)),
        class_means=means,
        domain_maps=domain_maps,
        unseen_map=unseen_map,
        mixing_matrix=mixing_matrix,
    )

    def make_domain(rng: np.random.Generator, amap: Array, n: int, idx: int) -> DomainDataset:
        y = rng.integers(spec.num_classes, size=n)
        shared = means[y] + rng.normal(0.0, spec.noise_sigma, size=(n, spec.d_shared))
        specific = (
            spec.spurious_strength * means[y] @ amap.T
            + (1.0 - spec.spurious_strength) * rng.normal(size=(n, spec.d_specific))
        )
        x = np.concatenate([shared, specific], axis=1)
        if mixing_matrix is not None:
            x = x @ mixing_matrix.T
        return DomainDataset(features=x, labels=y, domain_index=idx)

    train = [
        make_domain(
            np.random.default_rng(domain_ss[d]),
            domain_maps[d],
            spec.samples_per_domain,
            d,
        )
        for d in range(spec.num_train_domains)
    ]
    unseen = make_domain(
        np.random.default_rng(domain_ss[-1]),
        unseen_map,
        spec.unseen_samples,
        spec.num_train_domains,
    )
    return train, unseen, oracle


# -- CSV interchange -----------------------------------------------------------
#
# Schema: header ``f0..f{D-1},label[,domain]``; values as decimal text with
# 17 significant digits so a round trip preserves every float64 exactly.
# ``save_table`` writes every per-sample CSV: datasets, embeddings and masks.

# Rows formatted per write: bounds the text held in memory at once.
_TABLE_CHUNK_ROWS = 128


def save_table(path: str, header: list[str], *blocks: Array) -> None:
    """``header``, then one row per sample of the ``blocks`` side by side (a
    1-D block is one column): integers as %d, floats as %.17g, CRLF line ends
    as ``csv.writer`` writes them."""
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    fmts = ["%d" if b.dtype.kind in "iu" else "%.17g" for b in blocks for _ in range(b.shape[1])]
    line = ",".join(fmts) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(blocks[0]), _TABLE_CHUNK_ROWS):
            parts = [b[start : start + _TABLE_CHUNK_ROWS].tolist() for b in blocks]
            fh.writelines(line % tuple(sum(row, [])) for row in zip(*parts))


def save_csv_dataset(data: DomainDataset, path: str) -> None:
    header = [f"f{i}" for i in range(data.dim)] + ["label", "domain"]
    save_table(path, header, data.features, data.labels, np.full(data.n, data.domain_index))


def load_csv_dataset(path: str) -> DomainDataset:
    """Read a CSV in the schema above: the features are the ``f*`` columns in
    header order, ``label`` is required and ``domain`` is read if present."""
    if not os.path.exists(path):
        raise CsvParseError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvParseError(f"{path}: empty file") from None
            feat_idx = [i for i, c in enumerate(header) if c.startswith("f")]
            if not feat_idx or "label" not in header:
                raise CsvParseError(f"{path}: needs f* feature columns and a label column")
            label_idx = header.index("label")
            domain_idx = header.index("domain") if "domain" in header else None

            feats: list[list[float]] = []
            labels: list[int] = []
            domains: set[int] = set()
            for rownum, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise CsvParseError(f"{path}:{rownum}: expected {len(header)} cells")
                try:
                    feats.append([float(row[i]) for i in feat_idx])
                    labels.append(int(row[label_idx]))
                    if domain_idx is not None:
                        domains.add(int(row[domain_idx]))
                except ValueError as exc:
                    raise CsvParseError(f"{path}:{rownum}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text: {exc.reason}") from None

    if len(domains) > 1:
        raise CsvParseError(f"{path}: multiple domain indices {sorted(domains)}")
    domain_index = domains.pop() if domains else -1
    features = np.array(feats, dtype=np.float64).reshape(len(feats), len(feat_idx))
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        raise CsvParseError(f"{path}:{int(np.argmax(bad)) + 2}: non-finite feature value")
    return DomainDataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        domain_index=domain_index,
    )


# -- oracle persistence ----------------------------------------------------------


def save_oracle(oracle: Oracle, path: str) -> None:
    blob = {
        "shared_dims": oracle.shared_dims,
        "specific_dims": oracle.specific_dims,
        "class_means": oracle.class_means.tolist(),
        "domain_maps": {str(k): v.tolist() for k, v in oracle.domain_maps.items()},
        "unseen_map": oracle.unseen_map.tolist(),
        "mixing_matrix": (
            oracle.mixing_matrix.tolist() if oracle.mixing_matrix is not None else None
        ),
    }
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)


def load_oracle(path: str) -> Oracle:
    try:
        with open(path) as fh:
            blob = json.load(fh)
        return Oracle(
            shared_dims=blob["shared_dims"],
            specific_dims=blob["specific_dims"],
            class_means=np.array(blob["class_means"]),
            domain_maps={int(k): np.array(v) for k, v in blob["domain_maps"].items()},
            unseen_map=np.array(blob["unseen_map"]),
            mixing_matrix=(
                np.array(blob["mixing_matrix"])
                if blob["mixing_matrix"] is not None
                else None
            ),
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptFileError(f"corrupt oracle file {path}: {exc!r}") from None
