"""Synthetic multi-domain benchmark with known shared/specific features.

Construction: labels are uniform over C classes. The shared block is the
class mean (unit-norm vectors with pairwise angle >= 30 degrees, rejection
sampled) plus Gaussian noise -- predictive in every domain. The specific
block is rho * A_d @ mu_y + (1-rho) * eta where A_d is a per-domain random
orthogonal map: within a training domain it is a nearly clean class signal,
but the unseen domain uses a fresh map A_T, so any model leaning on the
specific block is systematically misled out of domain. The observed
features are the two blocks side by side, and the ``Oracle`` names which
dimensions hold which block.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass

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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def total_dim(self) -> int:
        return self.d_shared + self.d_specific


@dataclass(frozen=True)
class Oracle:
    """The benchmark's feature split: which dimensions are domain-shared and
    which domain-specific. Each is a list of non-negative ints, and no int
    occurs twice in the two lists together, or ``ValueError``."""

    shared_dims: list[int]
    specific_dims: list[int]

    def __post_init__(self):
        if not (isinstance(self.shared_dims, list) and isinstance(self.specific_dims, list)):
            raise ValueError("shared_dims and specific_dims must each be a list")
        dims = self.shared_dims + self.specific_dims
        if any(type(d) is not int or d < 0 for d in dims) or len(set(dims)) != len(dims):
            raise ValueError(f"oracle dimensions must be distinct non-negative ints: {dims}")


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


def _sample_maps(rng: np.random.Generator, spec: BenchmarkSpec) -> tuple[list[Array], Array]:
    """One orthonormal specific-block map per training domain, then the unseen
    domain's: a continuous draw, so it differs from each of them."""
    shape = (spec.d_specific, spec.d_shared)
    maps = [_semi_orthogonal(rng, *shape) for _ in range(spec.num_train_domains)]
    # Only 1x1 maps (+-1) could repeat, and they need d_shared = 1, where
    # _sample_class_means cannot separate two class means by 30 degrees.
    return maps, _semi_orthogonal(rng, *shape)


def generate_benchmark(
    spec: BenchmarkSpec,
) -> tuple[list[DomainDataset], DomainDataset, Oracle]:
    """Deterministic per seed. Returns (train domains, unseen domain, oracle)."""
    # The third child is never used. It is still spawned so that each domain
    # keeps its child seed, and a given seed keeps generating the same data.
    mean_ss, map_ss, _, *domain_ss = np.random.SeedSequence(spec.seed).spawn(
        3 + spec.num_train_domains + 1
    )
    means = _sample_class_means(
        np.random.default_rng(mean_ss), spec.num_classes, spec.d_shared
    )
    domain_maps, unseen_map = _sample_maps(np.random.default_rng(map_ss), spec)
    oracle = Oracle(list(range(spec.d_shared)), list(range(spec.d_shared, spec.total_dim)))

    def make_domain(idx: int, amap: Array, n: int) -> DomainDataset:
        rng = np.random.default_rng(domain_ss[idx])
        y = rng.integers(spec.num_classes, size=n)
        shared = means[y] + rng.normal(0.0, spec.noise_sigma, size=(n, spec.d_shared))
        specific = (
            spec.spurious_strength * means[y] @ amap.T
            + (1.0 - spec.spurious_strength) * rng.normal(size=(n, spec.d_specific))
        )
        x = np.concatenate([shared, specific], axis=1)
        return DomainDataset(features=x, labels=y, domain_index=idx)

    train = [make_domain(d, amap, spec.samples_per_domain) for d, amap in enumerate(domain_maps)]
    unseen = make_domain(spec.num_train_domains, unseen_map, spec.unseen_samples)
    return train, unseen, oracle


# -- CSV interchange -----------------------------------------------------------
#
# Schema: header ``f0..f{D-1},label,domain``; values as decimal text with
# 17 significant digits so a round trip preserves every float64 exactly.
# ``save_table`` writes every CSV: datasets, embeddings, masks, the training
# traces and the sweep table.

# Rows formatted per write: bounds the text held in memory at once.
_TABLE_CHUNK_ROWS = 128


def save_table(path: str, header: list[str], *blocks: Array) -> None:
    """``header``, then one row per sample of the ``blocks`` side by side (a 1-D
    block is one column): ints and bools as %d, floats as %.17g, CRLF line ends."""
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    fmts = ["%d" if b.dtype.kind in "biu" else "%.17g" for b in blocks for _ in range(b.shape[1])]
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
    """Read a CSV in the schema above, exactly as ``save_csv_dataset`` writes
    it: the header ``f0,...,f{D-1},label,domain`` (D >= 1), then one row of
    unquoted cells per sample. One ``np.loadtxt`` call parses the body; when it
    refuses the body or skips a blank line, the same call runs on one line at
    a time, and the first line it refuses is named in the ``CsvParseError``."""
    if not os.path.exists(path):
        raise CsvParseError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8", newline="") as fh:  # np.loadtxt refuses a lone CR
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    lines = text.split("\n")
    cells = lines[0].removesuffix("\r").split(",")
    dim = len(cells) - 2
    if dim < 1 or cells != [*(f"f{i}" for i in range(dim)), "label", "domain"]:
        raise CsvParseError(f"{path}:1: expected the header f0,...,f{{D-1}},label,domain")
    dtype = np.dtype([("f", "f8", (dim,)), ("label", "i8"), ("domain", "i8")])

    def parse(lines) -> tuple[Array | None, str]:
        """The rows ``np.loadtxt`` reads from ``lines``, or why it refused them
        (its message up to its 0-based `` at row N`` count)."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1), ""
        except (ValueError, Warning) as exc:
            return None, str(exc).split(" at row ")[0]

    body = lines[1:]
    if body and not body[-1]:  # what follows the newline that ends the last line
        body.pop()
    rows = parse(body)[0] if body else np.empty(0, dtype)  # loadtxt warns on an empty body
    if rows is None or len(rows) != len(body):  # loadtxt skips blank lines
        # Unquoted, every line parses on its own, so some line is refused here.
        for lineno, line in enumerate(body, start=2):
            reason = parse([line])[1]
            if reason:
                if line in ("", "\r"):  # np.loadtxt refuses a blank line only with a warning
                    reason = f"expected {dim + 2} cells"
                raise CsvParseError(f"{path}:{lineno}: {reason}")
    domains = np.unique(rows["domain"]).tolist()
    if len(domains) > 1:
        raise CsvParseError(f"{path}: multiple domain indices {domains}")
    features = np.ascontiguousarray(rows["f"])
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        raise CsvParseError(f"{path}:{int(np.argmax(bad)) + 2}: non-finite feature value")
    return DomainDataset(features, rows["label"].copy(), domains[0] if domains else -1)


# -- oracle persistence ----------------------------------------------------------


def save_oracle(oracle: Oracle, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(oracle), fh, indent=1, sort_keys=True)


def load_oracle(path: str) -> Oracle:
    """The oracle ``save_oracle`` wrote, or ``CorruptFileError``."""
    try:
        with open(path) as fh:
            blob = json.load(fh)
        return Oracle(blob["shared_dims"], blob["specific_dims"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptFileError(f"corrupt oracle file {path}: {exc!r}") from None
