"""Synthetic multi-domain benchmark and CSV/oracle interchange."""

import math

import numpy as np
import pytest

from embmask import BenchmarkSpec, DomainDataset, TrainConfig, accuracy, generate_benchmark, split_model, train_erm
from embmask.errors import ConfigError, CorruptFileError, CsvParseError
from embmask.synthbench import load_csv_dataset, load_oracle, save_csv_dataset, save_oracle


def test_shapes_counts_and_label_range():
    spec = BenchmarkSpec(samples_per_domain=50, unseen_samples=30)
    train, unseen, oracle = generate_benchmark(spec)
    assert len(train) == spec.num_train_domains
    for i, d in enumerate(train):
        assert d.features.shape == (50, spec.total_dim)
        assert d.domain_index == i
        assert d.labels.min() >= 0 and d.labels.max() < spec.num_classes
    assert unseen.features.shape == (30, spec.total_dim)
    assert unseen.domain_index == spec.num_train_domains
    assert oracle.shared_dims == list(range(8))
    assert oracle.specific_dims == list(range(8, 16))


def test_same_seed_bitwise_identical_different_seed_not():
    a_train, a_unseen, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=40, unseen_samples=40))
    b_train, b_unseen, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=40, unseen_samples=40))
    c_train, _, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=40, unseen_samples=40, seed=1))
    for a, b in zip(a_train, b_train):
        assert (a.features == b.features).all() and (a.labels == b.labels).all()
    assert (a_unseen.features == b_unseen.features).all()
    assert not (a_train[0].features == c_train[0].features).all()


def test_class_means_unit_norm_and_separated():
    _, _, oracle = generate_benchmark(BenchmarkSpec(samples_per_domain=1, unseen_samples=1))
    means = oracle.class_means
    np.testing.assert_allclose(np.linalg.norm(means, axis=1), 1.0, atol=1e-12)
    cos_limit = math.cos(math.radians(30.0))
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert abs(means[i] @ means[j]) <= cos_limit + 1e-12


def test_domain_maps_orthonormal_and_unseen_fresh():
    _, _, oracle = generate_benchmark(BenchmarkSpec(samples_per_domain=1, unseen_samples=1))
    for amap in list(oracle.domain_maps.values()) + [oracle.unseen_map]:
        np.testing.assert_allclose(amap @ amap.T, np.eye(amap.shape[0]), atol=1e-10)
    for amap in oracle.domain_maps.values():
        assert np.linalg.norm(oracle.unseen_map - amap) > 1e-6


def test_mixing_hides_oracle_dims():
    _, _, oracle = generate_benchmark(
        BenchmarkSpec(samples_per_domain=2, unseen_samples=2, mixing=True)
    )
    assert oracle.shared_dims is None and oracle.specific_dims is None
    q = oracle.mixing_matrix
    np.testing.assert_allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-10)


def test_zero_spurious_strength_specific_block_uncorrelated():
    spec = BenchmarkSpec(spurious_strength=0.0, samples_per_domain=800, unseen_samples=10)
    train, _, oracle = generate_benchmark(spec)
    d = train[0]
    # with rho = 0 the specific block is pure noise: class-conditional means vanish
    for cls in range(spec.num_classes):
        block = d.features[d.labels == cls][:, oracle.specific_dims]
        assert np.abs(block.mean(axis=0)).max() < 0.3


def test_too_many_classes_for_shared_dims_rejected():
    with pytest.raises(ConfigError):
        generate_benchmark(
            BenchmarkSpec(num_classes=50, d_shared=2, samples_per_domain=1, unseen_samples=1)
        )


def test_invalid_spec_fields():
    with pytest.raises(ConfigError):
        BenchmarkSpec(num_classes=1)
    with pytest.raises(ConfigError):
        BenchmarkSpec(spurious_strength=1.5)
    with pytest.raises(ConfigError):
        BenchmarkSpec(samples_per_domain=0)


def test_shared_only_classifier_beats_full_on_unseen():
    # the construction's point: specific dims mislead out of domain
    train, unseen, oracle = generate_benchmark(BenchmarkSpec())
    sh = oracle.shared_dims
    train_sh = [DomainDataset(d.features[:, sh], d.labels, d.domain_index) for d in train]
    unseen_sh = DomainDataset(unseen.features[:, sh], unseen.labels, unseen.domain_index)
    full, _ = train_erm(TrainConfig(seed=0, max_epochs=40), train)
    shared, _ = train_erm(TrainConfig(seed=0, max_epochs=40), train_sh)
    acc_full = accuracy(split_model(full, 0), unseen)
    acc_shared = accuracy(split_model(shared, 0), unseen_sh)
    assert acc_shared > acc_full


# -- CSV interchange -----------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    train, _, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=25, unseen_samples=5))
    path = str(tmp_path / "d0.csv")
    save_csv_dataset(train[0], path)
    cols = [f"f{i}" for i in range(train[0].dim)]
    loaded = load_csv_dataset(path, cols, "label", "domain")
    # 17 significant digits round-trip float64 exactly
    assert (loaded.features == train[0].features).all()
    assert (loaded.labels == train[0].labels).all()
    assert loaded.domain_index == 0


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvParseError):
        load_csv_dataset(str(path), ["f0"], "label")


def test_csv_header_only_is_valid_empty_dataset(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("f0,f1,label\n")
    data = load_csv_dataset(str(path), ["f0", "f1"], "label")
    assert data.n == 0 and data.dim == 2


def test_csv_bad_cell_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0\noops,1\n")
    with pytest.raises(CsvParseError) as exc:
        load_csv_dataset(str(path), ["f0"], "label")
    assert ":3:" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature_reports_row_number(tmp_path, value):
    path = tmp_path / "nan.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n3.0,{value},1\n")
    with pytest.raises(CsvParseError) as exc:
        load_csv_dataset(str(path), ["f0", "f1"], "label")
    assert f"{path}:3:" in str(exc.value)


def test_csv_missing_column_rejected(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("f0,label\n1.0,0\n")
    with pytest.raises(CsvParseError):
        load_csv_dataset(str(path), ["f0", "f9"], "label")


def test_oracle_json_round_trip(tmp_path):
    _, _, oracle = generate_benchmark(BenchmarkSpec(samples_per_domain=2, unseen_samples=2))
    path = str(tmp_path / "oracle.json")
    save_oracle(oracle, path)
    loaded = load_oracle(path)
    assert loaded.shared_dims == oracle.shared_dims
    assert loaded.specific_dims == oracle.specific_dims
    assert (loaded.class_means == oracle.class_means).all()
    assert set(loaded.domain_maps) == set(oracle.domain_maps)
    for k, v in oracle.domain_maps.items():
        assert (loaded.domain_maps[k] == v).all()
    assert (loaded.unseen_map == oracle.unseen_map).all()


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
        pytest.param(lambda text: text.replace('"unseen_map"', '"unseen"'), id="missing-key"),
        pytest.param(lambda text: "[1, 2]", id="not-an-object"),
    ],
)
def test_corrupt_oracle_raises_corrupt_file(tmp_path, corrupt):
    _, _, oracle = generate_benchmark(BenchmarkSpec(samples_per_domain=2, unseen_samples=2))
    path = tmp_path / "oracle.json"
    save_oracle(oracle, str(path))
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(CorruptFileError):
        load_oracle(str(path))
