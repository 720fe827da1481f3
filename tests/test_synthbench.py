"""Synthetic multi-domain benchmark and CSV/oracle interchange."""

import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embmask import BenchmarkSpec, DomainDataset, TrainConfig, accuracy, generate_benchmark, split_model, train_erm
from embmask.errors import ConfigError, CorruptFileError, CsvParseError
from embmask.experiment import base_layers
from embmask.synthbench import (
    Oracle,
    _sample_class_means,
    _sample_maps,
    load_csv_dataset,
    load_oracle,
    save_csv_dataset,
    save_oracle,
    save_table,
)
from memory_budget import traced_peak


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


def _construction(spec):
    """The class means and the maps (per training domain, then unseen) that
    ``generate_benchmark(spec)`` draws from its first two child seeds."""
    mean_ss, map_ss = np.random.SeedSequence(spec.seed).spawn(2)
    means = _sample_class_means(np.random.default_rng(mean_ss), spec.num_classes, spec.d_shared)
    return means, *_sample_maps(np.random.default_rng(map_ss), spec)


def test_construction_is_what_the_generator_draws():
    # Without noise the shared block is the class mean and, at rho = 1, the
    # specific block is the mean through the domain's map.
    spec = BenchmarkSpec(noise_sigma=0.0, spurious_strength=1.0, samples_per_domain=40, unseen_samples=40)
    train, unseen, _ = generate_benchmark(spec)
    means, maps, unseen_map = _construction(spec)
    for d, amap in zip([*train, unseen], [*maps, unseen_map]):
        np.testing.assert_array_equal(d.features[:, :8], means[d.labels])
        np.testing.assert_array_equal(d.features[:, 8:], means[d.labels] @ amap.T)


def test_class_means_unit_norm_and_separated():
    means, _, _ = _construction(BenchmarkSpec())
    np.testing.assert_allclose(np.linalg.norm(means, axis=1), 1.0, atol=1e-12)
    cos_limit = math.cos(math.radians(30.0))
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert abs(means[i] @ means[j]) <= cos_limit + 1e-12


def test_class_means_reject_a_candidate_just_inside_30_degrees():
    """Candidates at 0, 29.5 and 30.5 degrees: the 29.5-degree one is too
    close to the first mean, so the means are the 0- and 30.5-degree ones."""

    def unit(deg):
        return np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])

    class Candidates:
        def __init__(self, vectors):
            self.vectors = iter(vectors)

        def normal(self, size):
            assert size == 2
            return next(self.vectors)

    at = [unit(0.0), unit(29.5), unit(30.5)]
    means = _sample_class_means(Candidates(at), 2, 2)
    np.testing.assert_array_equal(means, [at[0], at[2]])


def test_domain_maps_orthonormal_and_unseen_fresh():
    _, maps, unseen_map = _construction(BenchmarkSpec())
    for amap in maps + [unseen_map]:
        np.testing.assert_allclose(amap @ amap.T, np.eye(amap.shape[0]), atol=1e-10)
    for amap in maps:
        assert np.linalg.norm(unseen_map - amap) > 1e-6


@pytest.mark.parametrize(
    "shared, specific",
    [
        pytest.param(None, [1], id="null"),
        pytest.param((0,), [1], id="not-a-list"),
        pytest.param([0.5], [], id="not-ints"),
        pytest.param([], [True], id="bools"),
        pytest.param([-1], [0], id="negative"),
        pytest.param([1, 1], [], id="repeated"),
        pytest.param([0, 1], [1, 2], id="overlap"),
    ],
)
def test_oracle_rejects_all_but_two_lists_of_distinct_non_negative_ints(shared, specific):
    with pytest.raises(ValueError):
        Oracle(shared, specific)


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


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        generate_benchmark(BenchmarkSpec(seed=-1, samples_per_domain=2, unseen_samples=2))


def test_shared_only_classifier_beats_full_on_unseen():
    # the construction's point: specific dims mislead out of domain
    train, unseen, oracle = generate_benchmark(BenchmarkSpec())
    sh = oracle.shared_dims
    train_sh = [DomainDataset(d.features[:, sh], d.labels, d.domain_index) for d in train]
    unseen_sh = DomainDataset(unseen.features[:, sh], unseen.labels, unseen.domain_index)
    full, _ = train_erm(TrainConfig(seed=0, max_epochs=40), train, base_layers(train, []))
    shared, _ = train_erm(TrainConfig(seed=0, max_epochs=40), train_sh, base_layers(train_sh, []))
    acc_full = accuracy(split_model(full), unseen)
    acc_shared = accuracy(split_model(shared), unseen_sh)
    assert acc_shared > acc_full


# -- CSV interchange -----------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    train, _, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=25, unseen_samples=5))
    path = str(tmp_path / "d0.csv")
    save_csv_dataset(train[0], path)
    loaded = load_csv_dataset(path)
    # 17 significant digits round-trip float64 exactly
    assert (loaded.features == train[0].features).all()
    assert (loaded.labels == train[0].labels).all()
    assert loaded.domain_index == 0


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvParseError):
        load_csv_dataset(str(path))


def test_csv_header_only_is_valid_empty_dataset(tmp_path):
    path = tmp_path / "header.csv"
    for text in ("f0,f1,label,domain\r\n", "f0,f1,label,domain"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on an empty body
            data = load_csv_dataset(str(path))
        assert data.n == 0 and data.dim == 2 and data.features.dtype == np.float64
        assert data.labels.dtype == np.int64 and data.domain_index == -1


def test_csv_bad_cell_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label,domain\n1.0,0,0\noops,1,0\n")
    with pytest.raises(CsvParseError) as exc:
        load_csv_dataset(str(path))
    assert str(exc.value).startswith(f"{path}:3: ") and "'oops'" in str(exc.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature_reports_row_number(tmp_path, value):
    path = tmp_path / "nan.csv"
    path.write_text(f"f0,f1,label,domain\n1.0,2.0,0,0\n3.0,{value},1,0\n")
    with pytest.raises(CsvParseError) as exc:
        load_csv_dataset(str(path))
    assert str(exc.value) == f"{path}:3: non-finite feature value"


def test_csv_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"f0,label\n1.0,0\n2.0,\xff\n")
    with pytest.raises(CsvParseError) as exc:
        load_csv_dataset(str(path))
    assert str(path) in str(exc.value) and "UTF-8" in str(exc.value)


_HEADER_ERROR = ":1: expected the header f0,...,f{D-1},label,domain"


# Each error starts with the path and ``message``; a conversion error also
# quotes ``cell``. NumPy's own wording is pinned no further: it may differ
# between NumPy versions.
@pytest.mark.parametrize(
    "text, message, cell",
    [
        pytest.param("f0,label,domain\n1.0,0,0\n\n2.0,1,0\n", ":3: expected 3 cells", None, id="blank-line"),
        pytest.param("f0,label,domain\n1.0,0,0\n\n", ":3: expected 3 cells", None, id="trailing-blank-line"),
        pytest.param("f0,label,domain\r\n1.0,0,0\r\n\r\n2.0,1,0\r\n", ":3: expected 3 cells", None, id="crlf-blank-line"),
        pytest.param("f0,label,domain\r\n1.0,0,0\r2.0,1,0\r\n", ":2: ", None, id="lone-cr"),
        pytest.param("f0,label,domain\n1.0,0\n", ":2: ", None, id="ragged-row"),
        pytest.param("f0,label,domain\n1.0,0,0,7\n", ":2: ", None, id="long-row"),
        pytest.param("f0,label,domain\n1.0,1.0,0\n", ":2: ", "1.0", id="float-label"),
        pytest.param(
            "f0,label,domain\n1.0,0,0\n2.0,1,1\n", ": multiple domain indices [0, 1]", None, id="two-domains"
        ),
        pytest.param("f0,label,domain\n1.0,0,0\noops,1,0\n", ":3: ", "oops", id="oops"),
        pytest.param("f0,label,domain\r\n1.0,0,0\r\n,1,0\r\n", ":3: ", "", id="empty-cell"),
        # integers that int64 cannot hold
        pytest.param(
            "f0,label,domain\n1.0,0,0\n2.0,99999999999999999999,0\n",
            ":3: ",
            "99999999999999999999",
            id="label-overflow",
        ),
        pytest.param(
            "f0,label,domain\n1.0,-9223372036854775809,0\n",
            ":2: ",
            "-9223372036854775809",
            id="negative-label-overflow",
        ),
        pytest.param(
            "f0,label,domain\n1.0,0,0\n2.0,1,9223372036854775808\n",
            ":3: ",
            "9223372036854775808",
            id="domain-overflow",
        ),
        # float() and int() take these, but the writer never emits them
        pytest.param("f0,label,domain\n1.0,0,0\n1_0,1,0\n", ":3: ", "1_0", id="underscore"),
        pytest.param("f0,label,domain\n1.0,1_0,0\n", ":2: ", "1_0", id="underscore-label"),
        pytest.param("f0,label,domain\n\u0661.5,0,0\n", ":2: ", "\u0661.5", id="arabic-indic-digit"),
        pytest.param("f0,label,domain\n1.0,\uff11,0\n", ":2: ", "\uff11", id="fullwidth-label"),
        # the first line np.loadtxt refuses is named, whatever the lines after it hold
        pytest.param("f0,label,domain\n1_0,0,0\n1.0\n", ":2: ", "1_0", id="ragged-after-underscore"),
        pytest.param("f0,label,domain\n1_0,0,0\nnan,1,0\n", ":2: ", "1_0", id="nan-after-underscore"),
        pytest.param("f0,label,domain\n1_0,0,0\n2,1,1\n", ":2: ", "1_0", id="domains-and-underscore"),
        # forms the writer never emits
        pytest.param('f0,f1,label,domain\r\n"1.0",2,"3",0\r\n', ":2: ", '"1.0"', id="quoted"),
        pytest.param("label,note,f1,f0\n2,any text,1.5,2.5\n", _HEADER_ERROR, None, id="column-order"),
        pytest.param("f0,f1,label\n1.5,2.5,2\n", _HEADER_ERROR, None, id="no-domain-column"),
        pytest.param("f0,domain,label\n1.5,0,2\n", _HEADER_ERROR, None, id="label-domain-swapped"),
        pytest.param("f0,f2,label,domain\n1.5,2.5,2,0\n", _HEADER_ERROR, None, id="feature-gap"),
        pytest.param("f0,label,domain,extra\n1.5,2,0,7\n", _HEADER_ERROR, None, id="extra-column"),
        pytest.param("f0, label,domain\n1.5,2,0\n", _HEADER_ERROR, None, id="header-space"),
        pytest.param("\ufefff0,label,domain\n1.5,2,0\n", _HEADER_ERROR, None, id="byte-order-mark"),
    ],
)
def test_csv_rejections_name_the_row(tmp_path, text, message, cell):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(CsvParseError) as exc:
        load_csv_dataset(str(path))
    assert str(exc.value).startswith(f"{path}{message}")
    assert " at row " not in str(exc.value)  # NumPy's 0-based count is cut off
    if cell is not None:
        assert f"'{cell}'" in str(exc.value)


@pytest.mark.parametrize(
    "text, features, labels",
    [
        pytest.param(
            "f0,f1,label,domain\n1.5,-2,3,4\n0,4e-3,1,4\n", [[1.5, -2.0], [0.0, 4e-3]], [3, 1], id="lf"
        ),
        pytest.param(
            "f0,f1,label,domain\r\n1.5,-2,3,4\r\n0,4e-3,1,4",
            [[1.5, -2.0], [0.0, 4e-3]],
            [3, 1],
            id="no-final-newline",
        ),
        pytest.param("f0,f1,label,domain\r\n 1.5 ,2\t, 3 , 4\r\n", [[1.5, 2.0]], [3], id="spaces"),
        pytest.param("f0,f1,label,domain\n+1,-0,+7,+4\n", [[1.0, -0.0]], [7], id="signs"),
    ],
)
def test_csv_accepted_forms(tmp_path, text, features, labels):
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode("utf-8"))
    data = load_csv_dataset(str(path))
    expected = np.array(features, dtype=np.float64)
    assert data.features.tobytes() == expected.tobytes() and data.features.shape == expected.shape
    assert data.labels.dtype == np.int64 and data.labels.tolist() == labels
    assert data.domain_index == 4


@st.composite
def _tables(draw):
    """(features, labels): any finite float64 and any int64, 1-8 rows."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (n, d), elements=finite)), draw(arrays(np.int64, n))


_MAX = 1.7976931348623157e308
_EDGES = np.array([[-0.0, 5e-324, -5e-324], [_MAX, -_MAX, 2.2250738585072014e-308]])


@settings(max_examples=60, deadline=None)
@example(table=(_EDGES, np.array([-(2**63), 2**63 - 1])), domain=0)
@given(table=_tables(), domain=st.integers(-(2**63), 2**63 - 1))
def test_csv_round_trip_is_bitwise(table, domain):
    features, labels = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        save_csv_dataset(DomainDataset(features, labels, domain), path)
        loaded = load_csv_dataset(path)
    assert loaded.features.dtype == np.float64 and loaded.features.flags.c_contiguous
    assert loaded.features.shape == features.shape and loaded.features.tobytes() == features.tobytes()
    assert loaded.labels.dtype == np.int64 and loaded.labels.tobytes() == labels.tobytes()
    assert loaded.domain_index == domain


def test_csv_missing_column_rejected(tmp_path):
    for name, text in (("nolabel.csv", "f0,f1,domain\n1.0,2.0,0\n"), ("nofeat.csv", "label,domain\n0,0\n")):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(CsvParseError):
            load_csv_dataset(str(path))


# Cells the writer never writes, each of which np.loadtxt refuses.
_BAD_CELLS = ["", "x", "1_0", '"1"', "\u0661"]


@settings(max_examples=60, deadline=None)
@given(table=_tables(), data=st.data())
def test_csv_corrupted_row_is_named(table, data):
    features, labels = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        save_csv_dataset(DomainDataset(features, labels, 3), path)
        with open(path, newline="") as fh:
            lines = fh.read().split("\r\n")
        r = data.draw(st.integers(0, len(labels) - 1), label="row")
        cells = lines[r + 1].split(",")
        if data.draw(st.booleans(), label="delete a comma"):
            k = data.draw(st.integers(0, len(cells) - 2), label="comma")
            cells[k : k + 2] = [cells[k] + cells[k + 1]]
        else:
            k = data.draw(st.integers(0, len(cells) - 1), label="cell")
            cells[k] = data.draw(st.sampled_from(_BAD_CELLS), label="bad cell")
        lines[r + 1] = ",".join(cells)
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines))
        with pytest.raises(CsvParseError) as exc:
            load_csv_dataset(path)
    assert str(exc.value).startswith(f"{path}:{r + 2}: ") and " at row " not in str(exc.value)


@pytest.mark.parametrize("samples", [1000, 4000])
def test_csv_load_allocates_within_its_budget(tmp_path, samples):
    """Traced peak of ``load_csv_dataset`` on a default-benchmark domain, in
    units of the file's bytes: the file's bytes and their decoded text while
    it is read, then the text, its lines and the parsed rows. Read 3.08 at
    1000 rows and 3.07 at 4000; 5.9 when ``np.loadtxt`` parsed an
    ``io.StringIO`` copy of the body. A process's first ``np.loadtxt``
    imports ``numpy.ma``, so one load runs before the traced one."""
    data = generate_benchmark(BenchmarkSpec(samples_per_domain=samples))[0][0]
    path = str(tmp_path / "domain.csv")
    save_csv_dataset(data, path)
    load_csv_dataset(path)
    assert traced_peak(load_csv_dataset, path) / os.path.getsize(path) <= 3.25


@pytest.mark.parametrize("samples, budget", [(1000, 0.75), (4000, 0.25)])
def test_save_table_allocates_within_its_budget(tmp_path, samples, budget):
    """Traced peak of ``save_table`` on a domain's three blocks, in units of
    the bytes it writes: one chunk of rows as Python values and formatted
    lines, however long the table. Read 0.60 at 1000 rows and 0.15 at 4000."""
    data = generate_benchmark(BenchmarkSpec(samples_per_domain=samples))[0][0]
    header = [f"f{i}" for i in range(data.dim)] + ["label", "domain"]
    blocks = (data.features, data.labels, np.full(data.n, data.domain_index))
    path = str(tmp_path / "table.csv")
    peak = traced_peak(save_table, path, header, *blocks)
    assert peak / os.path.getsize(path) <= budget


def test_oracle_json_round_trip(tmp_path):
    _, _, oracle = generate_benchmark(BenchmarkSpec(samples_per_domain=2, unseen_samples=2))
    path = tmp_path / "oracle.json"
    save_oracle(oracle, str(path))
    assert json.loads(path.read_text()) == {"shared_dims": list(range(8)), "specific_dims": list(range(8, 16))}
    assert load_oracle(str(path)) == oracle


def _with_dims(shared, specific):
    """A corruption that writes the two oracle dimension lists."""

    def corrupt(text):
        blob = json.loads(text)
        blob["shared_dims"], blob["specific_dims"] = shared, specific
        return json.dumps(blob)

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
        pytest.param(lambda text: text.replace('"specific_dims"', '"specific"'), id="missing-key"),
        pytest.param(lambda text: "[1, 2]", id="not-an-object"),
        *(
            pytest.param(_with_dims(shared, specific), id=name)
            for name, shared, specific in [
                ("dims-null", None, [1]),
                ("dims-not-a-list", "abc", []),
                ("dims-not-ints", [0.5], []),
                ("dims-bools", [], [True]),
                ("dims-negative", [-1], []),
                ("dims-repeated", [1, 1], []),
                ("dims-overlap", [0, 1], [1, 2]),
            ]
        ),
    ],
)
def test_corrupt_oracle_raises_corrupt_file(tmp_path, corrupt):
    _, _, oracle = generate_benchmark(BenchmarkSpec(samples_per_domain=2, unseen_samples=2))
    path = tmp_path / "oracle.json"
    save_oracle(oracle, str(path))
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(CorruptFileError):
        load_oracle(str(path))
