"""Permutation-importance global mask baseline and the percent sweep."""

import contextlib
import itertools
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embmask import (
    BenchmarkSpec,
    accuracy,
    baseline,
    DomainDataset,
    Mlp,
    TrainConfig,
    generate_benchmark,
    global_mask_from_scores,
    permutation_importance,
    split_model,
    sweep_mask_percent,
    train_erm,
)
from embmask.errors import NumericError, ShapeMismatchError, UsageError
from embmask.baseline import SweepRow, SweepTable
from embmask.experiment import ExperimentSpec, base_layers
from embmask.nn import SplitModel
from embmask.synthbench import pool_domains
from memory_budget import traced_peak
from numeric_env import numeric_environment


def _linear_split(w, b):
    """Single-layer model with hand-set weights, identity encoder."""
    model = Mlp([w.shape[0], w.shape[1]], seed=0)
    model.store["w0"][...] = w
    model.store["b0"][...] = b
    return split_model(model)


def _reference_accuracy(split, z, labels, m=None):
    """The per-mask definition: embeddings ``z`` (masked by ``m`` unless None) predicted in full."""
    return float(np.mean(np.argmax(split.predict_np(z if m is None else z * m), axis=1) == labels))


def test_unused_dimension_scores_near_zero():
    rng = np.random.default_rng(0)
    n = 400
    x = rng.normal(size=(n, 3))
    w = np.array([[2.0, -2.0], [1.5, -1.5], [0.0, 0.0]])  # dim 2 unused
    split = _linear_split(w, np.zeros(2))
    labels = np.argmax(split.predict_np(x), axis=1)
    scores = permutation_importance(split, x, labels)
    assert scores[2] == 0.0


def test_single_class_constant_accuracy_all_zero_scores():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 2))
    w = np.zeros((2, 2))  # always predicts class 0
    split = _linear_split(w, np.array([1.0, 0.0]))
    labels = np.zeros(50, dtype=int)
    scores = permutation_importance(split, x, labels)
    assert (scores == 0.0).all()


def test_decisive_dimension_outranks_noise_dimension():
    rng = np.random.default_rng(3)
    n = 300
    y = rng.integers(2, size=n)
    x = np.column_stack([np.where(y == 1, 2.0, -2.0), rng.normal(size=n)])
    w = np.array([[-1.0, 1.0], [0.05, -0.05]])
    split = _linear_split(w, np.zeros(2))
    scores = permutation_importance(split, x, y)
    assert scores[0] > scores[1]


def test_permutation_importance_rejects_empty_data():
    split = _linear_split(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(UsageError):
        permutation_importance(split, np.ones((0, 2)), np.zeros(0, dtype=int))


@pytest.mark.parametrize("shape", [(1,), (50, 1), (49,)], ids=["one", "column", "short"])
def test_permutation_importance_rejects_labels_not_one_per_row(shape):
    split = _linear_split(np.ones((4, 2)), np.zeros(2))
    z = np.random.default_rng(0).normal(size=(50, 4))
    with pytest.raises(ShapeMismatchError, match="labels shape"):
        permutation_importance(split, z, np.zeros(shape, dtype=int))


# -- mask construction -------------------------------------------------------------


def test_mask_percent_extremes():
    scores = np.array([0.4, 0.1, 0.2])
    assert (global_mask_from_scores(scores, 0.0) == 1.0).all()
    assert (global_mask_from_scores(scores, 100.0) == 0.0).all()


def test_mask_tie_break_toward_lower_index():
    mask = global_mask_from_scores(np.array([0.3, 0.1, 0.1, 0.5]), 50.0)
    np.testing.assert_array_equal(mask, [1.0, 0.0, 0.0, 1.0])


def test_mask_percent_out_of_range():
    with pytest.raises(UsageError):
        global_mask_from_scores(np.ones(3), -1.0)
    with pytest.raises(UsageError):
        global_mask_from_scores(np.ones(3), 101.0)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40),
    st.floats(0, 100),
)
def test_mask_zero_count_is_exact_floor(scores, percent):
    scores = np.array(scores)
    mask = global_mask_from_scores(scores, percent)
    expected = int(np.floor(percent / 100.0 * len(scores)))
    assert int((mask == 0.0).sum()) == expected


# -- sweep -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_setup():
    train, unseen, _ = generate_benchmark(
        BenchmarkSpec(num_classes=3, d_shared=4, d_specific=4, samples_per_domain=120, unseen_samples=120)
    )
    model, _ = train_erm(TrainConfig(seed=0, max_epochs=15), train, [8, 12, 3])
    return split_model(model), train, unseen


def test_sweep_zero_row_is_unmasked_bitwise(trained_setup):
    split, train, unseen = trained_setup
    table = sweep_mask_percent(split, train, unseen, [0.0, 50.0])

    row0 = [r for r in table.rows if r.percent == 0.0][0]
    assert row0.unseen_accuracy == accuracy(split, unseen)


def test_sweep_hundred_percent_is_constant_prediction(trained_setup):
    split, train, unseen = trained_setup
    table = sweep_mask_percent(split, train, unseen, [0.0, 100.0])
    row100 = [r for r in table.rows if r.percent == 100.0][0]
    zero_pred = int(np.argmax(split.predict_np(np.zeros((1, split.embedding_dim)))))
    majority = float(np.mean(unseen.labels == zero_pred))
    assert row100.unseen_accuracy == majority


def test_sweep_requires_zero_in_grid(trained_setup):
    split, train, unseen = trained_setup
    with pytest.raises(UsageError):
        sweep_mask_percent(split, train, unseen, [5.0, 10.0])


def test_sweep_csv_format(trained_setup, tmp_path):
    split, train, unseen = trained_setup
    table = sweep_mask_percent(split, train, unseen, [0.0, 25.0])
    path = tmp_path / "sweep.csv"
    table.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "percent,unseen_acc,train_acc,unseen_best"
    assert len(lines) == 3
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert rows[rows[:, 3] == 1, 0].tolist() == [table.unseen_best_percent]


def test_sweep_csv_tells_close_percents_apart(tmp_path):
    rows = [SweepRow(p, 0.5, 0.5) for p in (0.0, 33.3333331, 33.3333334)]
    path = tmp_path / "sweep.csv"
    SweepTable(rows, unseen_best_percent=33.3333334).to_csv(str(path))
    lines = path.read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 33.3333331, 33.3333334]
    assert lines[1].startswith("0,")
    assert [line.split(",")[3] for line in lines[1:]] == ["0", "0", "1"]


@pytest.mark.parametrize("case", ["affine", "general"])
def test_sweep_equals_a_per_mask_table(trained_setup, case, monkeypatch):
    """The stacked scoring of the p > 0 masks gives the table that scoring
    each mask's broadcast copy on its own gives. Scaled past the overflow
    guard (``general``), the sweep is refused before any prediction."""
    split, train, unseen = trained_setup
    if case == "general":
        calls = _count_predicted_rows(monkeypatch)
        with pytest.raises(NumericError, match="overflow bound"):
            sweep_mask_percent(_scaled_past_guard(split), train, unseen, baseline.PERCENT_GRID)
        assert calls == []
        return
    table = sweep_mask_percent(split, train, unseen, baseline.PERCENT_GRID)
    pooled = pool_domains(train)
    z_tr, z_un = split.encode_np(pooled.features), split.encode_np(unseen.features)
    scores = permutation_importance(split, z_tr, pooled.labels)
    expected = []
    for p in baseline.PERCENT_GRID:
        mask = global_mask_from_scores(scores, p)
        expected.append(
            SweepRow(
                p,
                _reference_accuracy(split, z_un, unseen.labels, np.broadcast_to(mask, z_un.shape)),
                _reference_accuracy(split, z_tr, pooled.labels, np.broadcast_to(mask, z_tr.shape)),
            )
        )
    assert table.rows == expected
    assert table.rows[0] == SweepRow(0.0, accuracy(split, unseen), accuracy(split, pooled))


def _count_predicted_rows(monkeypatch):
    """Record the row count of every ``predict_np`` call from now on."""
    rows = []
    predict = SplitModel.predict_np

    def counted(self, z):
        rows.append(len(z))
        return predict(self, z)

    monkeypatch.setattr(SplitModel, "predict_np", counted)
    return rows


def test_sweep_rejects_bad_percent_before_any_prediction(trained_setup, monkeypatch):
    split, train, unseen = trained_setup
    calls = _count_predicted_rows(monkeypatch)
    with pytest.raises(UsageError, match="percent out of range: 150"):
        sweep_mask_percent(split, train, unseen, [0.0, 150.0])
    assert calls == []


def test_sweep_calls_the_public_importance_pass_once(trained_setup, monkeypatch):
    split, train, unseen = trained_setup
    calls = []
    importance = baseline.permutation_importance

    def counted(split, z, labels):
        calls.append((z.copy(), labels))
        return importance(split, z, labels)

    # The benchmark's tracer hooks this module attribute.
    monkeypatch.setattr(baseline, "permutation_importance", counted)
    sweep_mask_percent(split, train, unseen, [0.0, 50.0])
    pooled = pool_domains(train)
    assert len(calls) == 1
    assert calls[0][0].tobytes() == split.encode_np(pooled.features).tobytes()
    assert (calls[0][1] == pooled.labels).all()


def test_sweep_predicts_only_the_importance_base_and_the_unmasked_rows(trained_setup, monkeypatch):
    """On an affine split every p > 0 mask is scored through the predictor's
    weight rows, with no predict call and no masked copy of the embedding."""
    split, train, unseen = trained_setup
    pooled = pool_domains(train)
    calls = _count_predicted_rows(monkeypatch)
    table = sweep_mask_percent(split, train, unseen, [0.0, 25.0, 50.0, 100.0])
    assert len(table.rows) == 4
    assert calls == [pooled.n, unseen.n, pooled.n]


def test_sweep_rejects_empty_unseen_domain(trained_setup):
    split, train, unseen = trained_setup
    empty = DomainDataset(unseen.features[:0], unseen.labels[:0], unseen.domain_index)
    with pytest.raises(UsageError, match="empty"):
        sweep_mask_percent(split, train, empty, [0.0, 50.0])


@pytest.mark.parametrize("shape", [(1,), (2, 1)], ids=["one", "column"])
def test_sweep_rejects_unseen_labels_not_one_per_row_before_predicting_them(trained_setup, shape, monkeypatch):
    """Such labels would broadcast against the unseen predictions."""
    split, train, unseen = trained_setup
    bad = DomainDataset(unseen.features, np.zeros(shape, dtype=int), unseen.domain_index)
    calls = _count_predicted_rows(monkeypatch)
    with pytest.raises(ShapeMismatchError, match="labels shape"):
        sweep_mask_percent(split, train, bad, [0.0, 50.0])
    assert unseen.n not in calls


@pytest.fixture(scope="module")
def block_setup():
    """1200 pooled rows and 513 unseen ones: several blocks per pass at
    every ``ROW_BLOCK`` below, and a lone last unseen row at 512."""
    train, unseen, _ = generate_benchmark(
        BenchmarkSpec(num_classes=3, d_shared=4, d_specific=4, samples_per_domain=400, unseen_samples=513)
    )
    model, _ = train_erm(TrainConfig(seed=0, max_epochs=15), train, [8, 12, 3])
    return split_model(model), train, unseen


@pytest.mark.parametrize("block", [511, 7, 1199])
def test_sweep_table_does_not_depend_on_the_row_block(block_setup, block, monkeypatch):
    """``ROW_BLOCK`` sets how many rows each product takes, not the bits:
    the table at 511, 7 and 1199 (a lone last pooled row) is the one at
    512."""
    split, train, unseen = block_setup
    assert baseline.ROW_BLOCK == 512
    expected = sweep_mask_percent(split, train, unseen, baseline.PERCENT_GRID)
    monkeypatch.setattr(baseline, "ROW_BLOCK", block)
    table = sweep_mask_percent(split, train, unseen, baseline.PERCENT_GRID)
    assert table == expected


@pytest.mark.parametrize("rows", [1, 2, 513])
def test_sweep_scores_tiny_unseen_domains_as_accuracy_does(block_setup, rows):
    """One unseen row takes the per-mask path, two rows one stacked block, and
    513 a lone last row joining its block; every row of the table is
    ``accuracy`` under the same global mask."""
    split, train, unseen = block_setup
    unseen = DomainDataset(unseen.features[:rows], unseen.labels[:rows], unseen.domain_index)
    table = sweep_mask_percent(split, train, unseen, baseline.PERCENT_GRID)
    pooled = pool_domains(train)
    scores = permutation_importance(split, split.encode_np(pooled.features), pooled.labels)
    for row in table.rows:
        mask = global_mask_from_scores(scores, row.percent)
        assert row.unseen_accuracy == accuracy(split, unseen, mask), row.percent
        assert row.train_accuracy == accuracy(split, pooled, mask), row.percent


_SPECIAL = [-0.0, 0.0, 1.0, -2.5, 3e-310, 1e300, -1e300, np.inf, -np.inf, np.nan]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 511, 512, 513, 1025]),
    st.sampled_from([1, 18]),
    st.booleans(),
)
# inf + fma(-1e300, 1e10, .) is inf where a gemv leftover column without FMA
# gives NaN: one row alone, and a lone last row of the blocks.
@example(seed=59, n=1, g=18, fortran=False)
@example(seed=3149, n=1025, g=18, fortran=False)
def test_global_mask_accuracies_equal_each_broadcast_copy(seed, n, g, fortran):
    """Across the row-block edges, each mask of the stack scores every row
    as its broadcast copy predicted in full does: on the stacked product of
    a C-ordered embedding and of a Fortran-ordered one's C-ordered copy, and
    on the per-mask path of a single row."""
    gen = np.random.default_rng(seed)
    d, c = gen.integers(1, 5), gen.integers(2, 6)
    z = gen.choice(_SPECIAL, size=(n, d))
    if fortran:
        z = np.asfortranarray(z)
    split = _linear_split(gen.choice([-1.0, 0.0, 0.5, 2.0, 1e10], size=(d, c)), gen.choice([0.0, -0.0, 1.0], size=c))
    masks = gen.choice([0.0, 1.0], size=(g, d))
    with np.errstate(invalid="ignore", over="ignore"):
        preds = [np.argmax(split.predict_np(z * m), axis=1) for m in masks]
        for j, labels in enumerate(preds + [gen.integers(c, size=n)]):
            expected = [_reference_accuracy(split, z, labels, np.broadcast_to(m, z.shape)) for m in masks]
            scored = baseline._stacked_accuracies(split, z, labels, masks)
            assert scored == expected, numeric_environment()
            # Labels equal to mask j's predictions pin each of its rows' argmax.
            assert j == g or scored[j] == 1.0


@pytest.mark.parametrize("n", [4000, 12000])
def test_stacked_product_equals_the_per_mask_products_at_the_benchmark_shape(n):
    """The stacked scoring is bitwise only where BLAS computes every logit as
    the same k-ordered chain whatever the product's other sizes are; pin it
    for the benchmark's 64-wide embedding, 5 classes and 18 masks."""
    rng = np.random.default_rng(n)
    z, w = rng.normal(size=(n, 64)), rng.normal(size=(64, 5))
    masks = rng.choice([0.0, 1.0], size=(18, 64))
    wide = (masks[:, :, None] * w).transpose(1, 0, 2).reshape(64, 90)
    block = baseline.ROW_BLOCK
    stacked = np.concatenate([z[lo:lo + block] @ wide for lo in range(0, n, block)])
    for j, m in enumerate(masks):
        assert stacked[:, 5 * j:5 * j + 5].tobytes() == (z @ (m[:, None] * w)).tobytes(), numeric_environment()


@pytest.mark.parametrize("layers", [[4, 3], [4, 5, 3]], ids=["affine", "two_layer"])
def test_global_mask_accuracies_predict_only_on_the_fallback(layers, monkeypatch):
    """Two or more rows are scored through the weight rows with no predict
    call; one row is predicted per mask."""
    rng = np.random.default_rng(4)
    split = split_model(Mlp(layers, seed=2))
    d = split.embedding_dim
    z, labels = rng.normal(size=(600, d)), rng.integers(3, size=600)
    calls = _count_predicted_rows(monkeypatch)
    masks = rng.choice([0.0, 1.0], size=(5, d))
    assert len(baseline._stacked_accuracies(split, z, labels, masks)) == 5
    assert baseline._stacked_accuracies(split, z, labels, np.ones((0, d))) == []
    assert calls == []
    assert len(baseline._stacked_accuracies(split, z[:1], labels[:1], masks)) == 5
    assert calls == [1] * 5


def _importance_at_each_cap(split, z, labels, width):
    """``permutation_importance`` as bytes with ``width`` columns per chunk,
    at the default ``_GROUP_ROWS``, then at 1 (one dimension per group, as
    scored one at a time), 7 and n * d + 1 (every dimension of a chunk in one
    group)."""
    scores = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseline, "_CHUNK_DIMS", width)
        for cap in (baseline._GROUP_ROWS, 1, 7, z.size + 1):
            mp.setattr(baseline, "_GROUP_ROWS", cap)
            scores.append(permutation_importance(split, z, labels).tobytes())
    return scores


def _oversized_and_empty_case():
    """Dimension 0 moves a logit by up to 20 per unit over a column that
    spans 2, past every margin: all 1500 rows are its candidates, past the
    default cap alone. Dimension 1 weighs every class alike, so no row is
    one of its candidates."""
    gen = np.random.default_rng(11)
    z = gen.uniform(-1.0, 1.0, size=(1500, 3))
    w = np.array([[0.0, 10.0, -10.0], [2.0, 2.0, 2.0], [0.5, 0.0, -0.25]])
    return _linear_split(w, np.array([5.0, 0.0, 0.0])), z, gen.integers(3, size=1500)


@pytest.mark.parametrize("case", ["block_setup", "oversized_and_empty"])
def test_importance_does_not_depend_on_the_group_cap(block_setup, case, monkeypatch):
    """``_GROUP_ROWS`` sets how many candidate rows are scored together and
    ``_CHUNK_DIMS`` how many columns are copied out at a time, not the bits:
    every score at caps 1, 7 and n * d + 1, each with chunks of 1, 3, 8 and
    d + 1 columns, is the one at 1024 and 8."""
    assert baseline._GROUP_ROWS == 1024 and baseline._CHUNK_DIMS == 8
    if case == "block_setup":
        split, train, _ = block_setup
        pooled = pool_domains(train)
        z, labels = split.encode_np(pooled.features), pooled.labels
    else:
        split, z, labels = _oversized_and_empty_case()
        sizes = []
        maybe_rows = baseline._maybe_rows

        def counted(col, reach_k, safe):
            rows = maybe_rows(col, reach_k, safe)
            sizes.append(len(rows))
            return rows

        monkeypatch.setattr(baseline, "_maybe_rows", counted)
        permutation_importance(split, z, labels)
        assert sizes[:2] == [1500, 0]
    expected = permutation_importance(split, z, labels).tobytes()
    for width in (1, 3, baseline._CHUNK_DIMS, z.shape[1] + 1):
        assert _importance_at_each_cap(split, z, labels, width) == [expected] * 4, f"{width} columns per chunk"


# -- the exact expected drop on the affine path -----------------------------------


def _all_permutations_importance(split, z, labels):
    """The mean drop over every permutation of each column, each predicted in
    full: n! permuted copies stacked into one product per dimension."""
    n, d = z.shape
    perms = np.array(list(itertools.permutations(range(n))))
    base = _reference_accuracy(split, z, labels)
    scores = np.zeros(d)
    for k in range(d):
        stacked = np.repeat(z[None], len(perms), axis=0)
        stacked[:, :, k] = z[perms, k]
        preds = np.argmax(split.predict_np(stacked.reshape(-1, d)), axis=1).reshape(len(perms), n)
        scores[k] = np.mean(base - np.mean(preds == labels, axis=1))
    return scores


@st.composite
def _rounded_affine_case(draw):
    """An identity-encoder affine split over at most 7 rows, with entries
    from a few dyadic values: every logit is exact, so exact ties, equal
    class weights and column values on interval ends are common."""
    n, d, c = draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = gen.choice([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0], size=(n, d))
    w = gen.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0], size=(d, c))
    if draw(st.booleans()):
        w[:, 1] = w[:, 0]  # classes 0 and 1 tie wherever their one weight agrees
        w[gen.integers(d), 1] += 0.5
    b = gen.choice([0.0, 0.5, -0.25], size=c)
    labels = gen.integers(c, size=n)
    if draw(st.booleans()):
        labels[0] = gen.choice([-1, c])  # a label with no class is never hit
    return _linear_split(w, b), z, labels


@settings(deadline=None, max_examples=150)
@given(_rounded_affine_case())
def test_exact_importance_is_the_mean_over_every_permutation(case):
    split, z, labels = case
    scores = permutation_importance(split, z, labels)
    np.testing.assert_allclose(scores, _all_permutations_importance(split, z, labels), rtol=0, atol=1e-12)
    # An exact expectation: a whole number of hits over n * n row-values.
    pairs = len(z) ** 2
    assert scores.tobytes() == (np.round(scores * pairs) / pairs).tobytes()


def test_exact_importance_scores_a_value_on_a_rounded_end():
    """Class 1 wins once its logit z passes class 0's 0.9, and a tie goes to
    class 0. For the row at 0.2 the end 0.2 + (0.9 - 0.2) rounds to just
    below 0.9: only the rounding band keeps the values at 0.9 out."""
    split = _linear_split(np.array([[0.0, 1.0]]), np.array([0.9, 0.0]))
    z = np.array([[0.2], [0.9], [1.5], [0.9], [0.1], [1.1]])
    labels = np.array([1, 1, 0, 1, 1, 0])
    expected = _all_permutations_importance(split, z, labels)
    np.testing.assert_allclose(permutation_importance(split, z, labels), expected, rtol=0, atol=1e-12)


# An exact power of two: it takes an affine split's embedding past the
# overflow guard and keeps every tie of its logits.
_PAST_GUARD = 2.0**1000


def _scaled_past_guard(split):
    """A copy of ``split`` whose last hidden layer and predictor bias are
    scaled by 2**1000: the embedding is exactly 2**1000 times as large and
    past the overflow guard, and every prediction is the same."""
    model = Mlp(split.model.layer_sizes, seed=0)
    model.store.flat[...] = split.model.store.flat
    for array in (*model.layers[-2][:2], model.layers[-1][1]):
        array *= _PAST_GUARD
    return split_model(model)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    st.integers(8, 30), st.integers(1, 3), st.integers(2, 4), st.sampled_from([0.0, 1.0, 0.5]),
    st.integers(0, 2**32 - 1),
)
def test_exact_importance_within_monte_carlo_error(n, d, c, step, seed):
    """The exact score lies within 4 standard errors of the mean drop over
    2000 random permutations, each predicted in full. ``step`` rounds the
    embedding (0: no rounding) so that ties occur."""
    gen = np.random.default_rng(seed)
    z = gen.normal(size=(n, d)) * 2
    z = np.round(z / step) * step if step else z
    split = _linear_split(gen.normal(size=(d, c)), gen.normal(size=c) * 0.5)
    labels = gen.integers(c, size=n)
    repeats = 2000
    # One accuracy per permutation, for the mean and its spread.
    rng, base = np.random.default_rng(seed), _reference_accuracy(split, z, labels)
    exact = permutation_importance(split, z, labels)
    for k in range(d):
        stacked = np.repeat(z[None], repeats, axis=0)
        stacked[:, :, k] = z[np.array([rng.permutation(n) for _ in range(repeats)]), k]
        hits = np.argmax(split.predict_np(stacked.reshape(-1, d)), axis=1).reshape(repeats, n) == labels
        drops = base - hits.mean(axis=1)
        assert abs(exact[k] - drops.mean()) <= 4 * drops.std(ddof=1) / np.sqrt(repeats) + 1e-12


def test_exact_importance_draws_nothing_and_ignores_repeats(trained_setup, monkeypatch):
    """The importance predicts the base logits alone. The sweep still takes
    ``repeats`` and ``rng`` and reads neither: its table is the same bits,
    and the generator is not drawn from."""
    split, train, unseen = trained_setup
    pooled = pool_domains(train)
    z = split.encode_np(pooled.features)
    sizes = _count_predicted_rows(monkeypatch)
    once = permutation_importance(split, z, pooled.labels)
    assert sizes == [pooled.n]  # the base logits only
    assert once.tobytes() == permutation_importance(split, z, pooled.labels).tobytes()
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    plain = sweep_mask_percent(split, train, unseen)
    rows = np.array([astuple(r) for r in plain.rows])
    for repeats in (5, 0):  # neither read nor checked
        given = sweep_mask_percent(split, train, unseen, repeats=repeats, rng=rng)
        assert np.array([astuple(r) for r in given.rows]).tobytes() == rows.tobytes()
        assert given.unseen_best_percent == plain.unseen_best_percent
    assert rng.bit_generator.state == state


def test_affine_importance_updates_few_rows(trained_setup, monkeypatch):
    """Intervals are built once per dimension, only for the rows some column
    value can flip: on this briefly trained model about 79% of them (1.2-1.5%
    on the benchmark's base models). Every other row keeps its base
    prediction for every value of the column."""
    split, train, _ = trained_setup
    pooled = pool_domains(train)
    z, labels = split.encode_np(pooled.features), pooled.labels
    rows = []
    maybe_rows = baseline._maybe_rows

    def counted(col, reach_k, safe):
        rows.append(maybe_rows(col, reach_k, safe))
        return rows[-1]

    monkeypatch.setattr(baseline, "_maybe_rows", counted)
    permutation_importance(split, z, labels)
    assert len(rows) == split.embedding_dim
    assert np.mean([len(r) for r in rows]) < pooled.n * 0.85
    base = np.argmax(split.predict_np(z), axis=1)
    for k, flagged in enumerate(rows):
        kept = np.setdiff1d(np.arange(pooled.n), flagged)
        for v in np.unique(z[:, k]):
            moved = z[kept].copy()
            moved[:, k] = v
            assert (np.argmax(split.predict_np(moved), axis=1) == base[kept]).all()


@pytest.fixture(scope="module")
def default_bases():
    """The default benchmark's base model after 5 and after 80 ERM epochs:
    15-17% and 0.7-1.2% of the rows per dimension are candidates at 3000
    and 12000 pooled rows."""
    train, _, _ = generate_benchmark(BenchmarkSpec())
    layers = base_layers(train, ExperimentSpec().hidden)
    return {epochs: split_model(train_erm(TrainConfig(seed=0, max_epochs=epochs), train, layers)[0]) for epochs in (5, 80)}


@pytest.mark.parametrize("samples", [1000, 4000], ids=["3000-rows", "12000-rows"])
@pytest.mark.parametrize("epochs", [80, 5])
def test_importance_allocates_within_its_budget(default_bases, samples, epochs):
    """Traced peak over the call, in units of z.nbytes: one chunk's copy of
    8 columns of z, the base logits, per-row scratch and one group's
    candidate rows, which ``_GROUP_ROWS`` bounds. Read 0.43-0.60; 1.30-1.48
    with all of z copied transposed at once."""
    train, _, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=samples))
    pooled, split = pool_domains(train), default_bases[epochs]
    z = split.encode_np(pooled.features)
    assert traced_peak(permutation_importance, split, z, pooled.labels) / z.nbytes <= 0.75


@pytest.mark.parametrize("samples", [1000, 4000], ids=["3000-rows", "12000-rows"])
def test_one_uncapped_group_per_chunk_allocates_within_its_budget(default_bases, samples, monkeypatch):
    """With no cap, every chunk of 8 dimensions is one group: on the 5-epoch
    base, whose columns have the most candidate rows, the traced peak read
    1.29-1.41 units of z.nbytes; 6.8-7.4 when one group held all 64."""
    train, _, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=samples))
    pooled, split = pool_domains(train), default_bases[5]
    z = split.encode_np(pooled.features)
    monkeypatch.setattr(baseline, "_GROUP_ROWS", z.size + 1)
    assert traced_peak(permutation_importance, split, z, pooled.labels) / z.nbytes <= 1.5


@pytest.mark.parametrize("samples, budget", [(1000, 2.0), (4000, 1.5)], ids=["3000-rows", "12000-rows"])
def test_sweep_allocates_within_its_budget(default_bases, samples, budget):
    """Traced peak of the whole default sweep on the 80-epoch base, in units
    of the pooled embedding's bytes: that embedding, the importance pass,
    then the 1000-row unseen embedding and the stacked scorer. Read 1.87 at
    3000 pooled rows and 1.44 at 12000; 2.71 and 2.57 while the pooled
    features lived through the importance pass and it copied all of z."""
    train, unseen, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=samples))
    split = default_bases[80]
    z_bytes = sum(len(d.labels) for d in train) * split.embedding_dim * 8
    assert traced_peak(sweep_mask_percent, split, train, unseen) / z_bytes <= budget


@pytest.mark.parametrize("samples", [1000, 4000], ids=["3000-rows", "12000-rows"])
def test_stacked_scorer_allocates_within_its_budget(default_bases, samples):
    """Traced peak of the sweep's stacked scorer over its 18 masks, in units
    of z.nbytes: one block's stacked logits and the masked weight rows, no
    masked n x d copy of z (a per-mask ``predict_np(z * m)`` reads 2.4)."""
    train, _, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=samples))
    pooled, split = pool_domains(train), default_bases[80]
    z = split.encode_np(pooled.features)
    scores = permutation_importance(split, z, pooled.labels)
    masks = np.array([global_mask_from_scores(scores, p) for p in baseline.PERCENT_GRID[1:]])
    assert traced_peak(baseline._stacked_accuracies, split, z, pooled.labels, masks) / z.nbytes <= 0.75


# -- the exact path equals a brute force over every row and value ------------------


def _reference_importance(split, z, labels):
    """The exact expected drop by its definition: under a uniformly random
    permutation row i receives each of the n values of column k with
    probability 1/n, so every row is predicted in full with every value, and
    the score is (n * ok - hits) / n**2 for the ``ok`` rows the unpermuted
    embedding gets right."""
    n, d = z.shape
    ok = int(np.count_nonzero(np.argmax(split.predict_np(z), axis=1) == labels))
    scores = np.zeros(d)
    for k in range(d):
        preds = np.argmax(split.predict_np(_with_every_value(z, k)), axis=1)
        scores[k] = (n * ok - int(np.count_nonzero(preds == np.repeat(labels, n)))) / (n * n)
    return scores


def _with_every_value(z, k):
    """Each row of ``z`` n times over, given each value of column k in turn."""
    every = np.repeat(z, len(z), axis=0)
    every[:, k] = np.tile(z[:, k], len(z))
    return every


def _assert_whole_hits(scores, n):
    """Scores that are whole numbers of hits over n * n row-values, in [-1, 1]."""
    assert scores.tobytes() == (np.round(scores * n * n) / (n * n)).tobytes()
    assert ((-1.0 <= scores) & (scores <= 1.0)).all()


def _tie_setup():
    """Classes 0 and 1 differ only in their weight on dimension 3, which is
    zero in one row alone: that row is an exact tie between them wherever
    they lead, and must resolve to class 0 though its label is 1."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 3))
    w[:3, 1] = w[:3, 0]
    x = rng.normal(size=(200, 4))
    x[0] = [1.0, 1.0, 1.0, 0.0]
    labels = rng.integers(3, size=200)
    labels[0] = 1
    return _linear_split(w, np.zeros(3)), [DomainDataset(x, labels, 0)]


def _cancellation_setup():
    """Class 1 leads class 0 by 1e-11, which vanishes next to dimension 0's
    1e6: a row at 1e6 is a tie, while the full product of one given 0
    predicts class 1."""
    w = np.array([[1.0, 1.0], [0.0, 1e-11]])
    x = np.column_stack([np.tile([1e6, 0.0], 10), np.ones(20)])
    return _linear_split(w, np.zeros(2)), [DomainDataset(x, np.ones(20, dtype=int), 0)]


@pytest.mark.parametrize("case", ["affine", "general", "exact_tie", "cancellation"])
def test_importance_matches_copy_per_permutation_bitwise(trained_setup, case, monkeypatch):
    """The exact path against the brute force; ``general`` is an untrained
    model with two hidden layers. The exact path builds its intervals from
    the base logits: in ``cancellation`` the lead has already rounded away
    there, so its scores are only checked to be whole hit counts, and in
    ``exact_tie`` the scores may differ by the row-values whose full product
    ties two classes exactly, and by no more."""
    split, train, _ = trained_setup
    if case == "general":
        split = split_model(Mlp([8, 12, 6, 3], seed=4))
    elif case == "exact_tie":
        split, train = _tie_setup()
    elif case == "cancellation":
        split, train = _cancellation_setup()
    pooled = pool_domains(train)
    n, z = pooled.n, split.encode_np(pooled.features)
    expected = _reference_importance(split, z, pooled.labels)

    sizes = _count_predicted_rows(monkeypatch)
    scores = permutation_importance(split, z, pooled.labels)
    assert sizes == [n]  # the base logits only

    # Every score is the base hits minus the permuted ones, so this also
    # pins the base accuracy.
    if case in ("affine", "general"):
        assert scores.tobytes() == expected.tobytes()
        return
    _assert_whole_hits(scores, n)
    if case == "exact_tie":
        for k in range(split.embedding_dim):
            top_two = np.sort(split.predict_np(_with_every_value(z, k)), axis=1)[:, -2:]
            ties = np.count_nonzero(top_two[:, 0] == top_two[:, 1])
            assert abs(round((scores[k] - expected[k]) * n * n)) <= ties


@pytest.mark.parametrize("n", [511, 512, 513])
@pytest.mark.parametrize("layers", [[4, 3], [4, 6, 3]], ids=["affine", "general"])
def test_importance_at_the_tile_edges_matches_copy_per_permutation(layers, n):
    rng = np.random.default_rng(n)
    split = split_model(Mlp(layers, seed=4))
    z = rng.normal(size=(n, split.embedding_dim))
    labels = rng.integers(3, size=n)
    expected = _reference_importance(split, z, labels)
    assert permutation_importance(split, z, labels).tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [1.0, _PAST_GUARD], ids=["affine", "general"])
def test_importance_leaves_features_and_sweep_embedding_unchanged(scale):
    """Inside the overflow guard and, scaled past it, when refused."""
    rng = np.random.default_rng(9)
    datasets = [
        DomainDataset(rng.normal(size=(50, 4)) * scale, rng.integers(3, size=50), i) for i in range(3)
    ]
    before = [d.features.copy() for d in datasets]
    split = split_model(Mlp([4, 3], seed=1))  # identity encoder: z is the features
    data = datasets[0]
    refused = pytest.raises(NumericError) if scale != 1.0 else contextlib.nullcontext()
    with refused:
        permutation_importance(split, data.features, data.labels)
    # The sweep hands its train embedding to the importance pass, then scores it.
    with refused:
        table = sweep_mask_percent(split, datasets[:2], datasets[2], [0.0])
    for d, b in zip(datasets, before):
        assert d.features.tobytes() == b.tobytes()
    if scale == 1.0:
        assert table.rows[0].train_accuracy == accuracy(split, pool_domains(datasets[:2]))


_PLANTS = (
    "exact_tie", "near_tie_inside", "near_tie_outside", "cancellation", "huge", "nan", "inf",
    "constant", "flat_weights",
)


@st.composite
def _planted_affine_case(draw):
    """An identity-encoder affine split, its embedding and labels. Entries
    come from a few values, so a planted tie often survives a permutation."""
    plant = draw(st.sampled_from(_PLANTS))
    n, d, c = draw(st.integers(3, 16)), draw(st.integers(2, 3)), draw(st.integers(2, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = gen.choice([-1.0, 0.0, 0.0, 0.5, 2.0], size=(n, d))
    w = gen.choice([-1.0, 0.0, 0.25, 1.0], size=(d, c))
    b = np.zeros(c)
    if plant == "exact_tie":
        # Classes 0 and 1 differ on dimension 0 alone: every row with
        # z[:, 0] == 0 ties them.
        w[:, 1] = w[:, 0]
        w[0, 1] += 1.0
    elif plant.startswith("near_tie"):
        # Row 0 is all zeros, so its logits are b: class 1 trails class 0 by
        # just less or just more than the tie tolerance.
        top = draw(st.sampled_from([0.0, 1.0, -3.0, 1e3]))
        scale = 1 - 1e-3 if plant == "near_tie_inside" else 1 + 1e-3
        z[0] = 0.0
        b[:] = top - 1.0
        b[0], b[1] = top, top - 1e-9 * (1 + abs(top)) * scale
    elif plant == "cancellation":
        # Class 1 leads by 1e-11 under dimension 0's 1e6, which all classes
        # weigh alike: the update cancels 1e6 back out of a tie.
        z[:, 0] = gen.choice([1e6, 0.0], size=n)
        z[:, 1] = 1.0
        w[0], w[1] = 1.0, 0.0
        w[1, 1] = 1e-11
        b[2:] = -1.0
    elif plant == "constant":
        # Dimension 0 holds one value: every span and delta of it is 0, so
        # its candidates are the rows whose margin fails the test at 0.
        z[:, 0] = gen.choice([-1.0, 0.0, 2.0])
    elif plant == "flat_weights":
        # Dimension 0 weighs every class alike, so its reach is 1e-6 * a_0
        # alone (0 when the weight is 0).
        w[0] = gen.choice([-1.0, 0.0, 0.25])
    elif plant == "huge":
        # Finite logits near the float limit, past the overflow guard unless
        # the embedding is all zeros. Dimension 0 weighs all classes alike.
        z *= 6e307
        w[0] = 1.0
    else:
        z[gen.integers(n), gen.integers(d)] = np.nan if plant == "nan" else np.inf
    labels = gen.integers(c, size=n)
    return plant, _linear_split(w, b), z, labels


# Row 1's class 1 leads by 1e307, which dimension 0 cannot change; giving
# it row 0's 1.7e308 would overflow that logit.
_OVERFLOW = np.array([[1.7e308, 1e307], [0.0, -1e307]])


@settings(deadline=None, max_examples=120)
@given(_planted_affine_case())
@example(("huge", _linear_split(np.array([[1.0, 1.0], [0.0, -1.0]]), np.zeros(2)), _OVERFLOW, np.array([0, 1])))
def test_candidate_rows_match_copy_per_permutation_bitwise(case):
    """On the planted ties, near ties, constant columns and flat weights that
    stress the candidate rows, the exact path keeps every score bit of the
    brute force. Huge, NaN and inf embeddings are refused before anything is
    predicted. In ``cancellation`` each row's interval comes from base
    logits in which the 1e-11 lead has already rounded to a tie, where the
    brute force predicts in full: its scores are only checked to be whole
    hit counts."""
    plant, split, z, labels = case
    with pytest.MonkeyPatch.context() as mp:
        sizes = _count_predicted_rows(mp)
        if plant in ("huge", "nan", "inf") and z.any():
            with pytest.raises(NumericError, match="overflow bound"):
                permutation_importance(split, z, labels)
            assert sizes == []
            return
        scores = permutation_importance(split, z, labels)
    assert sizes == [len(z)]  # the base logits only
    if plant == "cancellation":
        _assert_whole_hits(scores, len(z))
    else:
        assert scores.tobytes() == _reference_importance(split, z, labels).tobytes()


@settings(deadline=None, max_examples=60)
@given(_planted_affine_case())
def test_planted_importance_does_not_depend_on_the_group_cap(case):
    """On every plant, ties and cancellation included, the scores at caps
    1, 7 and n * d + 1 are the ones at the default cap; past the overflow
    guard the pass refuses before it forms any group."""
    plant, split, z, labels = case
    if plant in ("huge", "nan", "inf") and z.any():
        with pytest.raises(NumericError, match="overflow bound"):
            _importance_at_each_cap(split, z, labels, baseline._CHUNK_DIMS)
        return
    scores = _importance_at_each_cap(split, z, labels, baseline._CHUNK_DIMS)
    assert scores[1:] == scores[:1] * 3


def test_near_float_limit_importance_is_refused(monkeypatch):
    """Past the overflow guard nothing is predicted: at this scale a rank-1
    update of the base logits overflows where the full product does not
    (dimension 1 scored 1/12 that way, against 1/6 from permuted copies)."""
    z = np.array([[1.2e308, -6e307, -6e307], [0, -6e307, 0], [1.2e308, 3e307, 3e307], [-6e307, 0, 0]])
    split = _linear_split(np.array([[0.25, 0.25], [-1.0, 0.25], [-1.0, -1.0]]), np.zeros(2))
    labels = np.array([0, 1, 1, 0])
    sizes = _count_predicted_rows(monkeypatch)
    with pytest.raises(NumericError, match="overflow bound"):
        permutation_importance(split, z, labels)
    assert sizes == []


def test_weights_near_the_float_limit_are_refused(monkeypatch):
    """Weights of +-1e308 keep the logits of tiny embeddings small, but their
    difference overflows: the guard's max|W| term refuses them, where the
    exact path would score 0.625 against a true 0.25."""
    split = _linear_split(np.array([[1e308, -1e308]]), np.zeros(2))
    z, labels = np.array([[1e-12], [-1e-12], [2e-12], [0.0]]), np.array([0, 1, 0, 1])
    sizes = _count_predicted_rows(monkeypatch)
    with pytest.raises(NumericError, match="overflow bound"):
        permutation_importance(split, z, labels)
    assert sizes == []


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1.0, -1.0, 1e-300]), min_size=1, max_size=12),
    st.floats(0, 1e3) | st.sampled_from([0.0, 1e-300]),
    st.data(),
)
def test_per_dimension_rows_hold_every_flagged_row(values, reach_k, data):
    """Every row that the candidate test flags for some column value,
    brute-forced over every partner row j, is in the one set computed per
    dimension."""
    col = np.array(values)
    n = len(col)
    margins = st.floats(-10, 10) | st.sampled_from([0.0, np.nan, np.inf, -np.inf, 1e-300])
    safe = np.array(data.draw(st.lists(margins, min_size=n, max_size=n)))
    flagged = set()
    for j in range(n):
        flagged |= set(np.flatnonzero(~(np.abs(col[j] - col) * reach_k < safe)))
    assert flagged <= set(baseline._maybe_rows(col, reach_k, safe))
