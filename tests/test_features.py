import math

import numpy as np
import pytest

from conftest import make_trace, two_class_dataset
from hmdlab.errors import (
    ConfigurationError,
    DegenerateDataError,
    FeatureMismatchError,
    GroupingError,
)
from hmdlab.features import (
    MAX_TREES,
    CorrelationMatrix,
    FeatureScores,
    correlation_matrix,
    feature_importance_scores,
    propose_hpc_groups,
    univariate_select_k_best,
)
from hmdlab.traces import (
    Dataset,
    HPC_CATALOG,
    HpcTrace,
    catalog_order,
    default_profile,
    generate_synthetic_dataset,
)
from test_models import _ref_grow


def test_chi2_zero_for_class_independent_counter():
    # instructions column identical across classes -> statistic 0
    d = two_class_dataset(
        ("branch-misses", "instructions"),
        benign_rows=[[5, 10], [5, 10]],
        malware_rows=[[15, 10], [15, 10]],
    )
    fs = univariate_select_k_best(d, 2)
    assert fs.scores["instructions"] == 0.0


def test_chi2_matches_hand_computation():
    # per-class column sums: benign (10, 20), malware (30, 20); balanced rows.
    # expected per class = 0.5 * column total = (20, 20), so
    # chi2(col1) = (10-20)^2/20 + (30-20)^2/20 = 10; chi2(col2) = 0.
    d = two_class_dataset(
        ("branch-misses", "instructions"),
        benign_rows=[[5, 10], [5, 10]],
        malware_rows=[[15, 10], [15, 10]],
    )
    fs = univariate_select_k_best(d, 1)
    assert fs.scores["branch-misses"] == pytest.approx(10.0)
    assert fs.scores["instructions"] == pytest.approx(0.0)


def test_chi2_k_bounds(small_dataset):
    fs = univariate_select_k_best(small_dataset, 20)
    assert len(fs.scores) == 20
    with pytest.raises(ConfigurationError):
        univariate_select_k_best(small_dataset, 0)
    with pytest.raises(ConfigurationError):
        univariate_select_k_best(small_dataset, 21)


def _threshold_dataset(seed=0, n=60):
    """Label is a threshold function of branch-misses; instructions and
    cpu-cycles are pure noise."""
    rng = np.random.default_rng(seed)
    counters = ("branch-misses", "instructions", "cpu-cycles")
    traces = []
    for i in range(n):
        label = "malware" if i % 2 else "benign"
        lo, hi = (500, 900) if label == "malware" else (10, 400)
        vals = np.column_stack(
            [
                rng.integers(lo, hi, size=8),
                rng.integers(0, 1000, size=8),
                rng.integers(0, 1000, size=8),
            ]
        )
        traces.append(make_trace(f"{label}{i}", label, counters, vals))
    return Dataset(tuple(traces))


def test_importance_finds_the_signal_counter():
    fs = feature_importance_scores(_threshold_dataset(), n_trees=15, seed=1)
    assert fs.scores["branch-misses"] > 0.5


def test_importance_rejects_tree_counts_outside_its_range(small_dataset):
    for n_trees in (0, MAX_TREES + 1):  # checked before the first tree
        with pytest.raises(ConfigurationError):
            feature_importance_scores(small_dataset, n_trees=n_trees)


def test_importance_zero_for_constant_column():
    d = two_class_dataset(
        ("branch-misses", "instructions"),
        benign_rows=[[i, 7] for i in range(10)],
        malware_rows=[[100 + i, 7] for i in range(10)],
    )
    fs = feature_importance_scores(d, n_trees=10, seed=0)
    assert fs.scores["instructions"] == 0.0


def _reference_lab(train, n_trees, seed):
    """The lab grown on bootstrap copies X[rows], each tree by the recursive
    reference CART: the scores feature_importance_scores must give."""
    counters = catalog_order(train.counters)
    X, y = train.stack(counters)
    rng = np.random.default_rng(seed)
    k = X.shape[1]
    totals = np.zeros(k)
    for _ in range(n_trees):
        rows = rng.integers(0, len(y), size=len(y))
        imp = np.zeros(k)
        _ref_grow(X[rows], y[rows], max_depth=8, min_leaf=5,
                  feature_subsample=round(math.sqrt(k)), rng=rng, importance_out=imp)
        totals += imp
    return dict(zip(counters, (totals / totals.sum()).tolist()))


@pytest.mark.parametrize("seed", [0, 7])
def test_importance_matches_a_lab_grown_on_bootstrap_copies(small_dataset, seed):
    fs = feature_importance_scores(small_dataset, n_trees=3, seed=seed)
    assert fs.scores == _reference_lab(small_dataset, 3, seed)


def test_importance_deterministic(small_dataset):
    a = feature_importance_scores(small_dataset, n_trees=5, seed=2)
    b = feature_importance_scores(small_dataset, n_trees=5, seed=2)
    assert a.scores == b.scores


def test_correlation_duplicate_and_negated_columns():
    rng = np.random.default_rng(0)
    base = rng.integers(10, 1000, size=20)
    vals = np.column_stack([base, base, 1000 - base])
    d = Dataset(
        (
            make_trace(
                "a",
                "benign",
                ("branch-misses", "instructions", "cpu-cycles"),
                vals,
            ),
            make_trace(
                "b",
                "malware",
                ("branch-misses", "instructions", "cpu-cycles"),
                vals[::-1],
            ),
        )
    )
    corr = correlation_matrix(d)
    assert corr.value("branch-misses", "instructions") == pytest.approx(1.0)
    assert corr.value("branch-misses", "cpu-cycles") == pytest.approx(-1.0)
    assert corr.value("cpu-cycles", "cpu-cycles") == 1.0


def test_correlation_default_profile_structure():
    d = generate_synthetic_dataset(default_profile(iterations=10), 50, 50, 3)
    corr = correlation_matrix(d)
    assert corr.value("cache-references", "cpu-cycles") >= 0.7
    assert abs(corr.value("cache-references", "branch-misses")) <= 0.3


def test_correlation_zero_variance_column():
    d = two_class_dataset(
        ("branch-misses", "instructions"),
        benign_rows=[[1, 7], [2, 7]],
        malware_rows=[[3, 7], [4, 7]],
    )
    corr = correlation_matrix(d)
    assert corr.value("instructions", "branch-misses") == 0.0
    assert corr.value("instructions", "instructions") == 1.0


def test_correlation_value_names_a_counter_the_matrix_lacks():
    corr = CorrelationMatrix(counters=("instructions",), r=np.ones((1, 1)))
    with pytest.raises(FeatureMismatchError, match="lacks counter 'cpu-cycles'"):
        corr.value("instructions", "cpu-cycles")
    with pytest.raises(FeatureMismatchError, match="lacks counter 'page-faults'"):
        corr.value("page-faults", "instructions")


def _permuted(d, order):
    """`d` with its columns in the given order of positions."""
    counters = tuple(d.counters[i] for i in order)
    return Dataset(tuple(HpcTrace(t.app_id, t.label, counters, t.values[:, order])
                         for t in d.traces))


def test_scores_are_bit_identical_in_any_column_order(small_dataset):
    corr = correlation_matrix(small_dataset)
    chi2 = univariate_select_k_best(small_dataset, 20)
    imp = feature_importance_scores(small_dataset, n_trees=2, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = _permuted(small_dataset, rng.permutation(len(HPC_CATALOG)))
        other = correlation_matrix(d)
        assert all(other.value(a, b) == corr.value(a, b)
                   for a in HPC_CATALOG for b in HPC_CATALOG)
        assert univariate_select_k_best(d, 20).scores == chi2.scores
        assert feature_importance_scores(d, n_trees=2, seed=0).scores == imp.scores


def test_scorers_reject_degenerate_input(small_dataset):
    one_label = Dataset(tuple(small_dataset.by_label("benign")))
    for score in (lambda d: univariate_select_k_best(d, 1), feature_importance_scores):
        with pytest.raises(DegenerateDataError, match="need both labels"):
            score(one_label)
    with pytest.raises(ConfigurationError, match="n_trees"):
        feature_importance_scores(small_dataset, n_trees=0)
    one_row = Dataset((make_trace("a", "benign", ("instructions",), [[4]]),))
    with pytest.raises(DegenerateDataError, match="at least 2 rows"):
        correlation_matrix(one_row)


def test_ranked_breaks_ties_by_catalog_order():
    fs = FeatureScores(
        scores={"instructions": 1.0, "branch-misses": 1.0, "cpu-cycles": 2.0},
    )
    assert fs.ranked() == ["cpu-cycles", "branch-misses", "instructions"]


def _toy_scores(counters, values):
    return FeatureScores(scores=dict(zip(counters, values)))


def test_grouping_greedy_toy_matrix():
    # A, B, C mutually r >= 0.9 with A top ranked -> first group {A, B, C}
    counters = ("branch-instructions", "branch-misses", "bus-cycles", "cache-misses")
    r = np.array(
        [
            [1.0, 0.95, 0.92, 0.1],
            [0.95, 1.0, 0.93, 0.1],
            [0.92, 0.93, 1.0, 0.1],
            [0.1, 0.1, 0.1, 1.0],
        ]
    )
    chi2 = _toy_scores(counters, [4.0, 3.0, 2.0, 1.0])
    imp = _toy_scores(counters, [0.4, 0.3, 0.2, 0.1])
    corr = CorrelationMatrix(counters=counters, r=r)
    g = propose_hpc_groups(chi2, imp, corr, n_groups=2, r_max=4, corr_threshold=0.5)
    assert g.groups[0] == ("branch-instructions", "branch-misses", "bus-cycles")
    assert g.groups[1] == ("cache-misses",)


def test_grouping_singletons_cover_catalog(small_dataset):
    chi2 = univariate_select_k_best(small_dataset, 20)
    imp = feature_importance_scores(small_dataset, n_trees=5, seed=0)
    corr = correlation_matrix(small_dataset)
    g = propose_hpc_groups(chi2, imp, corr, n_groups=20, r_max=1, corr_threshold=0.5)
    assert len(g.groups) == 20
    assert all(len(grp) == 1 for grp in g.groups)
    assert {c for grp in g.groups for c in grp} == set(HPC_CATALOG)


@pytest.mark.parametrize("n_groups, r_max, message", [
    (1, 4, "n_groups must be >= 2"),
    (2, 0, "r_max must be in"),
    (2, 21, "r_max must be in"),
])
def test_grouping_rejects_bad_group_parameters(n_groups, r_max, message):
    counters = ("branch-misses", "instructions")
    scores = _toy_scores(counters, [2.0, 1.0])
    corr = CorrelationMatrix(counters=counters, r=np.eye(2))
    with pytest.raises(ConfigurationError, match=message):
        propose_hpc_groups(scores, scores, corr, n_groups, r_max, corr_threshold=0.5)


def test_grouping_pigeonhole(small_dataset):
    chi2 = univariate_select_k_best(small_dataset, 20)
    imp = feature_importance_scores(small_dataset, n_trees=5, seed=0)
    corr = correlation_matrix(small_dataset)
    with pytest.raises(GroupingError):
        propose_hpc_groups(chi2, imp, corr, n_groups=21, r_max=1, corr_threshold=0.5)


def test_grouping_disjoint_and_sized(small_dataset):
    chi2 = univariate_select_k_best(small_dataset, 20)
    imp = feature_importance_scores(small_dataset, n_trees=5, seed=0)
    corr = correlation_matrix(small_dataset)
    g = propose_hpc_groups(chi2, imp, corr, n_groups=5, r_max=4, corr_threshold=0.5)
    seen = set()
    for grp in g.groups:
        assert 1 <= len(grp) <= 4
        assert not seen.intersection(grp)
        seen.update(grp)
