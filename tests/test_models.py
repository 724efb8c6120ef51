import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace, stump, two_class_dataset
from hmdlab import models
from hmdlab.errors import (
    ConfigurationError,
    DataError,
    DegenerateDataError,
    DivergenceError,
    EmptyEvaluationError,
    FeatureMismatchError,
    UnsupportedModelError,
)
from hmdlab.models import (
    MAX_WIDTH,
    ConfusionCounts,
    FeatureView,
    Network,
    TrainedClassifier,
    compute_metrics,
    confusion_from_predictions,
    fit_network_arrays,
    fit_tree_arrays,
    grow_cart,
    input_gradient,
    reduced_error_prune,
    train_classifier,
)
from hmdlab.traces import Dataset, column_indices

TWO = ("branch-misses", "instructions")


def _identity_view(counters):
    n = len(counters)
    return FeatureView(counters=counters, means=np.zeros(n), sdevs=np.ones(n))


def _linear_net(view, weights, bias=0.0):
    """Single logistic unit classifier with hand-set weights."""
    net = Network(
        weights=[np.asarray(weights, dtype=np.float64).reshape(1, -1)],
        biases=[np.array([float(bias)])],
    )
    return TrainedClassifier(algo="neural_network", view=view, model=net)


# ---------------------------------------------------------------------------
# FeatureView


def test_view_fit_constant_column_gets_unit_sdev():
    d = two_class_dataset(
        TWO, benign_rows=[[1, 7], [3, 7]], malware_rows=[[5, 7], [9, 7]]
    )
    view = FeatureView.from_rows(TWO, d.stack(TWO)[0])
    assert view.sdevs[1] == 1.0
    assert view.means[1] == 7.0


def test_view_standardize_roundtrip():
    view = FeatureView(
        counters=TWO, means=np.array([10.0, 5.0]), sdevs=np.array([2.0, 0.5])
    )
    X = np.array([[12.0, 4.0], [8.0, 6.0]])
    np.testing.assert_allclose(view.standardize(X), [[1.0, -2.0], [-1.0, 2.0]])


def test_view_column_indices_mismatch():
    view = _identity_view(TWO)
    with pytest.raises(FeatureMismatchError, match="lacks counter 'branch-misses'"):
        column_indices(("instructions",), view.counters)


@pytest.mark.parametrize("n", [0, 21])
def test_view_rejects_a_counter_count_outside_1_to_20(n):
    counters = tuple(f"c{i}" for i in range(n))
    with pytest.raises(ConfigurationError, match="between 1 and 20 counters"):
        FeatureView(counters=counters, means=np.zeros(n), sdevs=np.ones(n))


def test_view_rejects_nonpositive_sdev():
    with pytest.raises(ConfigurationError):
        FeatureView(
            counters=TWO, means=np.zeros(2), sdevs=np.array([1.0, 0.0])
        )


# ---------------------------------------------------------------------------
# Decision tree


def test_tree_separable_depth_one():
    X = np.array([[float(v)] for v in range(50, 150)])
    y = (X[:, 0] > 100).astype(np.int64)
    view = _identity_view(("instructions",))
    clf = fit_tree_arrays(X, y, view, max_depth=8, min_leaf=5, prune_fraction=0.0, seed=0)
    assert clf.model.node_count() == 3  # one split, two leaves
    assert (clf.predict_labels(X, view.counters) == y).all()


def test_tree_identical_rows_single_leaf():
    X = np.ones((20, 1))
    y = np.array([1] * 14 + [0] * 6)
    tree = grow_cart(X, y, max_depth=8, min_leaf=1)
    assert tree.node_count() == 1
    assert tree.p_malware[0] == pytest.approx(0.7)


def test_pruning_never_adds_nodes():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 4))
    y = ((X[:, 0] > 0) ^ (rng.random(400) < 0.25)).astype(np.int64)
    full = grow_cart(X[:320], y[:320], max_depth=10, min_leaf=2)
    before = full.node_count()
    pruned = reduced_error_prune(full, X[320:], y[320:])
    assert pruned.node_count() <= before


class _RefNode:
    def __init__(self, p_malware):
        self.feature = self.threshold = self.left = self.right = None
        self.p_malware = p_malware


def _ref_best_split(x, y, min_leaf):
    """The best split of one feature, over a stable sort of unweighted rows:
    the reference for each column of models._best_splits."""
    n = len(y)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    cum_pos = np.cumsum(ys)
    total_pos = cum_pos[-1]
    p = total_pos / n
    parent = 2.0 * p * (1.0 - p)
    n_left = np.arange(1, n)
    n_right = n - n_left
    pos_left = cum_pos[:-1]
    pos_right = total_pos - pos_left
    valid = (xs[1:] != xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    with np.errstate(invalid="ignore", divide="ignore"):
        pl = pos_left / n_left
        pr = pos_right / n_right
    child = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
    decrease = np.where(valid, parent - child, -np.inf)
    best = int(np.argmax(decrease))
    if decrease[best] <= 1e-12:
        return None
    return 0.5 * (xs[best] + xs[best + 1]), float(decrease[best])


def _ref_grow(X, y, max_depth, min_leaf, feature_subsample=None, rng=None,
              importance_out=None):
    """CART grown as a recursive node graph: the reference for grow_cart."""
    n_total = len(y)

    def build(idx, depth):
        yi = y[idx]
        n = len(idx)
        n_pos = int(yi.sum())
        node = _RefNode(p_malware=n_pos / n)
        if depth >= max_depth or n < 2 * min_leaf or n_pos in (0, n):
            return node
        k = X.shape[1]
        if feature_subsample is not None and feature_subsample < k:
            feats = np.sort(rng.choice(k, size=feature_subsample, replace=False))
        else:
            feats = np.arange(k)
        best = None
        for f in feats:
            res = _ref_best_split(X[idx, f], yi, min_leaf)
            if res is None:
                continue
            threshold, dec = res
            if best is None or dec > best[0] + 1e-15:
                best = (dec, int(f), threshold)
        if best is None:
            return node
        dec, f, threshold = best
        if importance_out is not None:
            importance_out[f] += dec * n / n_total
        node.feature, node.threshold = f, threshold
        left_mask = X[idx, f] <= threshold
        node.left = build(idx[left_mask], depth + 1)
        node.right = build(idx[~left_mask], depth + 1)
        return node

    return build(np.arange(n_total), 0)


def _ref_scores(node, X, idx, out):
    if node.feature is None:
        out[idx] = node.p_malware
        return
    mask = X[idx, node.feature] <= node.threshold
    _ref_scores(node.left, X, idx[mask], out)
    _ref_scores(node.right, X, idx[~mask], out)


def _ref_prune(node, X_prune, y_prune, idx):
    """Reduced-error pruning of the node graph; returns its error count."""
    leaf_errors = int(((1 if node.p_malware >= 0.5 else 0) != y_prune[idx]).sum())
    if node.feature is None:
        return leaf_errors
    mask = X_prune[idx, node.feature] <= node.threshold
    left_errors = _ref_prune(node.left, X_prune, y_prune, idx[mask])
    subtree_errors = left_errors + _ref_prune(node.right, X_prune, y_prune, idx[~mask])
    if leaf_errors <= subtree_errors:
        node.feature = node.threshold = node.left = node.right = None
        return leaf_errors
    return subtree_errors


def _ref_arrays(root):
    """The node graph as (feature, threshold, left, right, p_malware) arrays
    in depth-first pre-order."""
    nodes = []

    def visit(node):
        i = len(nodes)
        nodes.append([-1, np.nan, -1, -1, node.p_malware])
        if node.feature is not None:
            nodes[i][:2] = node.feature, node.threshold
            nodes[i][2] = visit(node.left)
            nodes[i][3] = visit(node.right)
        return i

    visit(root)
    return [np.array(column) for column in zip(*nodes)]


def _tree_arrays(tree):
    return [tree.feature, tree.threshold, tree.left, tree.right, tree.p_malware]


def _assert_same_tree(tree, root):
    for got, want in zip(_tree_arrays(tree), _ref_arrays(root), strict=True):
        np.testing.assert_array_equal(got, want)
        assert got.dtype.kind == want.dtype.kind


def _tree_data(max_depth):
    rng = np.random.default_rng(max_depth)
    X = rng.normal(size=(200, 4))
    X[:, 3] = np.round(X[:, 3])  # ties between split candidates
    y = ((X[:, 0] + X[:, 1] > 0) ^ (rng.random(200) < 0.3)).astype(np.int64)
    return rng, X, y


@pytest.mark.parametrize("max_depth", range(1, 11))
def test_flat_tree_matches_recursive_node_graph(max_depth):
    rng, X, y = _tree_data(max_depth)
    _assert_grows_like_the_reference(X, y, rng.normal(size=(50, 4)), max_depth)


@pytest.mark.parametrize("max_depth", range(1, 11))
def test_flat_tree_matches_recursive_node_graph_on_tied_rows(max_depth):
    # every column rounded, and rows repeated as a bootstrap draws them
    rng, X, y = _tree_data(max_depth)
    rows = rng.integers(0, 200, size=200)
    X_test = np.round(rng.normal(size=(50, 4)), 1)
    _assert_grows_like_the_reference(np.round(X, 1)[rows], y[rows], X_test, max_depth)


def _assert_grows_like_the_reference(X, y, X_test, max_depth):
    """grow_cart, its importances, Tree.scores and reduced_error_prune match
    the node-graph reference on (X, y)."""
    for min_leaf in range(1, 6):
        for subsample in (None, 2):
            for n_prune in (0, 4, 100):
                X_grow, y_grow = X[: 200 - n_prune], y[: 200 - n_prune]
                X_prune, y_prune = X[200 - n_prune :], y[200 - n_prune :]
                grown = []
                for grow in (grow_cart, _ref_grow):
                    draws = np.random.default_rng(min_leaf)
                    imp = np.zeros(4)
                    tree = grow(X_grow, y_grow, max_depth, min_leaf, subsample,
                                draws, imp)
                    grown.append((tree, imp, draws.integers(1 << 30)))
                (tree, imp, draw), (root, ref_imp, ref_draw) = grown
                _assert_same_tree(tree, root)
                np.testing.assert_array_equal(imp, ref_imp)
                assert draw == ref_draw
                for Xp in (X_test, X_test[:0]):
                    out = np.empty(len(Xp))
                    _ref_scores(root, Xp, np.arange(len(Xp)), out)
                    np.testing.assert_array_equal(tree.scores(Xp), out)
                _ref_prune(root, X_prune, y_prune, np.arange(n_prune))
                _assert_same_tree(reduced_error_prune(tree, X_prune, y_prune), root)


@pytest.mark.parametrize("max_depth", range(1, 11))
def test_weighted_growth_matches_growth_on_repeated_rows(max_depth):
    # a bootstrap draw as counts: row i of X[u] stands for counts[u][i] copies
    rng, X, y = _tree_data(max_depth)
    rows = rng.integers(0, 200, size=200)
    counts = np.bincount(rows, minlength=200)
    u = np.flatnonzero(counts)
    for Xc in (X, np.round(X, 1)):  # rounded: ties in every column
        for min_leaf in range(1, 6):
            for subsample in (None, 2):
                grown = []
                for grow, rows_of, kw in ((grow_cart, u, {"weights": counts[u]}),
                                          (_ref_grow, rows, {})):
                    draws = np.random.default_rng(min_leaf)
                    imp = np.zeros(4)
                    tree = grow(Xc[rows_of], y[rows_of], max_depth, min_leaf,
                                subsample, draws, imp, **kw)
                    grown.append((tree, imp, draws.integers(1 << 30)))
                (tree, imp, draw), (root, ref_imp, ref_draw) = grown
                _assert_same_tree(tree, root)
                np.testing.assert_array_equal(imp, ref_imp)
                assert draw == ref_draw


def _subtree_scores(tree, node, X):
    """Scores of rows X routed from `node`, one row at a time."""
    out = []
    for x in X:
        i = node
        while tree.feature[i] >= 0:
            goes_left = x[tree.feature[i]] <= tree.threshold[i]
            i = tree.left[i] if goes_left else tree.right[i]
        out.append(tree.p_malware[i])
    return np.array(out)


def _reference_prune(tree, node, X_prune, y_prune, idx):
    """Reduced-error pruning that re-predicts every subtree on its rows. It
    collapses a node by setting its feature to -1 in place, which leaves the
    node's subtree unreachable."""
    f = tree.feature[node]
    if f < 0:
        return
    mask = X_prune[idx, f] <= tree.threshold[node]
    _reference_prune(tree, tree.left[node], X_prune, y_prune, idx[mask])
    _reference_prune(tree, tree.right[node], X_prune, y_prune, idx[~mask])
    if len(idx) == 0:
        tree.feature[node] = -1
        return
    yi = y_prune[idx]
    scores = _subtree_scores(tree, node, X_prune[idx])
    subtree_errors = int(((scores >= 0.5).astype(int) != yi).sum())
    leaf_errors = int(((1 if tree.p_malware[node] >= 0.5 else 0) != yi).sum())
    if leaf_errors <= subtree_errors:
        tree.feature[node] = -1


def _structure(tree, node=0):
    if tree.feature[node] < 0:
        return (tree.p_malware[node],)
    return (
        tree.feature[node],
        tree.threshold[node],
        _structure(tree, tree.left[node]),
        _structure(tree, tree.right[node]),
    )


def test_pruning_by_bottom_up_counts_matches_re_predicting_each_subtree():
    sizes = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 3))
        y = ((X[:, 0] + X[:, 1] > 0) ^ (rng.random(300) < 0.3)).astype(np.int64)
        for n_prune in (0, 4, 100):
            X_grow, y_grow = X[: 300 - n_prune], y[: 300 - n_prune]
            X_prune, y_prune = X[300 - n_prune :], y[300 - n_prune :]
            expected = grow_cart(X_grow, y_grow, max_depth=8, min_leaf=1)
            full = expected.node_count()
            _reference_prune(expected, 0, X_prune, y_prune, np.arange(n_prune))
            pruned = reduced_error_prune(
                grow_cart(X_grow, y_grow, max_depth=8, min_leaf=1), X_prune, y_prune
            )
            assert _structure(pruned) == _structure(expected)
            sizes.append((full, pruned.node_count()))
    # Some trees are cut part of the way, so both branches are exercised.
    assert any(1 < after < before for before, after in sizes)


def test_growing_and_pruning_keep_no_reference_to_their_rows():
    # Bootstrap copies must die with their last caller reference, not wait
    # for the cyclic collector.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 4))
    y = ((X[:, 0] > 0) ^ (rng.random(400) < 0.25)).astype(np.int64)
    grow_rows, prune_rows = X[:320].copy(), X[320:].copy()
    refs = [weakref.ref(grow_rows), weakref.ref(prune_rows)]
    gc.disable()
    try:
        root = grow_cart(grow_rows, y[:320], max_depth=10, min_leaf=2)
        reduced_error_prune(root, prune_rows, y[320:])
        del grow_rows, prune_rows
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_tree_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 1000, size=(200, 2)).astype(np.float64)
    y = ((X[:, 0] + X[:, 1]) > 1000).astype(np.int64)
    a = grow_cart(X, y, max_depth=6, min_leaf=5)
    b = grow_cart(X**2, y, max_depth=6, min_leaf=5)  # order-preserving on >= 0
    Xt = rng.integers(0, 1000, size=(50, 2)).astype(np.float64)
    np.testing.assert_array_equal(
        a.scores(Xt) >= 0.5, b.scores(Xt**2) >= 0.5
    )


def test_tree_param_validation():
    d = two_class_dataset(TWO, [[1, 2]], [[9, 8]])
    with pytest.raises(ConfigurationError):
        train_classifier("decision_tree", d, TWO, 0, tree_params={"max_depth": 0})
    with pytest.raises(ConfigurationError):
        train_classifier(
            "decision_tree", d, TWO, 0, tree_params={"prune_fraction": 1.0}
        )


# ---------------------------------------------------------------------------
# Neural network


def _reference_train(weights, biases, Xs, y, epochs, lr):
    """Full-batch training as plain per-epoch arithmetic that allocates every
    array anew, in the dtype of its arguments. Updates the lists in place;
    returns the epoch at which the scores stop being finite, or None."""
    n = len(y)
    for epoch in range(epochs):
        acts, zs = [Xs.T], []
        for W, b in zip(weights[:-1], biases[:-1]):
            zs.append(W @ acts[-1] + b[:, None])
            acts.append(np.maximum(zs[-1], 0.0))
        z = weights[-1] @ acts[-1] + biases[-1][:, None]
        s = 0.5 * (1.0 + np.tanh(0.5 * z[0]))
        if not np.isfinite(s).all():
            return epoch
        deltas = [((s - y) / n)[None, :]]
        for W, z in zip(weights[:0:-1], reversed(zs)):
            deltas.append((W.T @ deltas[-1]) * (z > 0))
        for W, b, a, delta in zip(weights, biases, acts, deltas[::-1]):
            W -= lr * (delta @ a.T)
            b -= lr * delta.sum(axis=1)
    return None


@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("hidden", [(16,), (8, 4), (1,)])
def test_network_train_is_bit_identical_to_the_reference_epoch(hidden, d, n):
    rng = np.random.default_rng(len(hidden) * 100 + d * 10 + n)
    Xs = rng.normal(size=(n, d))
    y = (rng.random(n) < 0.5).astype(np.float64)
    net = Network.init([d, *hidden, 1], seed=n)
    # Network.train runs its epochs in float32, so the reference does too.
    weights, biases, Xs32, y32 = _float32(net.weights, net.biases, Xs, y)
    assert _reference_train(weights, biases, Xs32, y32, 40, np.float32(0.5)) is None
    masters = net.weights + net.biases
    net.train(Xs, y, epochs=40, lr=0.5)
    _assert_float64_masters(net, masters)
    for got, want in zip(net.weights + net.biases, weights + biases):
        assert np.array_equal(got, want)


def _float32(weights, biases, Xs, y):
    """float32 copies of a fit's weight and bias lists, rows and labels."""
    return ([W.astype(np.float32) for W in weights],
            [b.astype(np.float32) for b in biases],
            Xs.astype(np.float32), y.astype(np.float32))


def _assert_float64_masters(net, masters):
    """The net still holds the float64 arrays `masters`, each owning its data."""
    assert [id(a) for a in net.weights + net.biases] == [id(a) for a in masters]
    assert all(a.dtype == np.float64 and a.base is None for a in masters)


@pytest.mark.parametrize("n", [1, 10_000])
def test_one_column_product_matches_matmul_bits(n):
    # The first layer of a one-input network: (16, 1) weights on (1, n) rows.
    rng = np.random.default_rng(n)
    W = rng.uniform(-1.0, 1.0, size=(16, 1))
    rows = rng.normal(size=(n, 1))
    for B in (rows.T, np.ascontiguousarray(rows.T)):
        assert models._product(W, B, None).tobytes() == np.matmul(W, B).tobytes()
    # A zero row gives a signed zero product where matmul gives +0.0; the
    # layer's bias add, with a bias that is never -0.0, makes the bits agree.
    rows[: (n + 1) // 2] = 0.0
    b = np.concatenate([np.zeros(8), rng.normal(size=8)])[:, None]
    got = models._product(W, rows.T, None) + b
    assert got.tobytes() == (np.matmul(W, rows.T) + b).tobytes()


def test_one_input_fit_matches_the_matmul_fit_bits(small_dataset, monkeypatch):
    X, y = small_dataset.stack(("branch-misses",))
    view = FeatureView.from_rows(("branch-misses",), X)
    fast = fit_network_arrays(X, y, view, seed=5, epochs=60)
    monkeypatch.setattr(models, "_product", lambda A, B, out: np.matmul(A, B, out=out))
    slow = fit_network_arrays(X, y, view, seed=5, epochs=60)
    for got, want in zip(fast.model.weights + fast.model.biases,
                         slow.model.weights + slow.model.biases):
        assert got.tobytes() == want.tobytes()


def test_network_fit_keeps_no_reference_to_its_rows():
    # Trained pool members must not keep a fit's rows or buffers alive.
    rng = np.random.default_rng(3)
    Xs = rng.normal(size=(200, 4))
    y = (Xs[:, 0] > 0).astype(np.float64)
    ref = weakref.ref(Xs)
    net = Network.init([4, 8, 4, 1], seed=0)
    gc.disable()
    try:
        net.train(Xs, y, epochs=5, lr=0.05)
        del Xs
        assert ref() is None
    finally:
        gc.enable()
    assert sorted(vars(net)) == ["biases", "weights"]
    assert all(a.base is None for a in net.weights + net.biases)


def test_network_learns_xor():
    base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float64)
    rng = np.random.default_rng(0)
    X = np.tile(base, (50, 1)) + rng.normal(0, 0.05, (200, 2))
    y = (np.abs(np.rint(X[:, 0]) - np.rint(X[:, 1])) > 0.5).astype(np.int64)
    view = FeatureView(counters=TWO, means=X.mean(0), sdevs=X.std(0))
    clf = fit_network_arrays(X, y, view, hidden=(8,), epochs=2000, lr=0.5, seed=1)
    acc = (clf.predict_labels(X, TWO) == y).mean()
    assert acc >= 0.95


def test_network_rejects_bad_params():
    d = two_class_dataset(TWO, [[1, 2]], [[9, 8]])
    for bad in ({"epochs": 0}, {"lr": 0.0}, {"hidden": ()},
                {"hidden": (4, MAX_WIDTH + 1)}, {"hidden": (2**62,)}):
        with pytest.raises(ConfigurationError):
            train_classifier("neural_network", d, TWO, 0, network_params=bad)
    net = train_classifier("neural_network", d, TWO, 0,
                           network_params={"hidden": (MAX_WIDTH,), "epochs": 1})
    assert net.model.weights[0].shape == (MAX_WIDTH, 2)


def test_network_divergence_reports_epoch():
    d = two_class_dataset(
        TWO,
        benign_rows=[[i, 50 + i] for i in range(20)],
        malware_rows=[[100 + i, 200 + i] for i in range(20)],
    )
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        train_classifier(
            "neural_network",
            d,
            TWO,
            0,
            network_params={"hidden": (4,), "epochs": 50, "lr": 1e10},
        )
    assert 0 <= err.value.epoch < 50
    assert f"epoch {err.value.epoch}" in str(err.value)
    X, y = d.stack(TWO)
    ref = Network.init([2, 4, 1], seed=0)
    Xs = FeatureView.from_rows(TWO, X).standardize(X)
    with np.errstate(all="ignore"):
        epoch = _reference_train(
            *_float32(ref.weights, ref.biases, Xs, y), 50, np.float32(1e10)
        )
    assert err.value.epoch == epoch == 4  # float32 overflows sooner than float64


def test_diverging_network_keeps_its_float64_masters():
    net = Network.init([2, 4, 1], seed=0)
    masters = net.weights + net.biases
    X = np.array([[1.0, -1.0], [-1.0, 1.0]] * 10)
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        net.train(X, np.array([0.0, 1.0] * 10), epochs=50, lr=1e30)
    assert err.value.epoch > 0  # so some epochs updated the weights first
    _assert_float64_masters(net, masters)
    assert not all(np.isfinite(a).all() for a in masters)  # the diverged values


def test_network_with_nan_weight_diverges_at_epoch_zero():
    net = Network.init([2, 4, 1], seed=0)
    net.weights[0][0, 0] = np.nan
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(DivergenceError) as err:
        net.train(X, np.array([0.0, 1.0]), epochs=5, lr=0.05)
    assert err.value.epoch == 0


def test_fit_rejects_unknown_algo_and_one_label_data():
    d = two_class_dataset(TWO, [[1, 2]], [[9, 8]])
    with pytest.raises(ConfigurationError):
        train_classifier("nearest_neighbor", d, TWO, 0)
    benign_only = Dataset(tuple(d.by_label("benign")))
    with pytest.raises(DegenerateDataError):
        train_classifier("decision_tree", benign_only, TWO, 0)


def test_network_init_deterministic():
    a = Network.init([4, 8, 1], seed=9)
    b = Network.init([4, 8, 1], seed=9)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_network_glorot_bounds():
    net = Network.init([4, 16, 1], seed=0)
    limit = np.sqrt(6.0 / (4 + 16))
    assert np.abs(net.weights[0]).max() <= limit


def test_training_invariant_under_input_scaling():
    d = two_class_dataset(
        TWO,
        benign_rows=[[i, 50 + i] for i in range(20)],
        malware_rows=[[100 + i, 200 + i] for i in range(20)],
    )
    scaled = two_class_dataset(
        TWO,
        benign_rows=[[10 * i, 10 * (50 + i)] for i in range(20)],
        malware_rows=[[10 * (100 + i), 10 * (200 + i)] for i in range(20)],
    )
    params = {"epochs": 200}
    a = train_classifier("neural_network", d, TWO, 3, network_params=params)
    b = train_classifier("neural_network", scaled, TWO, 3, network_params=params)
    X, _ = d.stack(TWO)
    Xs, _ = scaled.stack(TWO)
    np.testing.assert_array_equal(a.predict_labels(X, TWO), b.predict_labels(Xs, TWO))


# ---------------------------------------------------------------------------
# Classifying single rows


def test_predict_iteration_tree_walk():
    clf = stump("instructions", 100)
    rows = np.array([[150], [50]])
    np.testing.assert_array_equal(clf.scores(rows, ("instructions",)), [1.0, 0.0])
    np.testing.assert_array_equal(clf.predict_labels(rows, ("instructions",)), [1, 0])


def _ref_leaves(tree, X):
    """The leaf of each row of X, walked one row at a time."""
    out = []
    for x in X:
        i = 0
        while tree.feature[i] >= 0:
            goes_left = x[tree.feature[i]] <= tree.threshold[i]
            i = tree.left[i] if goes_left else tree.right[i]
        out.append(i)
    return np.array(out, dtype=np.intp)


@pytest.mark.parametrize("n", [0, 1, 10, 40_000])
def test_leaves_match_a_per_row_walk_in_every_memory_layout(n):
    rng = np.random.default_rng(n)
    X = np.round(rng.normal(size=(400, 4)), 1)
    y = ((X[:, 0] + X[:, 1] > 0) ^ (rng.random(400) < 0.2)).astype(np.int64)
    tree = grow_cart(X, y, max_depth=8, min_leaf=2)
    assert tree.node_count() > 15
    wide = rng.normal(size=(n, 9))
    want = _ref_leaves(tree, wide[:, 3:7])
    for rows in (np.ascontiguousarray(wide[:, 3:7]), np.asfortranarray(wide[:, 3:7]),
                 wide[:, 3:7]):  # C order, F order, and a view of wider rows
        got = tree.leaves(rows)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)


def test_predict_iteration_zero_network_is_malware_by_ge_rule():
    clf = _linear_net(_identity_view(TWO), [0.0, 0.0])
    row = np.array([[5, 9]])
    assert clf.scores(row, TWO)[0] == 0.5
    assert clf.predict_labels(row, TWO)[0] == 1


# ---------------------------------------------------------------------------
# Input gradient


def test_gradient_linear_unit_sign_pattern():
    # single logistic unit w = (2, -3), b = 0, target malware:
    # dL/dx = (sigma(z) - 1) * w, and sigma(z) < 1 -> signs (-, +)
    clf = _linear_net(_identity_view(TWO), [2.0, -3.0])
    g = input_gradient(clf, np.array([0.5, 0.25]), "malware")
    s = 1 / (1 + np.exp(-(2 * 0.5 - 3 * 0.25)))
    np.testing.assert_allclose(g, (s - 1) * np.array([2.0, -3.0]), rtol=1e-12)
    assert g[0] < 0 < g[1]


def test_gradient_zero_network_is_zero():
    clf = _linear_net(_identity_view(TWO), [0.0, 0.0])
    g = input_gradient(clf, np.array([3.0, 4.0]), "malware")
    np.testing.assert_array_equal(g, [0.0, 0.0])


def test_gradient_scales_with_view_sdev():
    view = FeatureView(
        counters=TWO, means=np.array([0.0, 0.0]), sdevs=np.array([4.0, 1.0])
    )
    unit = _identity_view(TWO)
    w = [1.5, -0.5]
    g_unit = input_gradient(_linear_net(unit, w), np.array([2.0, 2.0]), "malware")
    g_scaled = input_gradient(_linear_net(view, w), np.array([8.0, 2.0]), "malware")
    # same standardized point (2, 2); raw-unit gradient divides by sdev
    np.testing.assert_allclose(g_scaled, g_unit / np.array([4.0, 1.0]), rtol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    view = _identity_view(
        ("branch-instructions", "branch-misses", "instructions", "LLC-load-misses")
    )
    for layers in ([4, 8, 1], [4, 8, 8, 1]):
        net = Network.init(layers, seed=7)
        clf = TrainedClassifier(algo="neural_network", view=view, model=net)
        x = rng.normal(size=4)
        g = input_gradient(clf, x, "malware")

        def loss(v):
            s = float(clf.scores(v[None, :], view.counters)[0])
            return -np.log(max(s, 1e-300))

        h = 1e-4
        fd = np.array(
            [
                (loss(x + h * e) - loss(x - h * e)) / (2 * h)
                for e in np.eye(4)
            ]
        )
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4


def test_gradient_of_a_batch_matches_one_call_per_row():
    counters = ("branch-instructions", "branch-misses", "instructions")
    view = FeatureView(
        counters=counters, means=np.array([1.0, -2.0, 0.5]),
        sdevs=np.array([2.0, 0.5, 3.0]),
    )
    clf = TrainedClassifier(
        algo="neural_network", view=view, model=Network.init([3, 8, 4, 1], seed=5)
    )
    rows = np.random.default_rng(4).normal(scale=3.0, size=(30, 3))
    for target in ("benign", "malware"):
        batch = input_gradient(clf, rows, target)
        single = np.array([input_gradient(clf, r, target) for r in rows])
        assert batch.shape == rows.shape
        np.testing.assert_allclose(batch, single, rtol=1e-12)
        np.testing.assert_array_equal(np.sign(batch), np.sign(single))


def test_gradient_requires_network_and_valid_label():
    d = two_class_dataset(TWO, [[1, 2], [2, 3]], [[9, 8], [8, 7]])
    tree = train_classifier(
        "decision_tree", d, TWO, 0, tree_params={"prune_fraction": 0.0}
    )
    with pytest.raises(UnsupportedModelError):
        input_gradient(tree, np.array([1.0, 2.0]), "malware")
    net = _linear_net(_identity_view(TWO), [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        input_gradient(net, np.array([1.0, 2.0]), "suspicious")
    with pytest.raises(FeatureMismatchError):
        input_gradient(net, np.array([1.0, 2.0, 3.0]), "malware")
    with pytest.raises(FeatureMismatchError):
        input_gradient(net, np.ones((2, 3)), "malware")


# ---------------------------------------------------------------------------
# Metrics


def test_metrics_spot_values():
    m = compute_metrics(ConfusionCounts(tp=10, tn=0, fp=10, fn=0))
    assert m.precision == pytest.approx(0.50)
    m = compute_metrics(ConfusionCounts(tp=10, tn=0, fp=0, fn=90))
    assert m.recall == pytest.approx(0.10)
    m = compute_metrics(ConfusionCounts(tp=5, tn=5, fp=0, fn=0))
    assert (m.accuracy, m.precision, m.recall) == (1.0, 1.0, 1.0)


def test_metrics_undefined_denominators():
    m = compute_metrics(ConfusionCounts(tp=0, tn=4, fp=0, fn=0))
    assert m.precision is None
    assert m.recall is None
    with pytest.raises(EmptyEvaluationError):
        compute_metrics(ConfusionCounts(tp=0, tn=0, fp=0, fn=0))
    with pytest.raises(DataError):
        ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)


def test_confusion_from_predictions():
    cc = confusion_from_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert (cc.tp, cc.tn, cc.fp, cc.fn) == (2, 1, 1, 1)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=50)] * 4))
def test_metrics_bounds_property(counts):
    tp, tn, fp, fn = counts
    if tp + tn + fp + fn == 0:
        return
    m = compute_metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
    assert 0.0 <= m.accuracy <= 1.0
    for v in (m.precision, m.recall):
        assert v is None or 0.0 <= v <= 1.0
