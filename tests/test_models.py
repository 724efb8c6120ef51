import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace, two_class_dataset
from hmdlab.errors import (
    ConfigurationError,
    DegenerateDataError,
    DivergenceError,
    EmptyEvaluationError,
    FeatureMismatchError,
    UnsupportedModelError,
)
from hmdlab.models import (
    ConfusionCounts,
    FeatureView,
    Network,
    TrainedClassifier,
    TreeNode,
    classifier_from_json,
    classifier_to_json,
    compute_metrics,
    confusion_from_predictions,
    fit,
    fit_network_arrays,
    fit_tree_arrays,
    grow_cart,
    input_gradient,
    predict_iteration,
    reduced_error_prune,
    train_classifier,
    tree_predict_scores,
)
from hmdlab.traces import Dataset

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
    return TrainedClassifier(
        algo="neural_network", view=view, model=net, training_seed=0
    )


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
    with pytest.raises(FeatureMismatchError):
        view.column_indices(("instructions",))


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
    root = grow_cart(X, y, max_depth=8, min_leaf=1)
    assert root.is_leaf()
    assert root.p_malware == pytest.approx(0.7)


def test_pruning_never_adds_nodes():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 4))
    y = ((X[:, 0] > 0) ^ (rng.random(400) < 0.25)).astype(np.int64)
    full = grow_cart(X[:320], y[:320], max_depth=10, min_leaf=2)
    before = full.node_count()
    pruned = reduced_error_prune(full, X[320:], y[320:])
    assert pruned.node_count() <= before


def test_tree_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 1000, size=(200, 2)).astype(np.float64)
    y = ((X[:, 0] + X[:, 1]) > 1000).astype(np.int64)
    a = grow_cart(X, y, max_depth=6, min_leaf=5)
    b = grow_cart(X**2, y, max_depth=6, min_leaf=5)  # order-preserving on >= 0
    Xt = rng.integers(0, 1000, size=(50, 2)).astype(np.float64)
    np.testing.assert_array_equal(
        tree_predict_scores(a, Xt) >= 0.5, tree_predict_scores(b, Xt**2) >= 0.5
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
    for bad in ({"epochs": 0}, {"lr": 0.0}, {"hidden": ()}):
        with pytest.raises(ConfigurationError):
            train_classifier("neural_network", d, TWO, 0, network_params=bad)


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


def test_network_with_nan_weight_diverges_at_epoch_zero():
    net = Network.init([2, 4, 1], seed=0)
    net.weights[0][0, 0] = np.nan
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(DivergenceError) as err:
        net.train(X, np.array([0.0, 1.0]), epochs=5, lr=0.05)
    assert err.value.epoch == 0


def test_fit_rejects_unknown_algo_and_one_label_data():
    d = two_class_dataset(TWO, [[1, 2]], [[9, 8]])
    X, y = d.stack(TWO)
    view = FeatureView.from_rows(TWO, X)
    with pytest.raises(ConfigurationError):
        fit("nearest_neighbor", X, y, view, 0)
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
# predict_iteration


def test_predict_iteration_tree_walk():
    root = TreeNode(p_malware=0.5, n=10)
    root.feature = 0
    root.threshold = 100.0
    root.left = TreeNode(p_malware=0.0, n=5)
    root.right = TreeNode(p_malware=1.0, n=5)
    clf = TrainedClassifier(
        algo="decision_tree",
        view=_identity_view(("instructions",)),
        model=root,
        training_seed=0,
    )
    label, score = predict_iteration(clf, {"instructions": 150})
    assert (label, score) == ("malware", 1.0)
    label, score = predict_iteration(clf, {"instructions": 50})
    assert (label, score) == ("benign", 0.0)


def test_predict_iteration_zero_network_is_malware_by_ge_rule():
    clf = _linear_net(_identity_view(TWO), [0.0, 0.0])
    label, score = predict_iteration(clf, {"branch-misses": 5, "instructions": 9})
    assert score == 0.5
    assert label == "malware"


def test_predict_iteration_missing_counter():
    clf = _linear_net(_identity_view(TWO), [1.0, 1.0])
    with pytest.raises(FeatureMismatchError):
        predict_iteration(clf, {"branch-misses": 5})


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
        clf = TrainedClassifier(
            algo="neural_network", view=view, model=net, training_seed=7
        )
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
        algo="neural_network", view=view, model=Network.init([3, 8, 4, 1], seed=5),
        training_seed=5,
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
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


# ---------------------------------------------------------------------------
# Serialization


def test_serialization_roundtrip_tree(small_dataset):
    clf = train_classifier("decision_tree", small_dataset, TWO, 4)
    back = classifier_from_json(classifier_to_json(clf))
    X, _ = small_dataset.stack(TWO)
    np.testing.assert_array_equal(clf.scores(X, TWO), back.scores(X, TWO))
    assert back.training_seed == 4


def test_serialization_roundtrip_network(small_dataset):
    clf = train_classifier(
        "neural_network", small_dataset, TWO, 4, network_params={"epochs": 50}
    )
    back = classifier_from_json(classifier_to_json(clf))
    X, _ = small_dataset.stack(TWO)
    np.testing.assert_array_equal(clf.scores(X, TWO), back.scores(X, TWO))


def test_serialization_rejects_unknown_version():
    clf = _linear_net(_identity_view(TWO), [1.0, 2.0])
    obj = json.loads(classifier_to_json(clf))
    obj["version"] = 99
    with pytest.raises(ConfigurationError):
        classifier_from_json(json.dumps(obj))
