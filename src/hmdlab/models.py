"""From-scratch binary classifiers over HPC subsets.

Decision tree: CART with Gini impurity and reduced-error pruning.
Neural network: ReLU hidden layers, sigmoid output, binary cross-entropy,
full-batch gradient descent. Malware is the positive class (label 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DivergenceError,
    EmptyEvaluationError,
    FeatureMismatchError,
    UnsupportedModelError,
)

SERIALIZATION_VERSION = 1


@dataclass(frozen=True)
class FeatureView:
    """Ordered counter subset plus per-counter standardization fitted on
    training data. Constant columns get sdev 1 so scaling stays invertible."""

    counters: tuple
    means: np.ndarray
    sdevs: np.ndarray

    def __post_init__(self):
        if not 1 <= len(self.counters) <= 20:
            raise ConfigurationError("view must hold between 1 and 20 counters")
        object.__setattr__(self, "counters", tuple(self.counters))
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "sdevs", np.asarray(self.sdevs, dtype=np.float64))
        if (self.sdevs <= 0).any():
            raise ConfigurationError("sdevs must be positive")

    @classmethod
    def from_rows(cls, counters, X):
        """View standardized over training rows X with columns `counters`."""
        means = X.mean(axis=0)
        sdevs = X.std(axis=0)
        sdevs[sdevs == 0] = 1.0
        return cls(counters=tuple(counters), means=means, sdevs=sdevs)

    def standardize(self, X):
        return (X - self.means) / self.sdevs

    def column_indices(self, counters):
        """Indices of this view's counters inside an external column order."""
        lookup = {c: i for i, c in enumerate(counters)}
        try:
            return [lookup[c] for c in self.counters]
        except KeyError as exc:
            raise FeatureMismatchError(f"missing counter {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# Decision tree


class TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "p_malware", "n")

    def __init__(self, p_malware, n):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.p_malware = p_malware
        self.n = n

    def is_leaf(self):
        return self.feature is None

    def node_count(self):
        if self.is_leaf():
            return 1
        return 1 + self.left.node_count() + self.right.node_count()


def _gini(n_pos, n):
    if n == 0:
        return 0.0
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(x, y, min_leaf):
    """Best (threshold, impurity decrease) for one feature, or None."""
    n = len(y)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    cum_pos = np.cumsum(ys)
    total_pos = cum_pos[-1]
    parent = _gini(total_pos, n)

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
    threshold = 0.5 * (xs[best] + xs[best + 1])
    return threshold, float(decrease[best])


def grow_cart(
    X,
    y,
    max_depth,
    min_leaf,
    feature_subsample=None,
    rng=None,
    importance_out=None,
):
    """Grow a CART on (X, y). `feature_subsample` draws that many candidate
    features per split from `rng`; `importance_out` accumulates node-weighted
    Gini decrease per feature."""
    n_total = len(y)

    def build(idx, depth):
        yi = y[idx]
        n = len(idx)
        n_pos = int(yi.sum())
        node = TreeNode(p_malware=n_pos / n, n=n)
        if depth >= max_depth or n < 2 * min_leaf or n_pos in (0, n):
            return node
        k = X.shape[1]
        if feature_subsample is not None and feature_subsample < k:
            feats = np.sort(rng.choice(k, size=feature_subsample, replace=False))
        else:
            feats = np.arange(k)
        best = None  # (decrease, feature, threshold)
        for f in feats:
            res = _best_split(X[idx, f], yi, min_leaf)
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
        node.feature = f
        node.threshold = threshold
        left_mask = X[idx, f] <= threshold
        node.left = build(idx[left_mask], depth + 1)
        node.right = build(idx[~left_mask], depth + 1)
        return node

    return build(np.arange(n_total), 0)


def _tree_scores(node, X, idx, out):
    if node.is_leaf():
        out[idx] = node.p_malware
        return
    mask = X[idx, node.feature] <= node.threshold
    _tree_scores(node.left, X, idx[mask], out)
    _tree_scores(node.right, X, idx[~mask], out)


def tree_predict_scores(root, X):
    out = np.empty(len(X))
    _tree_scores(root, X, np.arange(len(X)), out)
    return out


def reduced_error_prune(root, X_prune, y_prune):
    """Bottom-up collapse of subtrees that do not beat their own leaf on the
    held-out prune rows. Mutates and returns the tree."""

    def visit(node, idx):
        if node.is_leaf():
            return
        mask = X_prune[idx, node.feature] <= node.threshold
        visit(node.left, idx[mask])
        visit(node.right, idx[~mask])
        if len(idx) == 0:
            # No evidence either way; prefer the simpler leaf.
            node.feature = node.threshold = node.left = node.right = None
            return
        yi = y_prune[idx]
        scores = tree_predict_scores(node, X_prune[idx])
        subtree_errors = int(((scores >= 0.5).astype(int) != yi).sum())
        leaf_errors = int(((1 if node.p_malware >= 0.5 else 0) != yi).sum())
        if leaf_errors <= subtree_errors:
            node.feature = node.threshold = node.left = node.right = None

    visit(root, np.arange(len(X_prune)))
    return root


# ---------------------------------------------------------------------------
# Neural network


class Network:
    """Dense feedforward net on standardized inputs."""

    def __init__(self, weights, biases):
        self.weights = weights  # list of (out, in) arrays
        self.biases = biases  # list of (out,) arrays

    @classmethod
    def init(cls, layer_sizes, seed):
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def _forward(self, Xs):
        """Layer inputs, hidden pre-activations and scores for standardized
        rows Xs (n, d); activations are column-major, (units, n)."""
        acts, zs = [Xs.T], []
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            zs.append(W @ acts[-1] + b[:, None])
            acts.append(np.maximum(zs[-1], 0.0))
        z = self.weights[-1] @ acts[-1] + self.biases[-1][:, None]
        return acts, zs, _sigmoid(z[0])

    def _backward(self, delta, zs):
        """Every layer's delta, first to last, from the output delta (1, n)."""
        deltas = [delta]
        for W, z in zip(self.weights[:0:-1], reversed(zs)):
            deltas.append((W.T @ deltas[-1]) * (z > 0))
        return deltas[::-1]

    def forward(self, Xs):
        """Scores for standardized rows Xs (n, d)."""
        return self._forward(Xs)[2]

    def train(self, Xs, y, epochs, lr):
        n = len(y)
        for epoch in range(epochs):
            acts, zs, s = self._forward(Xs)
            # Scores lie in [0, 1] unless NaN, so this is where the loss
            # stops being finite.
            if not np.isfinite(s).all():
                raise DivergenceError(epoch)
            deltas = self._backward(((s - y) / n)[None, :], zs)
            for W, b, a, delta in zip(self.weights, self.biases, acts, deltas):
                W -= lr * (delta @ a.T)
                b -= lr * delta.sum(axis=1)

    def input_gradient(self, Xs, y):
        """d(BCE loss)/d(standardized input) for rows Xs (n, d)."""
        _, zs, s = self._forward(Xs)
        delta = self._backward((s - y)[None, :], zs)[0]
        return (self.weights[0].T @ delta).T


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# ---------------------------------------------------------------------------
# Trained classifier wrapper


@dataclass(frozen=True)
class TrainedClassifier:
    algo: str  # "decision_tree" | "neural_network"
    view: FeatureView
    model: object  # TreeNode | Network
    training_seed: int

    def scores(self, matrix, counters):
        """Malware scores for rows of `matrix` whose columns are `counters`."""
        idx = self.view.column_indices(counters)
        X = np.asarray(matrix, dtype=np.float64)[:, idx]
        if self.algo == "decision_tree":
            return tree_predict_scores(self.model, X)
        return self.model.forward(self.view.standardize(X))

    def predict_labels(self, matrix, counters):
        return (self.scores(matrix, counters) >= 0.5).astype(np.int64)


def fit_tree_arrays(X, y, view, seed, max_depth=8, min_leaf=5, prune_fraction=0.2):
    if max_depth < 1:
        raise ConfigurationError("max_depth must be >= 1")
    if not 0 <= prune_fraction < 1:
        raise ConfigurationError("prune_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    if prune_fraction > 0 and len(y) >= 10:
        order = rng.permutation(len(y))
        n_prune = max(1, int(round(prune_fraction * len(y))))
        prune_idx, grow_idx = order[:n_prune], order[n_prune:]
        root = grow_cart(X[grow_idx], y[grow_idx], max_depth, min_leaf)
        reduced_error_prune(root, X[prune_idx], y[prune_idx])
    else:
        root = grow_cart(X, y, max_depth, min_leaf)
    return TrainedClassifier(
        algo="decision_tree", view=view, model=root, training_seed=seed
    )


def fit_network_arrays(X, y, view, seed, hidden=(16,), epochs=500, lr=0.05):
    if epochs < 1:
        raise ConfigurationError("epochs must be >= 1")
    if lr <= 0:
        raise ConfigurationError("lr must be positive")
    if not hidden:
        raise ConfigurationError("hidden layer list must be non-empty")
    layers = [len(view.counters)] + list(hidden) + [1]
    net = Network.init(layers, seed)
    net.train(view.standardize(X), y.astype(np.float64), epochs, lr)
    return TrainedClassifier(
        algo="neural_network", view=view, model=net, training_seed=seed
    )


def fit(algo, X, y, view, seed, tree_params=None, network_params=None):
    """Train an `algo` classifier on rows X (columns in view order) with 0/1
    labels y. The params dicts override the trainers' keyword defaults."""
    # Trainers are found by global name at call time, so a rebound one sees every fit.
    if algo == "decision_tree":
        return fit_tree_arrays(X, y, view, seed, **(tree_params or {}))
    if algo == "neural_network":
        return fit_network_arrays(X, y, view, seed, **(network_params or {}))
    raise ConfigurationError(f"unknown algorithm {algo!r}")


def train_classifier(
    algo, dataset, counters, seed, tree_params=None, network_params=None
):
    """Train an `algo` classifier on every iteration row of `dataset`,
    restricted to `counters` and standardized over those same rows."""
    if not dataset.has_both_labels():
        raise DegenerateDataError("training data must contain both labels")
    X, y = dataset.stack(counters)
    view = FeatureView.from_rows(counters, X)
    return fit(algo, X, y, view, seed, tree_params, network_params)


def predict_iteration(classifier, row):
    """Classify one iteration row given as a counter->value mapping.

    Returns (label, score); malware iff score >= 0.5.
    """
    try:
        vec = np.array([[float(row[c]) for c in classifier.view.counters]])
    except KeyError as exc:
        raise FeatureMismatchError(f"missing counter {exc.args[0]!r}") from None
    score = float(classifier.scores(vec, classifier.view.counters)[0])
    return ("malware" if score >= 0.5 else "benign"), score


def input_gradient(classifier, rows, target_label):
    """Analytic gradient of the cross-entropy loss w.r.t. raw input rows,
    chain-ruled through the view's standardization. `rows` is one row (d,)
    or a batch (n, d); the gradient has the same shape."""
    if classifier.algo != "neural_network":
        raise UnsupportedModelError("input gradients need a neural network")
    if target_label not in ("benign", "malware"):
        raise ValueError(f"bad label {target_label!r}")
    raw = np.asarray(rows, dtype=np.float64)
    if raw.ndim not in (1, 2) or raw.shape[-1] != len(classifier.view.counters):
        raise FeatureMismatchError("row length does not match the view")
    y = 1.0 if target_label == "malware" else 0.0
    g_std = classifier.model.input_gradient(
        classifier.view.standardize(raw.reshape(-1, raw.shape[-1])), y
    )
    return (g_std / classifier.view.sdevs).reshape(raw.shape)


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float | None  # None when tp + fp == 0
    recall: float | None  # None when tp + fn == 0


def compute_metrics(cc):
    if cc.total == 0:
        raise EmptyEvaluationError("no iterations evaluated")
    accuracy = (cc.tp + cc.tn) / cc.total
    precision = cc.tp / (cc.tp + cc.fp) if cc.tp + cc.fp else None
    recall = cc.tp / (cc.tp + cc.fn) if cc.tp + cc.fn else None
    return Metrics(accuracy=accuracy, precision=precision, recall=recall)


def confusion_from_predictions(predicted, truth):
    """Counts from 0/1 arrays; malware (1) is positive."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    return ConfusionCounts(
        tp=int(((predicted == 1) & (truth == 1)).sum()),
        tn=int(((predicted == 0) & (truth == 0)).sum()),
        fp=int(((predicted == 1) & (truth == 0)).sum()),
        fn=int(((predicted == 0) & (truth == 1)).sum()),
    )


# ---------------------------------------------------------------------------
# Serialization


def _repr_float(v):
    # plain-float repr; numpy scalars would render as "np.float64(...)"
    return repr(float(v))


def _tree_to_obj(node):
    if node.is_leaf():
        return {"p": _repr_float(node.p_malware), "n": node.n}
    return {
        "feature": node.feature,
        "threshold": _repr_float(node.threshold),
        "p": _repr_float(node.p_malware),
        "n": node.n,
        "left": _tree_to_obj(node.left),
        "right": _tree_to_obj(node.right),
    }


def _tree_from_obj(obj):
    node = TreeNode(p_malware=float(obj["p"]), n=obj["n"])
    if "feature" in obj:
        node.feature = obj["feature"]
        node.threshold = float(obj["threshold"])
        node.left = _tree_from_obj(obj["left"])
        node.right = _tree_from_obj(obj["right"])
    return node


def classifier_to_json(classifier):
    """Versioned JSON; floats rendered with repr for bit-faithful reload."""
    obj = {
        "version": SERIALIZATION_VERSION,
        "algo": classifier.algo,
        "training_seed": classifier.training_seed,
        "view": {
            "counters": list(classifier.view.counters),
            "means": [_repr_float(v) for v in classifier.view.means],
            "sdevs": [_repr_float(v) for v in classifier.view.sdevs],
        },
    }
    if classifier.algo == "decision_tree":
        obj["tree"] = _tree_to_obj(classifier.model)
    else:
        obj["network"] = {
            "weights": [
                [[_repr_float(v) for v in row] for row in W]
                for W in classifier.model.weights
            ],
            "biases": [[_repr_float(v) for v in b] for b in classifier.model.biases],
        }
    return json.dumps(obj)


def classifier_from_json(text):
    obj = json.loads(text)
    if obj.get("version") != SERIALIZATION_VERSION:
        raise ConfigurationError(f"unsupported model version {obj.get('version')!r}")
    view = FeatureView(
        counters=tuple(obj["view"]["counters"]),
        means=np.array([float(v) for v in obj["view"]["means"]]),
        sdevs=np.array([float(v) for v in obj["view"]["sdevs"]]),
    )
    if obj["algo"] == "decision_tree":
        model = _tree_from_obj(obj["tree"])
    else:
        model = Network(
            weights=[
                np.array([[float(v) for v in row] for row in W])
                for W in obj["network"]["weights"]
            ],
            biases=[np.array([float(v) for v in b]) for b in obj["network"]["biases"]],
        )
    return TrainedClassifier(
        algo=obj["algo"], view=view, model=model, training_seed=obj["training_seed"]
    )
