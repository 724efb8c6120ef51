"""From-scratch binary classifiers over HPC subsets.

Decision tree: CART with Gini impurity and reduced-error pruning.
Neural network: ReLU hidden layers, sigmoid output, binary cross-entropy,
full-batch gradient descent. Malware is the positive class (label 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DegenerateDataError,
    DivergenceError,
    EmptyEvaluationError,
    FeatureMismatchError,
    UnsupportedModelError,
)
from .traces import column_indices


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


# ---------------------------------------------------------------------------
# Decision tree


@dataclass(frozen=True, eq=False)
class Tree:
    """A grown CART as parallel node arrays in depth-first pre-order, so each
    child comes after its parent. A row goes left at an inner node when its
    value on `feature` is <= `threshold`. At a leaf, `feature`, `left` and
    `right` are -1 and `threshold` is NaN; `p_malware` is the malware share
    of the training rows that reached the node."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    p_malware: np.ndarray

    @cached_property
    def _tables(self):
        """QuickScorer tables (Lucchese et al., SIGIR 2015), built on first use:
        leaf k, left to right, is bit k of a row's kept bits; going right at an inner
        node clears the bits of its left subtree; the lowest bit kept is the leaf."""
        leaf = np.flatnonzero(self.feature < 0)
        # mask 0 keeps all bits; mask i + 1 clears node i's left subtree (if any)
        edges = np.searchsorted(leaf, np.r_[0, self.left, 0, self.right])
        lo, hi = edges.reshape(2, -1, 1)
        bits = np.arange(8 * ((len(leaf) + 7) // 8))
        masks = np.packbits((bits < lo) | (bits >= hi), axis=1, bitorder="little")
        row = 256 * np.arange(masks.shape[1])[:, None]  # byte j's row of the exit table
        tables = []  # (feature, sorted thresholds, row + kept bytes past the first i)
        for f in np.unique(self.feature[self.feature >= 0]).tolist() or [0]:
            at = np.flatnonzero(self.feature == f)
            at = at[np.argsort(self.threshold[at])]
            prefix = np.bitwise_and.accumulate(masks[np.r_[0, at + 1]], axis=0)
            tables.append((f, self.threshold[at], row + prefix.T))
        low = np.frexp(np.arange(256) & -np.arange(256))[1] - 1  # lowest set bit
        first = leaf[np.minimum(bits[::8, None] + low, len(leaf) - 1)]
        first[:, 0] = len(self.feature)  # past every leaf: the byte keeps no bit
        return first.ravel(), tables

    def node_count(self):
        return len(self.feature)

    def leaves(self, X):
        """The leaf each row of X reaches: right at each cut t < x, NaN > all."""
        exit_, ((f, cuts, prefix), *rest) = self._tables
        kept = prefix.take(cuts.searchsorted(X[:, f]), axis=1)  # (bytes, rows)
        for f, cuts, prefix in rest:  # the row bits match, so & keeps them
            kept &= prefix.take(cuts.searchsorted(X[:, f]), axis=1)
        return exit_.take(kept).min(axis=0)  # leaf ids rise with their bits

    def scores(self, X):
        return self.p_malware[self.leaves(X)]


def _best_splits(Xn, w, wy, n, n_pos, min_leaf):
    """Best split of each column of a node's matrix Xn, whose row i stands for
    w[i] training rows, wy[i] of them malware: (impurity decreases, thresholds),
    with decrease -inf where a column has no split."""
    # Ties may sort in any order for NaN-free X (X holds int64 counters): a split
    # sits only where xs[i] != xs[i + 1], and there the cumsums count all rows <= xs[i].
    cols = np.arange(Xn.shape[1])
    order = np.argsort(Xn, axis=0)
    xs = Xn[order, cols]
    n_left = np.cumsum(w[order[:-1]], axis=0)
    pos_left = np.cumsum(wy[order[:-1]], axis=0)
    p = n_pos / n
    parent = 2.0 * p * (1.0 - p)  # Gini impurity

    n_right = n - n_left
    pos_right = n_pos - pos_left
    valid = (xs[1:] != xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    with np.errstate(invalid="ignore", divide="ignore"):
        pl = pos_left / n_left
        pr = pos_right / n_right
    child = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
    decrease = np.where(valid, parent - child, -np.inf)
    best = np.argmax(decrease, axis=0)
    return decrease[best, cols], 0.5 * (xs[best, cols] + xs[best + 1, cols])


def grow_cart(
    X,
    y,
    max_depth,
    min_leaf,
    feature_subsample=None,
    rng=None,
    importance_out=None,
    weights=None,
):
    """Grow a CART on (X, y), where row i stands for `weights[i]` copies of
    itself (positive ints; one each by default). `feature_subsample` draws
    that many candidate features per split from `rng`; `importance_out`
    accumulates node-weighted Gini decrease per feature."""
    k = X.shape[1]
    # float counts: exact below 2**53, and the split formulas then cast nothing
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=np.float64)
    wy = w * y
    n_total = int(w.sum())
    nodes = []  # [feature, threshold, left, right, p_malware] per node
    stack = [(np.arange(len(y)), 0, None)]  # rows, depth, parent of a right child
    while stack:
        idx, depth, parent = stack.pop()
        if parent is not None:
            parent[3] = len(nodes)
        wi, wyi = w[idx], wy[idx]
        n, n_pos = int(wi.sum()), int(wyi.sum())
        node = [-1, np.nan, -1, -1, n_pos / n]
        nodes.append(node)
        if depth >= max_depth or n < 2 * min_leaf or n_pos in (0, n):
            continue
        if feature_subsample is not None and feature_subsample < k:
            feats = np.sort(rng.choice(k, size=feature_subsample, replace=False))
        else:
            feats = np.arange(k)
        splits = _best_splits(X[idx[:, None], feats], wi, wyi, n, n_pos, min_leaf)
        best = None  # (decrease, feature, threshold)
        for dec, f, threshold in zip(splits[0].tolist(), feats.tolist(), splits[1]):
            if dec > 1e-12 and (best is None or dec > best[0] + 1e-15):
                best = (dec, f, threshold)
        if best is None:
            continue
        dec, f, threshold = best
        if importance_out is not None:
            importance_out[f] += dec * n / n_total
        node[:3] = f, threshold, len(nodes)  # the left child is grown next
        goes_left = X[idx, f] <= threshold
        stack.append((idx[~goes_left], depth + 1, node))
        stack.append((idx[goes_left], depth + 1, None))
    return Tree(*(np.array(column) for column in zip(*nodes)))


def reduced_error_prune(tree, X_prune, y_prune):
    """Bottom-up collapse of subtrees that do not beat their own leaf on the
    held-out prune rows. Returns the pruned tree."""
    n = tree.node_count()
    leaf = tree.leaves(X_prune)
    rows = np.bincount(leaf, minlength=n).tolist()
    malware = np.bincount(leaf[y_prune == 1], minlength=n).tolist()
    feature, left, right = (a.tolist() for a in (tree.feature, tree.left, tree.right))
    errors = [0] * n  # of each subtree once pruned
    end = list(range(1, n + 1))  # one past each subtree's last node
    keep = np.ones(n, dtype=bool)
    # Each child comes after its parent, so a reverse pass is bottom-up.
    for i in reversed(range(n)):
        a, b = left[i], right[i]
        if feature[i] >= 0:
            rows[i], malware[i] = rows[a] + rows[b], malware[a] + malware[b]
            end[i] = end[b]
        leaf_errors = rows[i] - malware[i] if tree.p_malware[i] >= 0.5 else malware[i]
        # Without rows both counts are 0, and the simpler leaf wins.
        if feature[i] >= 0 and leaf_errors > errors[a] + errors[b]:
            errors[i] = errors[a] + errors[b]
        else:
            errors[i] = leaf_errors
            feature[i] = -1  # a leaf, or collapsed into one
            keep[i + 1 : end[i]] = False
    feature = np.array(feature)[keep]
    inner = feature >= 0
    index = np.cumsum(keep) - 1  # each kept node's new index
    return Tree(
        feature,
        np.where(inner, tree.threshold[keep], np.nan),
        np.where(inner, index[tree.left[keep]], -1),
        np.where(inner, index[tree.right[keep]], -1),
        tree.p_malware[keep],
    )


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

    def _forward(self, ws):
        """Fill workspace `ws` with the hidden activations and the scores
        (1, n) of its rows; return the scores."""
        for i, (W, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            a = ws.acts[i + 1] = _product(W, ws.acts[i], out=ws.acts[i + 1])
            a += b[:, None]
            np.maximum(a, 0.0, out=a)
        s = ws.scores = np.matmul(self.weights[-1], ws.acts[-1], out=ws.scores)
        s += self.biases[-1][:, None]
        return _sigmoid(s)

    def _backward(self, ws):
        """Fill every layer's delta in `ws`, last to first, from the output
        delta (1, n) the caller wrote to ws.deltas[-1]."""
        deltas, masks = ws.deltas, ws.masks
        for i in range(len(self.weights) - 1, 0, -1):
            W = self.weights[i]
            deltas[i - 1] = _product(W.T, deltas[i], out=deltas[i - 1])
            # A ReLU unit's output is positive exactly where its input is.
            masks[i - 1] = np.greater(ws.acts[i], 0.0, out=masks[i - 1])
            deltas[i - 1] *= masks[i - 1]

    def forward(self, Xs):
        """Scores for standardized rows Xs (n, d)."""
        return self._forward(_Workspace(Xs, len(self.weights)))[0]

    def train(self, Xs, y, epochs, lr):
        """Full-batch gradient descent on rows Xs (n, d) with labels y. The
        epochs run in float32 on layers [W | b] over inputs that end in a
        ones row, so one product applies a layer and one is its gradient.
        The float64 arrays, which every prediction and gradient reads, take
        the result back, also when training diverges."""
        n, y, lr = len(y), np.asarray(y, dtype=np.float32), np.float32(lr)
        layers = [np.concatenate((W, b[:, None]), axis=1, dtype=np.float32)
                  for W, b in zip(self.weights, self.biases)]
        acts = [np.ones((L.shape[1], n), dtype=np.float32) for L in layers]
        acts[0][:-1] = Xs.T  # each layer's input, above a ones row
        deltas = [np.empty((len(L), n), dtype=np.float32) for L in layers]
        masks = [np.empty((len(a) - 1, n), dtype=bool) for a in acts[1:]]
        try:
            for epoch in range(epochs):
                for L, a, out in zip(layers[:-1], acts, acts[1:]):
                    h = np.matmul(L, a, out=out[:-1])
                    np.maximum(h, 0.0, out=h)
                s = _sigmoid(np.matmul(layers[-1], acts[-1], out=deltas[-1]))
                # Scores lie in [0, 1] unless NaN, so this is where the loss
                # stops being finite.
                if not np.isfinite(s).all():
                    raise DivergenceError(epoch)
                s -= y
                s /= n
                for i in range(len(layers) - 1, 0, -1):
                    _product(layers[i][:, :-1].T, deltas[i], out=deltas[i - 1])
                    # A ReLU unit's output is positive exactly where its input is.
                    deltas[i - 1] *= np.greater(acts[i][:-1], 0.0, out=masks[i - 1])
                for L, a, delta in zip(layers, acts, deltas):
                    L -= lr * (delta @ a.T)
        finally:
            for W, b, L in zip(self.weights, self.biases, layers):
                W[...], b[...] = L[:, :-1], L[:, -1]

    def input_gradient(self, Xs, y):
        """d(BCE loss)/d(standardized input) for rows Xs (n, d)."""
        ws = _Workspace(Xs, len(self.weights))
        ws.deltas[-1] = self._forward(ws) - y
        self._backward(ws)
        return (self.weights[0].T @ ws.deltas[0]).T


def _product(A, B, out):
    """A @ B into `out`. With one column in A, each entry of A @ B is one
    exact product, which a broadcast multiply computes faster; it keeps the
    sign of a zero product, where matmul gives +0.0."""
    product = np.multiply if A.shape[1] == 1 else np.matmul
    return product(A, B, out=out)


def _sigmoid(s):
    """The sigmoid 0.5 * (1 + tanh(0.5 * s)), in place; returns s."""
    s *= 0.5
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


class _Workspace:
    """The (units, n) arrays an inference pass over rows Xs (n, d) fills in
    place. The first pass to write one allocates it, so a forward pass
    allocates no backward arrays."""

    def __init__(self, Xs, n_layers):
        self.acts = [Xs.T] + [None] * (n_layers - 1)  # each layer's input
        self.scores = None
        self.masks = [None] * (n_layers - 1)  # of the hidden layers
        self.deltas = [None] * n_layers


# ---------------------------------------------------------------------------
# Trained classifier wrapper


@dataclass(frozen=True)
class TrainedClassifier:
    algo: str  # "decision_tree" | "neural_network"
    view: FeatureView
    model: object  # Tree | Network

    def scores(self, matrix, counters):
        """Malware scores for rows of `matrix` whose columns are `counters`."""
        X = np.asarray(matrix, dtype=np.float64)
        if counters != self.view.counters:
            X = X[:, column_indices(counters, self.view.counters)]
        if self.algo == "decision_tree":
            return self.model.scores(X)
        return self.model.forward(self.view.standardize(X))

    def predict_labels(self, matrix, counters):
        return (self.scores(matrix, counters) >= 0.5).astype(np.int64)


def fit_tree_arrays(X, y, view, seed, max_depth=8, min_leaf=5, prune_fraction=0.2):
    check_tree_params(max_depth, min_leaf, prune_fraction)
    rng = np.random.default_rng(seed)
    if prune_fraction > 0 and len(y) >= 10:
        order = rng.permutation(len(y))
        # at least one row to prune with, and at least one to grow on
        n_prune = min(max(1, int(round(prune_fraction * len(y)))), len(y) - 1)
        prune_idx, grow_idx = order[:n_prune], order[n_prune:]
        tree = grow_cart(X[grow_idx], y[grow_idx], max_depth, min_leaf)
        tree = reduced_error_prune(tree, X[prune_idx], y[prune_idx])
    else:
        tree = grow_cart(X, y, max_depth, min_leaf)
    return TrainedClassifier(algo="decision_tree", view=view, model=tree)


MAX_DEPTH = 12  # tree levels: at most 4,096 leaves (Tree._tables grow as their square)
MAX_WIDTH = 1024  # units in one hidden layer
MAX_LAYERS = 16  # hidden layers
MAX_EPOCHS = 100_000  # 200 times the default


def check_tree_params(max_depth, min_leaf, prune_fraction):
    """ConfigurationError unless 1 <= max_depth <= MAX_DEPTH, min_leaf >= 1
    and 0 <= prune_fraction < 1."""
    if not (1 <= max_depth <= MAX_DEPTH and min_leaf >= 1 and 0 <= prune_fraction < 1):
        raise ConfigurationError(f"invalid {max_depth=} {min_leaf=} {prune_fraction=}; "
                                 f"need max_depth in [1, {MAX_DEPTH}]")


def check_network_params(hidden, epochs, lr):
    """ConfigurationError unless `hidden` lists 1 to MAX_LAYERS widths, each
    in [1, MAX_WIDTH], 1 <= epochs <= MAX_EPOCHS and lr > 0."""
    if not (0 < len(hidden) <= MAX_LAYERS and all(0 < h <= MAX_WIDTH for h in hidden)
            and 1 <= epochs <= MAX_EPOCHS and lr > 0):
        raise ConfigurationError(  # a long `hidden` would flood the message
            f"invalid {len(hidden)} hidden widths in [{min(hidden, default=0)}, "
            f"{max(hidden, default=0)}], {epochs=} or {lr=}; need 1 to {MAX_LAYERS} "
            f"widths in [1, {MAX_WIDTH}], epochs in [1, {MAX_EPOCHS}] and lr > 0")


def fit_network_arrays(X, y, view, seed, hidden=(16,), epochs=500, lr=0.05):
    check_network_params(hidden, epochs, lr)
    layers = [len(view.counters)] + list(hidden) + [1]
    net = Network.init(layers, seed)
    net.train(view.standardize(X), y, epochs, lr)
    return TrainedClassifier(algo="neural_network", view=view, model=net)


def train_classifier(
    algo, dataset, counters, seed, tree_params=None, network_params=None
):
    """Train an `algo` classifier on every iteration row of `dataset`,
    restricted to `counters` and standardized over those same rows. The
    params dicts override the trainers' keyword defaults."""
    if not dataset.has_both_labels():
        raise DegenerateDataError("training data must contain both labels")
    X, y = dataset.stack(counters)
    view = FeatureView.from_rows(counters, X)
    # Trainers are found by global name at call time, so a rebound one sees every fit.
    if algo == "decision_tree":
        return fit_tree_arrays(X, y, view, seed, **(tree_params or {}))
    if algo == "neural_network":
        return fit_network_arrays(X, y, view, seed, **(network_params or {}))
    raise ConfigurationError(f"unknown algorithm {algo!r}")


def input_gradient(classifier, rows, target_label):
    """Analytic gradient of the cross-entropy loss w.r.t. raw input rows,
    chain-ruled through the view's standardization. `rows` is one row (d,)
    or a batch (n, d); the gradient has the same shape."""
    if classifier.algo != "neural_network":
        raise UnsupportedModelError("input gradients need a neural network")
    if target_label not in ("benign", "malware"):
        raise ConfigurationError(f"bad label {target_label!r}")
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
            raise DataError("counts must be non-negative")

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
    truth, predicted = np.asarray(truth, np.int64), np.asarray(predicted, np.int64)
    tn, fp, fn, tp = np.bincount(2 * truth + predicted, minlength=4).tolist()
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
