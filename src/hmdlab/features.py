"""Feature testing and HPC grouping.

Three techniques feed the defense pool design: a frequency-style chi-squared
score per counter, mean impurity-decrease importance over randomized trees,
and the pooled Pearson correlation matrix. Groups are then built greedily:
seed with the best remaining counter by combined rank, grow with counters
that correlate with every member above a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDataError, GroupingError
from .models import grow_cart
from .traces import CATALOG_INDEX, catalog_order, column_indices


@dataclass(frozen=True)
class FeatureScores:
    scores: dict  # counter -> non-negative float

    def ranked(self):
        """Counters ordered best-first; ties broken by catalog order."""
        return sorted(
            self.scores,
            key=lambda c: (-self.scores[c], CATALOG_INDEX[c]),
        )


@dataclass(frozen=True)
class CorrelationMatrix:
    counters: tuple
    r: np.ndarray

    def value(self, a, b):
        i, j = column_indices(self.counters, (a, b))
        return float(self.r[i, j])


@dataclass(frozen=True)
class HpcGrouping:
    groups: tuple  # tuple of counter tuples, pairwise disjoint


def _stacked(train):
    if not train.has_both_labels():
        raise DegenerateDataError("need both labels")
    counters = catalog_order(train.counters)  # not a CSV's column order
    X, y = train.stack(counters)
    return counters, X, y


def univariate_select_k_best(train, k):
    """Chi-squared statistic per counter: per-class column sums against the
    expectation under label-independence (class priors from row counts)."""
    counters, X, y = _stacked(train)
    if not 1 <= k <= len(counters):
        raise ConfigurationError(f"k must be in [1, {len(counters)}]")
    pri_malware = y.mean()
    priors = np.array([1 - pri_malware, pri_malware])
    observed = np.vstack([X[y == 0].sum(axis=0), X[y == 1].sum(axis=0)])
    expected = priors[:, None] * X.sum(axis=0)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        chi2 = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    scores = chi2.sum(axis=0)
    return FeatureScores(scores={c: float(s) for c, s in zip(counters, scores)})


MAX_TREES = 1000  # in one importance lab, 40 times the default


def check_tree_count(n_trees):
    """ConfigurationError unless 1 <= n_trees <= MAX_TREES."""
    if not 1 <= n_trees <= MAX_TREES:
        raise ConfigurationError(f"n_trees must be in [1, {MAX_TREES}], not {n_trees}")


def feature_importance_scores(train, n_trees=25, seed=0):
    """Mean impurity-decrease importance over bootstrapped randomized trees
    (sqrt feature subsampling per split), normalized to sum to 1."""
    check_tree_count(n_trees)
    counters, X, y = _stacked(train)
    rng = np.random.default_rng(seed)
    k = X.shape[1]
    subsample = max(1, int(round(math.sqrt(k))))
    totals = np.zeros(k)
    n = len(y)
    for _ in range(n_trees):
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(counts)  # each drawn row once, weighted by its count
        imp = np.zeros(k)
        grow_cart(
            X[rows],
            y[rows],
            max_depth=8,
            min_leaf=5,
            feature_subsample=subsample,
            rng=rng,
            importance_out=imp,
            weights=counts[rows],
        )
        totals += imp
    total = totals.sum()
    if total > 0:
        totals = totals / total
    return FeatureScores(
        scores={c: float(s) for c, s in zip(counters, totals)},
    )


def correlation_matrix(train):
    """Pearson r over all iterations pooled across apps. Zero-variance
    columns correlate 0 with everything and 1 with themselves."""
    counters = catalog_order(train.counters)  # as _stacked: not a CSV's order
    X, _ = train.stack(counters)
    if X.shape[0] < 2:
        raise DegenerateDataError("need at least 2 rows")
    centered = X - X.mean(axis=0)
    sdev = centered.std(axis=0)
    ok = sdev > 0
    scaled = np.zeros_like(centered)
    scaled[:, ok] = centered[:, ok] / sdev[ok]
    r = scaled.T @ scaled / X.shape[0]
    np.fill_diagonal(r, 1.0)
    r = np.clip(r, -1.0, 1.0)
    r = 0.5 * (r + r.T)
    return CorrelationMatrix(counters=counters, r=r)


def _combined_ranks(chi2, imp):
    """Mean of the two best-first rank positions, lower = better."""
    pos_chi2 = {c: i for i, c in enumerate(chi2.ranked())}
    pos_imp = {c: i for i, c in enumerate(imp.ranked())}
    return {c: 0.5 * (pos_chi2[c] + pos_imp[c]) for c in chi2.scores}


def propose_hpc_groups(chi2, imp, corr, n_groups, r_max, corr_threshold):
    """Greedy disjoint grouping of counters for the defense pool.

    Repeatedly seeds a group with the best-ranked unused counter and grows it
    with unused counters whose correlation to every current member exceeds
    `corr_threshold`, up to `r_max` members. Later groups therefore collect
    progressively lower-scoring counters.
    """
    if n_groups < 2:
        raise ConfigurationError("n_groups must be >= 2")
    if not 1 <= r_max <= 20:
        raise ConfigurationError("r_max must be in [1, 20]")
    ranks = _combined_ranks(chi2, imp)
    unused = set(chi2.scores)
    if n_groups > len(unused):
        raise GroupingError(
            f"cannot form {n_groups} groups from {len(unused)} counters"
        )
    order = sorted(unused, key=lambda c: (ranks[c], CATALOG_INDEX[c]))
    groups = []
    for g in range(n_groups):
        remaining_groups = n_groups - g - 1
        seed_counter = next(c for c in order if c in unused)
        group = [seed_counter]
        unused.discard(seed_counter)
        cap = min(r_max, len(unused) - remaining_groups + 1)
        for cand in order:
            if len(group) >= cap:
                break
            if cand not in unused:
                continue
            if all(corr.value(cand, m) > corr_threshold for m in group):
                group.append(cand)
                unused.discard(cand)
        group = catalog_order(group)
        groups.append(group)
    return HpcGrouping(groups=tuple(groups))
