"""Moving target defense: a pool of classifiers over disjoint counter groups,
with per-iteration classifier selection driven by a 16-bit maximal-length
LFSR (uniform or best-classifier-priority policy)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EmptyEvaluationError
from .models import (
    compute_metrics,
    confusion_from_predictions,
    train_classifier,
)

LFSR_WIDTH = 16
LFSR_TAPS = (16, 15, 13, 4)  # maximal length: period 2^16 - 1
LFSR_PERIOD = (1 << LFSR_WIDTH) - 1

POLICIES = ("uniform", "priority")  # the selection policies a pool can run


@dataclass(frozen=True)
class Lfsr:
    state: int

    def __post_init__(self):
        if not 0 < self.state < (1 << LFSR_WIDTH):
            raise ConfigurationError("LFSR state must be a nonzero 16-bit value")

    def next(self):
        """One Fibonacci step: feedback = XOR of tap bits, shift left.

        Returns (new Lfsr, 16-bit output = new state).
        """
        fb = 0
        for tap in LFSR_TAPS:
            fb ^= (self.state >> (tap - 1)) & 1
        new_state = ((self.state << 1) | fb) & LFSR_PERIOD
        return Lfsr(new_state), new_state


def lfsr_from_seed(seed):
    """Map an arbitrary integer seed to a valid LFSR state (0 remaps to 1)."""
    state = seed & LFSR_PERIOD
    return Lfsr(state if state else 1)


@functools.cache
def _orbit():
    """(orbit, position): orbit[k] is the LFSR state k steps after state 1,
    and position[state] is that k. Built on first use, not at import.

    Step k shifts in bit b[k + 16], where b[0:16] are state 1's bits from
    the top and b[m] is the XOR of b[m - tap] over the taps. Over GF(2) the
    tap polynomial squared has the same taps at twice the lags, so the same
    recurrence holds with every lag times any power of two M: each vector
    step writes 4 * M bits, and M doubles once 32 * M bits are known.
    """
    n = LFSR_PERIOD + LFSR_WIDTH - 1
    bits = np.zeros(n, np.uint16)
    bits[LFSR_WIDTH - 1] = 1  # state 1
    filled, M = LFSR_WIDTH, 1
    while filled < n:
        if filled >= 2 * LFSR_WIDTH * M:
            M *= 2
        stop = min(filled + min(LFSR_TAPS) * M, n)
        for tap in LFSR_TAPS:
            bits[filled:stop] ^= bits[filled - tap * M : stop - tap * M]
        filled = stop
    orbit = bits[:LFSR_PERIOD].copy()
    for j in range(1, LFSR_WIDTH):  # state k is b[k] .. b[k + 15], top bit first
        orbit <<= 1
        orbit |= bits[j : LFSR_PERIOD + j]
    position = np.zeros(1 << LFSR_WIDTH, np.uint16)
    position[orbit] = np.arange(LFSR_PERIOD, dtype=np.uint16)
    orbit.flags.writeable = position.flags.writeable = False  # shared by every caller
    return orbit, position


def _draws(at, count, choices):
    """The next `count` exactly uniform draws over range(choices) from the
    LFSR outputs after orbit index `at`.

    Rejection sampling: out - 1 runs over 0 .. 2^16 - 2 once per period
    and is kept iff it is below `limit`, the largest multiple of `choices`
    that fits, so (out - 1) % choices is exactly uniform. Each pass reads
    only as many outputs as draws are still missing, so no output past the
    last kept one is read.
    """
    orbit = _orbit()[0]
    limit = choices * (LFSR_PERIOD // choices)
    kept, missing = [np.empty(0, orbit.dtype)], count
    while missing > 0:
        u = np.take(orbit, np.arange(at + 1, at + 1 + missing), mode="wrap") - 1
        at = (at + missing) % LFSR_PERIOD
        kept.append(u[u < limit] % choices)
        missing -= len(kept[-1])
    return np.concatenate(kept, dtype=np.int64)


def select_stream(pool, count):
    """The picks of ticks 0 .. count - 1, read from the LFSR outputs after
    the pool's seed state. Uniform: a draw over every member at each tick.
    Priority: the best member on even ticks, and on odd ticks a draw over
    the other members."""
    start = int(_orbit()[1][lfsr_from_seed(pool.seed).state])
    n = len(pool.classifiers)
    if pool.policy == "uniform":
        return _draws(start, count, n)
    others = _draws(start, count // 2, n - 1)
    picks = np.full(count, pool.best_index)
    picks[1::2] = others + (others >= pool.best_index)
    return picks


class ClassifierSelector:
    """Per-tick selection over a pool: select(t) is pick t of
    select_stream(pool, n) for any n > t, in whatever order ticks come."""

    def __init__(self, pool):
        self._pool = pool
        self._picks = []

    def select(self, tick):
        if tick < 0:
            raise ConfigurationError("tick must be >= 0")
        if tick >= len(self._picks):  # doubling blocks keep ticks 0 .. t linear
            self._picks = select_stream(self._pool, max(1024, 2 * tick)).tolist()
        return self._picks[tick]


@dataclass(frozen=True)
class MtdPool:
    classifiers: tuple
    policy: str  # one of POLICIES
    seed: int
    best_index: int = 0
    counters: tuple = field(init=False)  # every member's view, in member order

    def __post_init__(self):
        if len(self.classifiers) < 2:
            raise ConfigurationError("an MTD pool requires at least 2 classifiers")
        if self.policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {self.policy!r}")
        if not 0 <= self.best_index < len(self.classifiers):
            raise ConfigurationError("best_index out of range")
        counters = ()
        for c in self.classifiers:
            overlap = set(counters).intersection(c.view.counters)
            if overlap:
                raise ConfigurationError(
                    f"classifier views overlap on {sorted(overlap)}"
                )
            counters += c.view.counters
        object.__setattr__(self, "counters", counters)


@dataclass(frozen=True)
class MtdRunReport:
    chosen: np.ndarray  # classifier index per iteration
    predicted: np.ndarray  # 0/1 per iteration
    truth: np.ndarray  # 0/1 per iteration
    selection_histogram: tuple
    pass_count: int
    fail_count: int
    metrics: object

    @property
    def accuracy(self):
        return self.pass_count / (self.pass_count + self.fail_count)


def _pool(members, policy, seed, train):
    """An MtdPool of `members`. For the priority policy, the best member is
    the one with the highest accuracy on the training rows, ties to the
    lower index; the uniform policy never reads it."""
    best_index = 0
    if policy == "priority":
        X, y = train.stack(train.counters)
        accs = [(m.predict_labels(X, train.counters) == y).mean() for m in members]
        best_index = int(np.argmax(accs))
    return MtdPool(tuple(members), policy, seed, best_index)


def design_pool(
    train,
    grouping,
    algos,
    policy="uniform",
    seed=0,
    tree_params=None,
    network_params=None,
):
    """Train one classifier per disjoint counter group into an MtdPool.
    `grouping` is an HpcGrouping or a plain list of counter lists."""
    groups = getattr(grouping, "groups", grouping)
    if len(groups) != len(algos):
        raise ConfigurationError(f"{len(groups)} groups but {len(algos)} algorithms")
    members = [
        train_classifier(
            algo, train, group, seed + 1009 * (i + 1), tree_params, network_params
        )
        for i, (group, algo) in enumerate(zip(groups, algos))
    ]
    return _pool(members, policy, seed, train)


def classify_stream(pool, test):
    """Route every iteration row to a randomly selected pool member, which
    alone classifies it, and account pass/fail against the true labels."""
    if not test.traces:
        raise EmptyEvaluationError("empty test dataset")
    X, y = test.stack(pool.counters)  # every trace has at least one row
    chosen = select_stream(pool, len(y))
    counts = np.bincount(chosen, minlength=len(pool.classifiers)).tolist()
    by_member = np.argsort(chosen.astype(np.uint8), kind="stable")  # uint8: 4x faster
    predicted = np.empty(len(y), np.int64)
    start = col = 0  # pool.counters is the members' views in member order
    for member, count in zip(pool.classifiers, counts):  # one call each, even on 0 rows
        rows, view = by_member[start : start + count], member.view.counters
        cols = X.T[col : col + len(view)].take(rows, axis=1).T  # in X's F order
        predicted[rows] = member.predict_labels(cols, view)
        start, col = start + count, col + len(view)
    cc = confusion_from_predictions(predicted, y)
    return MtdRunReport(
        chosen=chosen,
        predicted=predicted,
        truth=y,
        selection_histogram=tuple(counts),
        pass_count=cc.tp + cc.tn,
        fail_count=cc.fp + cc.fn,
        metrics=compute_metrics(cc),
    )


def evaluate_pool_sweep(
    train,
    test,
    grouping,
    algo,
    policy,
    sizes,
    seeds,
    tree_params=None,
    network_params=None,
):
    """Mean MTD accuracy per pool size, growing the pool through the
    quality-ordered groups. Member i depends only on group i, `algo` and the
    seed, so each seed trains the largest pool once; the rest are prefixes."""
    groups = list(getattr(grouping, "groups", grouping))
    if min(sizes) < 2:  # a negative size would slice a valid prefix
        raise ConfigurationError("pool sizes must be >= 2")
    top = max(sizes)
    per_size = [[] for _ in sizes]
    for seed in seeds:
        # Members do not depend on the policy; each prefix picks its own best.
        members = design_pool(train, groups[:top], [algo] * top, "uniform", seed,
                              tree_params, network_params).classifiers
        for size, out in zip(sizes, per_size):
            pool = _pool(members[:size], policy, seed, train)
            out.append(classify_stream(pool, test).accuracy)
    return [
        {"size": size, "mean_accuracy": float(np.mean(out)), "per_seed": out}
        for size, out in zip(sizes, per_size)
    ]
