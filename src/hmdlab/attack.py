"""Three-stage adversarial attack: black-box reverse engineering of the
detector, gradient-sign perturbation prediction, and simulated counter
injection with coupled side effects."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    CounterRangeError,
    DataError,
    OracleError,
    ShapeError,
)
from .models import (
    FeatureView,
    TrainedClassifier,
    fit_network_arrays,
    input_gradient,
)
from .traces import INT64_MAX, Dataset, HpcTrace, column_indices

# Injected events per loop of the generator also tick other counters; one
# branch-miss costs a handful of instructions and branch instructions, one
# LLC load miss costs a few instructions. Microarchitectural, so fixed.
DEFAULT_COUPLING = {
    "branch-misses": {"instructions": 6.0, "branch-instructions": 5.0},
    "LLC-load-misses": {"instructions": 3.0},
}


def _coupled(counter, events):
    """Events by counter that injecting `events` on `counter` writes."""
    out = {counter: int(events)}
    for side, coef in DEFAULT_COUPLING[counter].items():
        out[side] = int(round(coef * events))
    return out


@dataclass(frozen=True)
class AttackBudget:
    epsilon: float = 1.0
    max_inject: dict | None = None  # counter -> cap

    # The counters the adversary's gadgets drive, and what they also tick.
    controllable = ("branch-misses", "LLC-load-misses")
    coupling = DEFAULT_COUPLING

    def __post_init__(self):
        if isinstance(self.epsilon, bool) or not (
                isinstance(self.epsilon, numbers.Real) and 0 < self.epsilon <= 1):
            raise ConfigurationError(f"epsilon must be in (0, 1], not {self.epsilon!r}")
        # A cap applies only to a counter a perturbation writes.
        cappable = set().union(*(_coupled(c, 1) for c in self.controllable))
        for c, cap in (self.max_inject or {}).items():
            if c not in cappable:
                raise ConfigurationError(
                    f"max_inject names {c!r}, which no perturbation writes"
                )
            if (isinstance(cap, bool) or not isinstance(cap, numbers.Real)
                    or not 0 <= cap <= sys.float_info.max):  # NaN fails too
                raise ConfigurationError(
                    f"max_inject cap for {c!r} must be finite and >= 0"
                )


@dataclass(frozen=True)
class Perturbation:
    """Additive per-row deltas keyed by counter; always non-negative."""

    n_rows: int
    deltas: dict  # counter -> int64 array of length n_rows

    def __post_init__(self):
        clean = {}
        for c, arr in self.deltas.items():
            arr = np.asarray(arr, dtype=np.int64)
            if arr.shape != (self.n_rows,):
                raise ShapeError(f"delta for {c!r} has wrong length")
            if (arr < 0).any():
                raise DataError("deltas must be non-negative")
            arr.setflags(write=False)
            clean[c] = arr
        object.__setattr__(self, "deltas", clean)

    def __add__(self, other):
        if self.n_rows != other.n_rows:
            raise ShapeError("row counts differ")
        merged = dict(self.deltas)
        for c, arr in other.deltas.items():
            if c in merged:
                if (merged[c] > INT64_MAX - arr).any():
                    raise CounterRangeError(f"counter {c!r} would overflow")
                arr = merged[c] + arr
            merged[c] = arr
        return Perturbation(n_rows=self.n_rows, deltas=merged)

    def nonzero_counters(self):
        return {c for c, arr in self.deltas.items() if arr.any()}


@dataclass(frozen=True)
class SurrogateReport:
    surrogate: TrainedClassifier
    agreement: float  # victim-label agreement on held-out probes


def reverse_engineer(victim, probe, seed, counters, network_params=None):
    """Train a network surrogate on black-box victim labels over a 70/30
    app-level probe split; report its held-out agreement with the victim."""
    if len(probe.traces) < 2:
        raise ConfigurationError("probe needs at least 2 apps")
    counters = tuple(counters)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(probe.traces))
    n_fit = round(0.7 * len(probe.traces))  # 1 <= n_fit < n for every n >= 2
    X_fit, X_held = (
        Dataset(tuple(probe.traces[i] for i in part)).stack(counters)[0]
        for part in (order[:n_fit], order[n_fit:])
    )
    try:
        y_fit = np.asarray(victim(X_fit, counters), dtype=np.int64)
        y_held = np.asarray(victim(X_held, counters), dtype=np.int64)
    except Exception as exc:
        raise OracleError(f"victim oracle failed: {exc}") from exc

    view = FeatureView.from_rows(counters, X_fit)
    surrogate = fit_network_arrays(
        X_fit, y_fit, view, seed + 101, **(network_params or {})
    )
    agreement = float((surrogate.predict_labels(X_held, counters) == y_held).mean())
    return SurrogateReport(surrogate=surrogate, agreement=agreement)


def craft_perturbation(surrogate, trace, budget):
    """Per-row feasible gradient-sign perturbation against the surrogate.

    Step order is fixed: sign step scaled by the per-counter training sdev,
    positivity mask on controllable counters, integer ceil, coupling, cap.
    A capped counter's delta is min(sum of its contributions, cap). Raises
    CounterRangeError when an uncapped delta or sum exceeds the int64 range.
    """
    if trace.label != "malware":
        raise ConfigurationError("only malware traces are camouflaged")
    view = surrogate.view
    idx = column_indices(trace.counters, view.counters)
    X = trace.values[:, idx].astype(np.float64)
    g = input_gradient(surrogate, X, "malware")
    caps = {c: min(int(cap), INT64_MAX)
            for c, cap in (budget.max_inject or {}).items()}
    deltas = {}
    for c in budget.controllable:
        if c not in view.counters:
            continue
        j = view.counters.index(c)
        hit = g[:, j] > 0  # sign(0) treated as 0; negative steps are infeasible
        if not hit.any():
            continue
        d = int(math.ceil(budget.epsilon * view.sdevs[j]))
        for name, v in _coupled(c, d).items():
            prior = deltas.get(name, 0)
            cap = caps.get(name, INT64_MAX)
            if name not in caps and v > cap - int(np.where(hit, prior, 0).max()):
                raise CounterRangeError(
                    f"a {c!r} step adds more {name!r} events than a counter holds"
                )
            v = min(v, cap)
            # min(prior + v, cap), which never passes the int64 range
            deltas[name] = np.where(hit, v + np.minimum(prior, cap - v), prior)
    return Perturbation(n_rows=trace.iterations, deltas=deltas)


def inject(trace, p):
    """Add the perturbation's events to a trace; label metadata preserved."""
    if p.n_rows != trace.iterations:
        raise ShapeError(
            f"perturbation has {p.n_rows} rows, trace has {trace.iterations}"
        )
    values = trace.values.astype(np.int64)
    for c, arr in p.deltas.items():
        if c not in trace.counters:
            raise ShapeError(f"trace lacks counter {c!r}")
        j = trace.counters.index(c)
        if (values[:, j] > INT64_MAX - arr).any():
            raise CounterRangeError(f"counter {c!r} would overflow")
        values[:, j] += arr
    return HpcTrace(
        app_id=trace.app_id,
        label=trace.label,
        counters=trace.counters,
        values=values,
    )


def flat_injection(extra_branch_misses):
    """Per-row events by counter of a flat `extra_branch_misses` load, with
    the default coupling; None when one exceeds half the counter range."""
    if extra_branch_misses < 0:
        raise ConfigurationError("extra branch-misses must be >= 0")
    if extra_branch_misses > INT64_MAX // 2:  # before a float product overflows
        return None
    extra = _coupled("branch-misses", extra_branch_misses)
    return None if any(v > INT64_MAX // 2 for v in extra.values()) else extra


def strengthen(p, extra_branch_misses):
    """Add a flat per-row branch-miss load (with coupling) on top of p."""
    extra = flat_injection(extra_branch_misses)
    if extra is None:
        raise CounterRangeError("extra injection exceeds the counter range")
    if extra_branch_misses == 0:
        return p
    flat = Perturbation(
        n_rows=p.n_rows,
        deltas={c: np.full(p.n_rows, v, dtype=np.int64) for c, v in extra.items()},
    )
    return p + flat
