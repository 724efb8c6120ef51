"""Three-stage adversarial attack: black-box reverse engineering of the
detector, gradient-sign perturbation prediction, and simulated counter
injection with coupled side effects."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    CounterRangeError,
    OracleError,
    ShapeError,
    UnsupportedModelError,
)
from .models import (
    FeatureView,
    TrainedClassifier,
    fit,
    # Unused here; perfbench's tracer self-test looks it up in this module.
    fit_network_arrays,  # noqa: F401
    input_gradient,
)
from .traces import HpcTrace

INT64_MAX = np.iinfo(np.int64).max

# Injected events per loop of the generator also tick other counters; one
# branch-miss costs a handful of instructions and branch instructions, one
# LLC load miss costs a few instructions. Microarchitectural, config-exposed.
DEFAULT_COUPLING = {
    "branch-misses": {"instructions": 6.0, "branch-instructions": 5.0},
    "LLC-load-misses": {"instructions": 3.0},
}


@dataclass(frozen=True)
class AttackBudget:
    epsilon: float = 1.0
    controllable: tuple = ("branch-misses", "LLC-load-misses")
    coupling: dict = field(default_factory=lambda: dict(DEFAULT_COUPLING))
    max_inject: dict | None = None  # counter -> cap

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ConfigurationError("epsilon must be in (0, 1]")
        for c, side in self.coupling.items():
            for name, coef in side.items():
                if not math.isfinite(coef) or coef < 0:
                    raise ConfigurationError(
                        f"coupling {c!r}->{name!r} must be finite and >= 0"
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
                raise ValueError("deltas must be non-negative")
            arr.setflags(write=False)
            clean[c] = arr
        object.__setattr__(self, "deltas", clean)

    def __add__(self, other):
        if self.n_rows != other.n_rows:
            raise ShapeError("row counts differ")
        merged = {c: arr.copy() for c, arr in self.deltas.items()}
        for c, arr in other.deltas.items():
            if c in merged:
                merged[c] = merged[c] + arr
            else:
                merged[c] = arr.copy()
        return Perturbation(n_rows=self.n_rows, deltas=merged)

    def nonzero_counters(self):
        return {c for c, arr in self.deltas.items() if arr.any()}

    def to_json(self):
        return json.dumps(
            {
                "n_rows": self.n_rows,
                "deltas": {c: arr.tolist() for c, arr in self.deltas.items()},
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(
            n_rows=obj["n_rows"],
            deltas={c: np.array(v, dtype=np.int64) for c, v in obj["deltas"].items()},
        )


@dataclass(frozen=True)
class SurrogateReport:
    surrogate: TrainedClassifier
    agreement: float  # victim-label agreement on held-out probes


def label_oracle(classifier):
    """Wrap a trained classifier as a black-box per-iteration label oracle."""

    def oracle(matrix, counters):
        return classifier.predict_labels(matrix, counters)

    return oracle


def reverse_engineer(
    victim,
    probe,
    candidate_algos,
    seed,
    counters=None,
    tree_params=None,
    network_params=None,
):
    """Train surrogate candidates on black-box victim labels over a 70/30
    app-level probe split; return the candidate with the best held-out
    agreement."""
    if len(probe.traces) < 2:
        raise ConfigurationError("probe needs at least 2 apps")
    if not candidate_algos:
        raise ConfigurationError("candidate algorithm list is empty")
    counters = tuple(counters) if counters else probe.traces[0].counters

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(probe.traces))
    n_fit = max(1, int(round(0.7 * len(probe.traces))))
    if n_fit == len(probe.traces):
        n_fit -= 1
    fit_apps = [probe.traces[i] for i in order[:n_fit]]
    held_apps = [probe.traces[i] for i in order[n_fit:]]

    def rows(apps):
        idx = [apps[0].counters.index(c) for c in counters]
        return np.vstack([t.values[:, idx].astype(np.float64) for t in apps])

    X_fit, X_held = rows(fit_apps), rows(held_apps)
    try:
        y_fit = np.asarray(victim(X_fit, counters), dtype=np.int64)
        y_held = np.asarray(victim(X_held, counters), dtype=np.int64)
    except Exception as exc:
        raise OracleError(f"victim oracle failed: {exc}") from exc

    view = FeatureView.from_rows(counters, X_fit)
    best = None
    for i, algo in enumerate(candidate_algos):
        cand = fit(
            algo, X_fit, y_fit, view, seed + 101 * (i + 1), tree_params, network_params
        )
        agreement = float(
            (cand.predict_labels(X_held, counters) == y_held).mean()
        )
        if best is None or agreement > best.agreement:
            best = SurrogateReport(surrogate=cand, agreement=agreement)
    return best


def craft_perturbation(surrogate, trace, budget):
    """Per-row feasible gradient-sign perturbation against the surrogate.

    Step order is fixed: sign step scaled by the per-counter training sdev,
    positivity mask on controllable counters, integer ceil, coupling, cap.
    """
    if surrogate.algo != "neural_network":
        raise UnsupportedModelError("perturbation prediction needs a network surrogate")
    if trace.label != "malware":
        raise ConfigurationError("only malware traces are camouflaged")
    view = surrogate.view
    trace_idx = [trace.counters.index(c) for c in view.counters]
    g = input_gradient(
        surrogate, trace.values[:, trace_idx].astype(np.float64), "malware"
    )
    deltas = {}
    for c in budget.controllable:
        if c not in view.counters:
            continue
        j = view.counters.index(c)
        hit = g[:, j] > 0  # sign(0) treated as 0; negative steps are infeasible
        if not hit.any():
            continue
        d = int(math.ceil(budget.epsilon * view.sdevs[j]))
        deltas[c] = deltas.get(c, 0) + np.where(hit, d, 0)
        for side, coef in budget.coupling.get(c, {}).items():
            deltas[side] = deltas.get(side, 0) + np.where(hit, int(round(coef * d)), 0)

    if budget.max_inject:
        for c, cap in budget.max_inject.items():
            if c in deltas:
                deltas[c] = np.minimum(deltas[c], int(cap))
    return Perturbation(n_rows=trace.iterations, deltas=deltas)


def inject(trace, p):
    """Add the perturbation's events to a trace; label metadata preserved."""
    if p.n_rows != trace.iterations:
        raise ShapeError(
            f"perturbation has {p.n_rows} rows, trace has {trace.iterations}"
        )
    values = trace.values.astype(np.int64).copy()
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
        interval_ms=trace.interval_ms,
        counters=trace.counters,
        values=values,
    )


def strengthen(p, extra_branch_misses, coupling=None):
    """Add a flat per-row branch-miss load (with coupling) on top of p."""
    if extra_branch_misses < 0:
        raise ConfigurationError("extra branch-misses must be >= 0")
    if extra_branch_misses == 0:
        return p
    coupling = DEFAULT_COUPLING["branch-misses"] if coupling is None else coupling
    extra = {"branch-misses": int(extra_branch_misses)}
    for side, coef in coupling.items():
        extra[side] = extra.get(side, 0) + int(round(coef * extra_branch_misses))
    if any(v > INT64_MAX // 2 for v in extra.values()):
        raise CounterRangeError("extra injection exceeds the counter range")
    flat = Perturbation(
        n_rows=p.n_rows,
        deltas={c: np.full(p.n_rows, v, dtype=np.int64) for c, v in extra.items()},
    )
    return p + flat
