"""In-memory spans around calls into hmdlab's public functions.

The package's modules import layer functions by name (for example
`from .models import train_neural_network`), so a function is wrapped in
every hmdlab module namespace that holds it, and methods are wrapped on
their class. `Tracer.uninstall` puts every original object back. Nothing
under `src/` changes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

# (span name, defining module, attribute). "Class.method" wraps a method.
TARGETS = (
    ("traces.generate", "hmdlab.traces", "generate_synthetic_dataset"),
    ("traces.parse_csv", "hmdlab.traces", "parse_perf_csv"),
    ("traces.stack", "hmdlab.traces", "Dataset.stack"),
    ("models.tree_fit", "hmdlab.models", "fit_tree_arrays"),
    ("models.network_fit", "hmdlab.models", "fit_network_arrays"),
    ("models.predict", "hmdlab.models", "TrainedClassifier.predict_labels"),
    ("models.input_gradient", "hmdlab.models", "input_gradient"),
    ("features.chi2", "hmdlab.features", "univariate_select_k_best"),
    ("features.importance", "hmdlab.features", "feature_importance_scores"),
    ("features.correlation", "hmdlab.features", "correlation_matrix"),
    ("features.grouping", "hmdlab.features", "propose_hpc_groups"),
    ("attack.reverse_engineer", "hmdlab.attack", "reverse_engineer"),
    ("attack.craft", "hmdlab.attack", "craft_perturbation"),
    ("attack.inject", "hmdlab.attack", "inject"),
    ("mtd.design_pool", "hmdlab.mtd", "design_pool"),
    ("mtd.classify_stream", "hmdlab.mtd", "classify_stream"),
    ("experiments.run", "hmdlab.experiments", "run"),
)

FIT_HYPER = {
    "models.tree_fit": ("max_depth", "min_leaf", "prune_fraction"),
    "models.network_fit": ("hidden", "epochs", "lr"),
}

# name -> unit, better. Every name is reported by `layer_metrics`.
LAYER_METRICS = {
    "models.network_fit.calls": ("count", "lower"),
    "models.network_fit.unique": ("count", "lower"),
    "models.network_fit.s": ("s", "lower"),
    "models.network_fit.epoch_ms": ("ms", "lower"),
    "models.tree_fit.calls": ("count", "lower"),
    "models.tree_fit.unique": ("count", "lower"),
    "models.tree_fit.s": ("s", "lower"),
    "models.fit.unique_share": ("ratio", "higher"),
    "models.predict.calls": ("count", "lower"),
    "models.predict.s": ("s", "lower"),
    "models.input_gradient.calls": ("count", "lower"),
    "models.input_gradient.s": ("s", "lower"),
    "attack.craft.calls": ("count", "lower"),
    "attack.craft.self_s": ("s", "lower"),
    "attack.reverse_engineer.self_s": ("s", "lower"),
    "attack.inject.s": ("s", "lower"),
    "features.importance.s": ("s", "lower"),
    "features.lab.s": ("s", "lower"),
    "traces.stack.calls": ("count", "lower"),
    "traces.stack.s": ("s", "lower"),
    "traces.generate.s": ("s", "lower"),
    "traces.parse_csv.s": ("s", "lower"),
    "traces.parse_csv.rows_per_s": ("rows/s", "higher"),
    "mtd.classify_stream.calls": ("count", "lower"),
    "mtd.classify_stream.self_s": ("s", "lower"),
    "mtd.select.picks_per_s": ("picks/s", "higher"),
    "mtd.design_pool.calls": ("count", "lower"),
    "mtd.design_pool.self_s": ("s", "lower"),
    "experiments.run.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    id: int
    name: str
    op: str  # operation id, e.g. "setup-0" or "op-0"
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0  # summed duration of direct children
    info: dict | None = None

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.children_s


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans = []
        self.op = "setup-0"
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hmdlab" or n.startswith("hmdlab.")]
        for name, modname, attr in TARGETS:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        hyper = FIT_HYPER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            info = None
            if hyper is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                info = {
                    "key": [name, list(a["view"].counters), int(a["seed"]),
                            [repr(a[h]) for h in hyper],
                            _digest(a["X"], a["y"])],
                }
                if "epochs" in a:
                    info["epochs"] = int(a["epochs"])
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(id=len(tracer.spans), name=name, op=tracer.op,
                        parent=None if parent is None else parent.id,
                        start=0.0, info=info)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.children_s += span.dur
            if name == "traces.parse_csv":
                span.info = {"rows": sum(t.iterations for t in result.traces)}
            elif name == "mtd.classify_stream":
                span.info = {"picks": len(result.chosen)}
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, overhead_s):
        """Per-layer totals over every recorded span."""
        by = {}
        for s in self.spans:
            by.setdefault(s.name, []).append(s)

        def calls(n):
            return len(by.get(n, ()))

        def total(n):
            return sum(s.dur for s in by.get(n, ()))

        def self_total(n):
            return sum(s.self_s for s in by.get(n, ()))

        def info_sum(n, key):
            return sum(s.info[key] for s in by.get(n, ()))

        def unique(n):
            return len({json.dumps(s.info["key"]) for s in by.get(n, ())})

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        fits = calls("models.network_fit") + calls("models.tree_fit")
        fit_unique = unique("models.network_fit") + unique("models.tree_fit")
        epochs = info_sum("models.network_fit", "epochs")
        lab = [n for n, *_ in TARGETS if n.startswith("features.")]
        values = {
            "models.network_fit.calls": calls("models.network_fit"),
            "models.network_fit.unique": unique("models.network_fit"),
            "models.network_fit.s": total("models.network_fit"),
            "models.network_fit.epoch_ms":
                1000 * total("models.network_fit") / epochs if epochs else 0.0,
            "models.tree_fit.calls": calls("models.tree_fit"),
            "models.tree_fit.unique": unique("models.tree_fit"),
            "models.tree_fit.s": total("models.tree_fit"),
            "models.fit.unique_share": fit_unique / fits if fits else 1.0,
            "models.predict.calls": calls("models.predict"),
            "models.predict.s": total("models.predict"),
            "models.input_gradient.calls": calls("models.input_gradient"),
            "models.input_gradient.s": total("models.input_gradient"),
            "attack.craft.calls": calls("attack.craft"),
            "attack.craft.self_s": self_total("attack.craft"),
            "attack.reverse_engineer.self_s": self_total("attack.reverse_engineer"),
            "attack.inject.s": total("attack.inject"),
            "features.importance.s": total("features.importance"),
            "features.lab.s": sum(total(n) for n in lab),
            "traces.stack.calls": calls("traces.stack"),
            "traces.stack.s": total("traces.stack"),
            "traces.generate.s": total("traces.generate"),
            "traces.parse_csv.s": total("traces.parse_csv"),
            "traces.parse_csv.rows_per_s": rate(
                info_sum("traces.parse_csv", "rows"), total("traces.parse_csv")),
            "mtd.classify_stream.calls": calls("mtd.classify_stream"),
            "mtd.classify_stream.self_s": self_total("mtd.classify_stream"),
            # The selection loop is the bulk of classify_stream's self time:
            # stacking and member predictions are child spans.
            "mtd.select.picks_per_s": rate(
                info_sum("mtd.classify_stream", "picks"),
                self_total("mtd.classify_stream")),
            "mtd.design_pool.calls": calls("mtd.design_pool"),
            "mtd.design_pool.self_s": self_total("mtd.design_pool"),
            "experiments.run.self_s": self_total("experiments.run"),
            "trace.overhead_s": overhead_s,
        }
        return {k: {"value": values[k], "unit": LAYER_METRICS[k][0]}
                for k in LAYER_METRICS}

    def write(self, path):
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                  "start": s.start, "end": s.end, "self_s": s.self_s,
                  "info": s.info} for s in self.spans],
                fh,
            )
