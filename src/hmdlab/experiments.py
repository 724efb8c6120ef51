"""End-to-end experiment recipes wiring traces, classifiers, attack, MTD and
the combinatorial analysis into deterministic machine-readable reports."""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis
from .attack import (
    AttackBudget,
    craft_perturbation,
    inject,
    label_oracle,
    reverse_engineer,
    strengthen,
)
from .errors import ConfigurationError, MappingError
from .features import (
    correlation_matrix,
    feature_importance_scores,
    propose_hpc_groups,
    univariate_select_k_best,
)
from .models import compute_metrics, confusion_from_predictions, train_classifier
from .mtd import classify_stream, design_pool, evaluate_pool_sweep
from .traces import (
    Dataset,
    default_profile,
    generate_synthetic_dataset,
    parse_perf_csv,
    split_train_test,
)

TOOL_VERSION = "0.1.0"

RECIPES = (
    "baseline",
    "attack",
    "mtd",
    "pool_sweep",
    "priority_sweep",
    "mixed",
    "resilience",
    "combinatorics",
)

# Default counter subsets for the end-to-end experiments: the victim
# detector watches the four counters the attack manipulates; the defense
# pool splits two correlated groups between its members.
ATTACK_HPCS = (
    "branch-instructions",
    "branch-misses",
    "instructions",
    "LLC-load-misses",
)
MTD_GROUP_A = ("branch-instructions", "branch-misses", "bus-cycles", "cache-misses")
MTD_GROUP_B = ("cache-references", "cpu-cycles", "instructions")

ALGOS = ("decision_tree", "neural_network")


def _ints(values, lo, hi=math.inf):
    """True when every value is an integer in [lo, hi]."""
    return all(type(v) is int and lo <= v <= hi for v in values)


def _real(value, lo, hi=math.inf):
    """True when value is a finite number in [lo, hi]."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and lo <= value <= hi)


@dataclass(frozen=True)
class ExperimentConfig:
    recipe: str = "baseline"
    seeds: tuple = (7, 8, 9, 10, 11)
    csv_path: str | None = None
    out_dir: str | None = None
    # dataset
    n_benign: int = 300
    n_malware: int = 300
    n_test_per_class: int = 50
    iterations: int = 20
    probe_per_class: int = 150
    # attack
    epsilon: float = 1.0
    max_inject: dict | None = None
    surrogate_algos: tuple = ("neural_network",)
    extras: tuple = (10_000_000, 20_000_000, 40_000_000)
    # classifiers
    max_depth: int = 8
    min_leaf: int = 5
    prune_fraction: float = 0.2
    hidden: tuple = (16,)
    epochs: int = 500
    lr: float = 0.05
    # feature lab / pools
    n_groups: int = 5
    group_r_max: int = 4
    corr_threshold: float = 0.5
    importance_trees: int = 25
    sizes: tuple = (2, 3, 4, 5)
    policy: str = "uniform"
    # combinatorics
    h_t: int = 20
    r_max: int = 4
    single_h: int = 8
    sweep_h_t: tuple = (20, 40, 60, 80, 100)

    def __post_init__(self):
        """Reject every value `run` would fail on, before any work starts."""
        self._check("recipe", self.recipe in RECIPES)
        self._check("seeds", len(self.seeds) > 0 and _ints(self.seeds, 0)
                    and len(set(self.seeds)) == len(self.seeds))
        for name in ("csv_path", "out_dir"):
            self._check(name, isinstance(getattr(self, name), (str, type(None))))
        for name in ("n_benign", "n_malware", "n_test_per_class", "iterations",
                     "probe_per_class", "max_depth", "min_leaf", "epochs",
                     "importance_trees"):
            self._check(name, _ints([getattr(self, name)], 1))
        if self.csv_path is None:  # split_train_test keeps a training app
            self._check("n_test_per_class", self.n_test_per_class
                        < min(self.n_benign, self.n_malware))
        self._check("epsilon", _real(self.epsilon, 0, 1) and self.epsilon > 0)
        self._check("max_inject", self.max_inject is None
                    or isinstance(self.max_inject, dict)
                    and all(_real(v, 0) for v in self.max_inject.values()))
        self._check("surrogate_algos", len(self.surrogate_algos) > 0
                    and all(a in ALGOS for a in self.surrogate_algos))
        self._check("extras", _ints(self.extras, 0))
        self._check("prune_fraction", _real(self.prune_fraction, 0, 1)
                    and self.prune_fraction < 1)
        self._check("hidden", len(self.hidden) > 0 and _ints(self.hidden, 1))
        self._check("lr", _real(self.lr, 0) and self.lr > 0)
        self._check("n_groups", _ints([self.n_groups], 2, 20))
        self._check("group_r_max", _ints([self.group_r_max], 1, 20))
        self._check("corr_threshold", _real(self.corr_threshold, -1, 1))
        self._check("sizes", len(self.sizes) > 0
                    and _ints(self.sizes, 2, self.n_groups))
        self._check("policy", self.policy in ("uniform", "priority"))
        self._check("h_t", _ints([self.h_t], 1))
        self._check("r_max", _ints([self.r_max], 1, self.h_t))
        self._check("single_h", _ints([self.single_h], 1, self.h_t))
        self._check("sweep_h_t", _ints(self.sweep_h_t, self.r_max))
        for h_t in (self.h_t, *self.sweep_h_t):
            analysis.check_classifier_count(analysis.total_classifiers(h_t, self.r_max))

    def _check(self, name, ok):
        if not ok:
            raise ConfigurationError(f"invalid {name}: {getattr(self, name)!r}")

    @property
    def tree_params(self):
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "prune_fraction": self.prune_fraction,
        }

    @property
    def network_params(self):
        return {"hidden": tuple(self.hidden), "epochs": self.epochs, "lr": self.lr}

    @classmethod
    def from_dict(cls, obj):
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        obj = dict(obj)
        for key in ("seeds", "hidden", "sizes", "extras", "sweep_h_t",
                    "surrogate_algos"):
            if key in obj:
                if not isinstance(obj[key], list):
                    raise ConfigurationError(f"{key} must be a list")
                obj[key] = tuple(obj[key])
        return cls(**obj)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _metrics_dict(metrics):
    return {
        "accuracy": metrics.accuracy,
        "precision": metrics.precision,
        "recall": metrics.recall,
    }


def _evaluate(classifier, traces):
    ds = Dataset(tuple(traces), provenance="synthetic")
    counters = traces[0].counters
    X, y = ds.stack(counters)
    cc = confusion_from_predictions(classifier.predict_labels(X, counters), y)
    return compute_metrics(cc)


class SeedContext:
    """Per-seed data, victims and attack artifacts shared across recipes."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        self.seed = seed
        if cfg.csv_path:
            full = parse_perf_csv(cfg.csv_path)
        else:
            profile = default_profile(iterations=cfg.iterations)
            full = generate_synthetic_dataset(
                profile, cfg.n_benign, cfg.n_malware, seed
            )
        self.train, self.test = split_train_test(
            full, cfg.n_test_per_class, seed + 1
        )
        self.test_malware = self.test.by_label("malware")
        self.test_benign = self.test.by_label("benign")
        self.budget = AttackBudget(epsilon=cfg.epsilon, max_inject=cfg.max_inject)
        self._victims = {}
        self._surrogate = None
        self._perturbations = None
        self._attacked = None

    def victim(self, algo):
        if algo not in self._victims:
            self._victims[algo] = train_classifier(
                algo,
                self.train,
                ATTACK_HPCS,
                self.seed,
                self.cfg.tree_params,
                self.cfg.network_params,
            )
        return self._victims[algo]

    def surrogate(self):
        """Network surrogate reverse-engineered from the tree victim, which
        stands in for whichever detector is deployed."""
        if self._surrogate is None:
            cfg = self.cfg
            if cfg.csv_path:
                probe = self.train
            else:
                probe = generate_synthetic_dataset(
                    default_profile(iterations=cfg.iterations),
                    cfg.probe_per_class,
                    cfg.probe_per_class,
                    self.seed + 7919,
                )
            self._surrogate = reverse_engineer(
                label_oracle(self.victim("decision_tree")),
                probe,
                list(cfg.surrogate_algos),
                seed=self.seed + 13,
                counters=ATTACK_HPCS,
                tree_params=cfg.tree_params,
                network_params=cfg.network_params,
            )
        return self._surrogate

    def perturbations(self):
        """One crafted perturbation per test malware trace."""
        if self._perturbations is None:
            sur = self.surrogate().surrogate
            self._perturbations = [
                craft_perturbation(sur, t, self.budget) for t in self.test_malware
            ]
        return self._perturbations

    def attacked_malware(self):
        """Test malware traces with their crafted perturbations injected."""
        if self._attacked is None:
            self._attacked = [
                inject(t, p) for t, p in zip(self.test_malware, self.perturbations())
            ]
        return self._attacked

    def pool(self, algos):
        """MTD pool training one `algos[i]` member on each default group."""
        cfg = self.cfg
        return design_pool(
            self.train,
            [MTD_GROUP_A, MTD_GROUP_B],
            list(algos),
            policy=cfg.policy,
            seed=self.seed,
            tree_params=cfg.tree_params,
            network_params=cfg.network_params,
        )


# ---------------------------------------------------------------------------
# Recipes (per seed)


def _baseline_seed(ctx):
    return {
        algo: {"clean": _metrics_dict(_evaluate(ctx.victim(algo), ctx.test.traces))}
        for algo in ALGOS
    }


def _attack_seed(ctx):
    attacked = ctx.attacked_malware()
    out = {"surrogate_agreement": ctx.surrogate().agreement}
    for algo in ALGOS:
        victim = ctx.victim(algo)
        clean = _evaluate(victim, ctx.test.traces)
        hit = _evaluate(victim, attacked + ctx.test_benign)
        out[algo] = {
            "clean": _metrics_dict(clean),
            "attacked": _metrics_dict(hit),
            # precision is None when no row is flagged, as after full evasion
            "precision_drop": None
            if None in (clean.precision, hit.precision)
            else clean.precision - hit.precision,
        }
    return out


def _mtd_seed(ctx):
    attacked_test = ctx.attacked_malware() + ctx.test_benign
    out = _attack_seed(ctx)
    for algo in ALGOS:
        report = classify_stream(ctx.pool([algo, algo]), Dataset(tuple(attacked_test)))
        out[algo]["mtd"] = _metrics_dict(report.metrics)
        out[algo]["mtd_selection_histogram"] = list(report.selection_histogram)
    return out


def _mixed_seed(ctx):
    attacked = Dataset(tuple(ctx.attacked_malware()))
    out = {}
    for name, algos in (
        ("tree_on_A_network_on_B", ("decision_tree", "neural_network")),
        ("network_on_A_tree_on_B", ("neural_network", "decision_tree")),
    ):
        out[name] = {"accuracy": classify_stream(ctx.pool(algos), attacked).accuracy}
    return out


def _resilience_seed(ctx):
    cfg = ctx.cfg
    victim = ctx.victim("neural_network")
    perturbations = ctx.perturbations()
    pool = ctx.pool(["neural_network", "neural_network"])
    clean_acc = _evaluate(victim, ctx.test_malware).accuracy
    rows = []
    for extra in cfg.extras:
        attacked = [
            inject(t, strengthen(p, extra))
            for t, p in zip(ctx.test_malware, perturbations)
        ]
        attacked_acc = _evaluate(victim, attacked).accuracy
        restored = classify_stream(pool, Dataset(tuple(attacked))).accuracy
        rows.append(
            {
                "extra_branch_misses": extra,
                "attacked_accuracy": attacked_acc,
                "mtd_accuracy": restored,
            }
        )
    return {"clean_accuracy": clean_acc, "levels": rows}


def _grouping_for(cfg, train):
    chi2 = univariate_select_k_best(train, k=cfg.n_groups)
    imp = feature_importance_scores(train, n_trees=cfg.importance_trees, seed=0)
    corr = correlation_matrix(train)
    return propose_hpc_groups(
        chi2,
        imp,
        corr,
        n_groups=cfg.n_groups,
        r_max=cfg.group_r_max,
        corr_threshold=cfg.corr_threshold,
    )


def _sweep_recipe(cfg, policy):
    """Pool-size sweep on the attacked malware of the first seed's split;
    pool training varies over all configured seeds."""
    ctx = SeedContext(cfg, cfg.seeds[0])
    grouping = _grouping_for(cfg, ctx.train)
    attacked = Dataset(tuple(ctx.attacked_malware()))
    out = {"groups": [list(g) for g in grouping.groups]}
    for algo in ALGOS:
        out[algo] = evaluate_pool_sweep(
            ctx.train,
            attacked,
            grouping,
            algo,
            policy,
            sizes=list(cfg.sizes),
            seeds=list(cfg.seeds),
            tree_params=cfg.tree_params,
            network_params=cfg.network_params,
        )
    return out


def _combinatorics_recipe(cfg):
    report = analysis.build_report(h_t=cfg.h_t, r_max=cfg.r_max, single_h=cfg.single_h)
    return {
        "report": json.loads(report.to_json()),
        "sweep": analysis.sweep_curves(list(cfg.sweep_h_t), cfg.r_max),
    }


# ---------------------------------------------------------------------------
# Aggregation and the run entry point

_PER_SEED = {
    "baseline": _baseline_seed,
    "attack": _attack_seed,
    "mtd": _mtd_seed,
    "mixed": _mixed_seed,
    "resilience": _resilience_seed,
}


def _aggregate(per_seed):
    """Elementwise mean/stddev over the seeds' numeric leaves."""
    values = list(per_seed.values())

    def walk(samples):
        first = samples[0]
        if isinstance(first, dict):
            return {k: walk([s[k] for s in samples]) for k in first}
        if isinstance(first, list):
            return [walk([s[i] for s in samples]) for i in range(len(first))]
        if isinstance(first, bool) or not isinstance(first, (int, float)):
            return first
        if any(s is None for s in samples):
            return None
        arr = np.array(samples, dtype=np.float64)
        return {"mean": float(arr.mean()), "stddev": float(arr.std())}

    return walk(values)


def run(config):
    """Execute one recipe and return the (deterministic) report dict."""
    start = time.time()
    cfg = config
    if cfg.recipe in _PER_SEED:
        fn = _PER_SEED[cfg.recipe]
        per_seed = {seed: fn(SeedContext(cfg, seed)) for seed in cfg.seeds}
        results = {"per_seed": per_seed, "aggregate": _aggregate(per_seed)}
    elif cfg.recipe in ("pool_sweep", "priority_sweep"):
        policy = "uniform" if cfg.recipe == "pool_sweep" else "priority"
        results = _sweep_recipe(cfg, policy)
    else:
        results = _combinatorics_recipe(cfg)
    report = {
        "tool": "hmdlab",
        "version": TOOL_VERSION,
        "recipe": cfg.recipe,
        "config": _config_echo(cfg),
        "results": results,
        "wall_clock_s": time.time() - start,
    }
    return report


def _config_echo(cfg):
    obj = asdict(cfg)
    obj.pop("out_dir", None)
    return obj


def write_report(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"report-{report['recipe']}.json")
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


# ---------------------------------------------------------------------------
# Plot data

FIGURES = {
    "metric-bars": ("baseline", "attack", "mtd"),
    "pool-accuracy": ("pool_sweep", "priority_sweep"),
    "mixed-accuracy": ("mixed",),
    "resilience": ("resilience",),
    "hpc-sweep": ("combinatorics",),
}


def emit_plot_data(report, figure):
    """Tidy (series, x, y) rows for one figure id."""
    recipe = report.get("recipe")
    if figure not in FIGURES:
        raise MappingError(f"unknown figure {figure!r}")
    if recipe not in FIGURES[figure]:
        raise MappingError(f"figure {figure!r} does not apply to recipe {recipe!r}")
    results = report["results"]
    rows = []
    if figure == "metric-bars":
        agg = results["aggregate"]
        for algo in ALGOS:
            if algo not in agg:
                continue
            for stage in ("clean", "attacked", "mtd"):
                if stage not in agg[algo]:
                    continue
                for metric, stat in agg[algo][stage].items():
                    if isinstance(stat, dict):
                        rows.append((f"{algo}/{stage}", metric, stat["mean"]))
    elif figure == "pool-accuracy":
        for algo in ALGOS:
            for entry in results[algo]:
                rows.append((algo, entry["size"], entry["mean_accuracy"]))
    elif figure == "mixed-accuracy":
        for name, stats in results["aggregate"].items():
            rows.append((name, "accuracy", stats["accuracy"]["mean"]))
    elif figure == "resilience":
        levels = results["aggregate"]["levels"]
        for entry in levels:
            extra = entry["extra_branch_misses"]["mean"]
            rows.append(("attacked", extra, entry["attacked_accuracy"]["mean"]))
            rows.append(("mtd", extra, entry["mtd_accuracy"]["mean"]))
    elif figure == "hpc-sweep":
        for entry in results["sweep"]:
            rows.append(("n_h", entry["h_t"], float(entry["n_h"])))
            rows.append(("n_c_log10", entry["h_t"], entry["n_c_log10"]))
    return rows


def write_plot_csv(rows, path):
    import csv as _csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _csv.writer(fh, lineterminator="\n")
        w.writerow(["series", "x", "y"])
        for series, x, y in rows:
            w.writerow([series, x, y])
