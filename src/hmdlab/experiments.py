"""End-to-end experiment recipes wiring traces, classifiers, attack, MTD and
the combinatorial analysis into deterministic machine-readable reports."""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import __version__, analysis
from .attack import (
    AttackBudget,
    craft_perturbation,
    flat_injection,
    inject,
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
from .models import (
    check_hidden,
    compute_metrics,
    confusion_from_predictions,
    train_classifier,
)
from .mtd import POLICIES, classify_stream, design_pool, evaluate_pool_sweep
from .traces import (
    Dataset,
    check_synthetic_size,
    default_profile,
    generate_synthetic_dataset,
    parse_perf_csv,
    split_train_test,
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
    """True when value is a number in [lo, hi] that a float holds."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and lo <= value <= hi and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class ExperimentConfig:
    recipe: str = "baseline"
    seeds: tuple = (7, 8, 9, 10, 11)
    csv_path: str | None = None
    # dataset
    n_benign: int = 300
    n_malware: int = 300
    n_test_per_class: int = 50
    iterations: int = 20
    probe_per_class: int = 150
    # attack
    epsilon: float = 1.0
    max_inject: dict | None = None
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
        self._check("recipe", isinstance(self.recipe, str) and self.recipe in RECIPES)
        self._check("seeds", len(self.seeds) > 0 and _ints(self.seeds, 0)
                    and len(set(self.seeds)) == len(self.seeds))
        self._check("csv_path", isinstance(self.csv_path, (str, type(None))))
        for name in ("n_benign", "n_malware", "n_test_per_class", "iterations",
                     "probe_per_class", "max_depth", "min_leaf", "epochs",
                     "importance_trees"):
            self._check(name, _ints([getattr(self, name)], 1))
        if self.csv_path is None:  # split_train_test keeps a training app
            self._check("n_test_per_class", self.n_test_per_class
                        < min(self.n_benign, self.n_malware))
            check_synthetic_size(self.n_benign, self.n_malware, self.iterations)
            check_synthetic_size(self.probe_per_class, self.probe_per_class,
                                 self.iterations)
        self._check("max_inject", isinstance(self.max_inject, (dict, type(None))))
        AttackBudget(epsilon=self.epsilon, max_inject=self.max_inject)
        self._check("extras", _ints(self.extras, 0)
                    and all(flat_injection(e) is not None for e in self.extras))
        self._check("prune_fraction", _real(self.prune_fraction, 0, 1)
                    and self.prune_fraction < 1)
        self._check("hidden", all(type(h) is int for h in self.hidden))
        check_hidden(self.hidden)
        self._check("lr", _real(self.lr, 0) and self.lr > 0)
        self._check("n_groups", _ints([self.n_groups], 2, 20))
        self._check("group_r_max", _ints([self.group_r_max], 1, 20))
        self._check("corr_threshold", _real(self.corr_threshold, -1, 1))
        self._check("sizes", len(self.sizes) > 0
                    and _ints(self.sizes, 2, self.n_groups))
        self._check("policy", self.policy in POLICIES)
        self._check("h_t", _ints([self.h_t], 1))
        self._check("r_max", _ints([self.r_max], 1, self.h_t))
        self._check("single_h", _ints([self.single_h], 1, self.h_t))
        self._check("sweep_h_t", _ints(self.sweep_h_t, self.r_max))
        for h_t in (self.h_t, *self.sweep_h_t):
            analysis.check_classifier_count(analysis.total_classifiers(h_t, self.r_max))
        analysis.check_subset_count(self.h_t, self.single_h)

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
        if not isinstance(obj, dict):
            raise ConfigurationError("a config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        obj = dict(obj)
        for key, value in obj.items():
            if isinstance(cls.__dataclass_fields__[key].default, tuple):
                if not isinstance(value, list):
                    raise ConfigurationError(f"{key} must be a list")
                obj[key] = tuple(value)
        return cls(**obj)

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(read_json(path))


def read_json(path, report=False):
    """The JSON value in the file at `path`. Raises ConfigurationError (for a
    `report`, MappingError) if the file is not UTF-8, not JSON or too deep."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or JSON
            fault = f"{path} is not JSON: {exc}"
    if report:
        raise MappingError(fault)
    raise ConfigurationError(fault)


def _evaluate(classifier, traces):
    ds = Dataset(tuple(traces), provenance="synthetic")
    X, y = ds.stack(ds.counters)
    cc = confusion_from_predictions(classifier.predict_labels(X, ds.counters), y)
    return compute_metrics(cc)


class SeedContext:
    """Per-seed data, victims and attack artifacts shared across recipes.
    `full` is the dataset to split, when the caller has it already; by
    default it is the parsed `cfg.csv_path` or the seed's synthetic draw."""

    def __init__(self, cfg, seed, full=None):
        self.cfg = cfg
        self.seed = seed
        if full is None and cfg.csv_path:
            full = parse_perf_csv(cfg.csv_path)
        elif full is None:
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

    @cached_property
    def surrogate(self):
        """Network surrogate reverse-engineered from the tree victim, which
        stands in for whichever detector is deployed."""
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
        return reverse_engineer(
            self.victim("decision_tree").predict_labels,
            probe,
            seed=self.seed + 13,
            counters=ATTACK_HPCS,
            network_params=cfg.network_params,
        )

    @cached_property
    def perturbations(self):
        """One crafted perturbation per test malware trace."""
        sur = self.surrogate.surrogate
        return [craft_perturbation(sur, t, self.budget) for t in self.test_malware]

    @cached_property
    def attacked_malware(self):
        """Test malware traces with their crafted perturbations injected."""
        return [inject(t, p) for t, p in zip(self.test_malware, self.perturbations)]

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
        algo: {"clean": asdict(_evaluate(ctx.victim(algo), ctx.test.traces))}
        for algo in ALGOS
    }


def _attack_seed(ctx):
    attacked = ctx.attacked_malware
    out = {"surrogate_agreement": ctx.surrogate.agreement}
    for algo in ALGOS:
        victim = ctx.victim(algo)
        clean = _evaluate(victim, ctx.test.traces)
        hit = _evaluate(victim, attacked + ctx.test_benign)
        out[algo] = {
            "clean": asdict(clean),
            "attacked": asdict(hit),
            # precision is None when no row is flagged, as after full evasion
            "precision_drop": None
            if None in (clean.precision, hit.precision)
            else clean.precision - hit.precision,
        }
    return out


def _mtd_seed(ctx):
    attacked_test = ctx.attacked_malware + ctx.test_benign
    out = _attack_seed(ctx)
    for algo in ALGOS:
        report = classify_stream(ctx.pool([algo, algo]), Dataset(tuple(attacked_test)))
        out[algo]["mtd"] = asdict(report.metrics)
        out[algo]["mtd_selection_histogram"] = list(report.selection_histogram)
    return out


def _mixed_seed(ctx):
    attacked = Dataset(tuple(ctx.attacked_malware))
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
    perturbations = ctx.perturbations
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
    if cfg.n_groups > len(train.counters):
        raise ConfigurationError(f"n_groups is {cfg.n_groups}, but {cfg.csv_path} "
                                 f"has only {len(train.counters)} counters")
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


def _sweep_recipe(cfg):
    """Pool-size sweep on the attacked malware of the first seed's split;
    pool training varies over all configured seeds."""
    ctx = SeedContext(cfg, cfg.seeds[0])
    grouping = _grouping_for(cfg, ctx.train)
    attacked = Dataset(tuple(ctx.attacked_malware))
    out = {"groups": [list(g) for g in grouping.groups]}
    for algo in ALGOS:
        out[algo] = evaluate_pool_sweep(
            ctx.train,
            attacked,
            grouping,
            algo,
            cfg.policy,
            sizes=list(cfg.sizes),
            seeds=list(cfg.seeds),
            tree_params=cfg.tree_params,
            network_params=cfg.network_params,
        )
    return out


def _combinatorics_recipe(cfg):
    return {
        "report": analysis.build_report(cfg.h_t, cfg.r_max, cfg.single_h),
        "sweep": analysis.sweep_curves(list(cfg.sweep_h_t), cfg.r_max),
    }


# ---------------------------------------------------------------------------
# Aggregation and the run entry point


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


def _per_seed(seed_fn):
    """A recipe running `seed_fn` on each seed's context, then aggregating."""

    def recipe(cfg):
        # A CSV is the same for every seed, so it is parsed once per run.
        full = parse_perf_csv(cfg.csv_path) if cfg.csv_path else None
        per_seed = {seed: seed_fn(SeedContext(cfg, seed, full)) for seed in cfg.seeds}
        return {"per_seed": per_seed, "aggregate": _aggregate(per_seed)}

    return recipe


# Recipe name -> function computing a report's `results` from the config.
RECIPES = {
    "baseline": _per_seed(_baseline_seed),
    "attack": _per_seed(_attack_seed),
    "mtd": _per_seed(_mtd_seed),
    "pool_sweep": _sweep_recipe,
    "mixed": _per_seed(_mixed_seed),
    "resilience": _per_seed(_resilience_seed),
    "combinatorics": _combinatorics_recipe,
}


def run(cfg):
    """Execute one recipe and return the (deterministic) report dict."""
    start = time.time()
    results = RECIPES[cfg.recipe](cfg)
    return {
        "tool": "hmdlab",
        "version": __version__,
        "recipe": cfg.recipe,
        "config": asdict(cfg),
        "results": results,
        "wall_clock_s": time.time() - start,
    }


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
    "pool-accuracy": ("pool_sweep",),
    "mixed-accuracy": ("mixed",),
    "resilience": ("resilience",),
    "hpc-sweep": ("combinatorics",),
}


def emit_plot_data(report, figure):
    """Tidy (series, x, y) rows for one figure id."""
    if not isinstance(report, dict) or "results" not in report:
        raise MappingError("not a report: it has no results")
    recipe = report.get("recipe")
    if figure not in FIGURES:
        raise MappingError(f"unknown figure {figure!r}")
    if recipe not in FIGURES[figure]:
        raise MappingError(f"figure {figure!r} does not apply to recipe {recipe!r}")
    results = report["results"]
    rows = []
    try:
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
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise MappingError(f"report results do not hold figure {figure!r}: {exc!r}")
    return rows


def write_plot_csv(rows, fh):
    """Write (series, x, y) rows as CSV with a header to the text stream fh."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["series", "x", "y"])
    w.writerows(rows)
