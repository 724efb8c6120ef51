"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in `setup`, runs
one timed operation in `timed`, and checks the operation's outputs in
`check` outside the timed region. The checks test properties the paper's
pipeline must keep; they pin no MTD selection numbers, because the LFSR
selection streams are expected to change.
"""

from __future__ import annotations

import os
import time

import numpy as np

from hmdlab import experiments, features, mtd, traces
from hmdlab.experiments import ExperimentConfig

# Smoke configurations make each workload finish in seconds; the
# self-tests use them. They are too small for the acceptance thresholds.
SMOKE = dict(n_benign=40, n_malware=40, n_test_per_class=10, iterations=5,
             probe_per_class=20, epochs=30, importance_trees=3)


def _report_results(report):
    """A report's deterministic part: everything except the wall clock."""
    return {k: v for k, v in report.items() if k != "wall_clock_s"}


class Outcome:
    """What one timed operation produced and how long its steps took."""

    def __init__(self, raw, requests, steps=None, latencies_s=()):
        self.raw = raw
        self.requests = requests  # operations this outcome counts as
        # "ingest" and "detect" step times; a recipe has no separate steps.
        self.steps = steps or {}
        self.latencies_s = list(latencies_s)


# ---------------------------------------------------------------------------
# Recipe workloads


class _Recipe:
    """One `experiments.run` call is the timed operation."""

    recipe = ""
    n_seeds = 0

    def config(self, seed, smoke):
        extra = SMOKE if smoke else {}
        seeds = tuple(range(seed, seed + self.n_seeds))
        return ExperimentConfig(recipe=self.recipe, seeds=seeds, **extra)

    def setup(self, seed, smoke, workdir):
        return {"cfg": self.config(seed, smoke)}

    def teardown(self, state):
        pass

    def timed(self, state):
        return Outcome(experiments.run(state["cfg"]), requests=1)

    def results(self, state, outcome):
        return _report_results(outcome.raw)


class AttackMtd(_Recipe):
    """The `mtd` recipe: victims, the three-stage attack and MTD pools."""

    recipe = "mtd"
    n_seeds = 5
    # Exact fit counts of one operation at full size: (calls, distinct keys).
    expected_fits = {"models.network_fit": (20, 20), "models.tree_fit": (15, 15)}

    def check(self, state, outcome):
        """Acceptance criteria 5 and 6 over the run's seeds."""
        per_seed = outcome.raw["results"]["per_seed"]
        failures = []
        for algo in experiments.ALGOS:
            drops = [r[algo]["precision_drop"] for r in per_seed.values()]
            clean = [r[algo]["clean"]["precision"] for r in per_seed.values()]
            defended = [r[algo]["mtd"]["precision"] for r in per_seed.values()]
            if None in drops + clean + defended:
                failures.append(f"{algo}: undefined precision")
                continue
            if np.mean(drops) < 0.15:
                failures.append(f"{algo}: mean precision drop {np.mean(drops):.3f} < 0.15")
            if np.mean(defended) < np.mean(clean) - 0.05:
                failures.append(f"{algo}: MTD precision {np.mean(defended):.3f} "
                                f"not within 0.05 of clean {np.mean(clean):.3f}")
        return failures

    def rows(self, state, outcome):
        """(rows generated, rows routed through MTD pools) by one operation."""
        cfg = state["cfg"]
        apps = cfg.n_benign + cfg.n_malware + 2 * cfg.probe_per_class
        generated = len(cfg.seeds) * apps * cfg.iterations
        routed = sum(sum(r[algo]["mtd_selection_histogram"])
                     for r in outcome.raw["results"]["per_seed"].values()
                     for algo in experiments.ALGOS)
        return generated, routed


class PoolSweep(_Recipe):
    """The `pool_sweep` recipe: feature lab, then uniform pools of 2 to 5."""

    recipe = "pool_sweep"
    n_seeds = 2
    expected_fits = {"models.network_fit": (29, 11), "models.tree_fit": (29, 11)}

    def check(self, state, outcome):
        """Accuracies lie in [0, 1] and the counter groups are disjoint."""
        res = outcome.raw["results"]
        failures = []
        seen = set()
        for group in res["groups"]:
            if seen.intersection(group):
                failures.append(f"groups overlap on {sorted(seen.intersection(group))}")
            seen.update(group)
        for algo in experiments.ALGOS:
            sizes = [e["size"] for e in res[algo]]
            if sizes != list(state["cfg"].sizes):
                failures.append(f"{algo}: sizes {sizes}")
            for e in res[algo]:
                for acc in [e["mean_accuracy"]] + e["per_seed"]:
                    if not 0.0 <= acc <= 1.0:
                        failures.append(f"{algo} size {e['size']}: accuracy {acc}")
        return failures

    def rows(self, state, outcome):
        cfg = state["cfg"]
        generated = (cfg.n_benign + cfg.n_malware + 2 * cfg.probe_per_class) * cfg.iterations
        attacked = cfg.n_test_per_class * cfg.iterations
        pools = sum(len(e["per_seed"]) for algo in experiments.ALGOS
                    for e in outcome.raw["results"][algo])
        return generated, attacked * pools


# ---------------------------------------------------------------------------
# Deployed-detector workload


class DetectStream:
    """Ingest a perf CSV, classify it in one batch, then serve one closed-loop
    client that sends one app per `classify_stream` call.

    The benchmark seed draws the traffic. The pool is the deployed detector,
    trained once from `POOL_SEED`: per-app latency follows the pool's tree
    sizes, which vary by about 1.5x between training seeds.
    """

    POOL_SEED = 7
    expected_fits = {"models.network_fit": (2, 2), "models.tree_fit": (3, 3)}
    ALGOS = ("decision_tree", "neural_network") * 2 + ("decision_tree",)

    def setup(self, seed, smoke, workdir):
        n_apps, iterations = (100, 10) if smoke else (2000, 50)
        stream = traces.generate_synthetic_dataset(
            traces.default_profile(iterations=iterations), n_apps, n_apps, seed)
        path = os.path.join(workdir, f"stream-{seed}-{os.getpid()}.csv")
        traces.write_perf_csv(stream, path)

        cfg = ExperimentConfig(**(SMOKE if smoke else {}))
        full = traces.generate_synthetic_dataset(
            traces.default_profile(iterations=cfg.iterations),
            cfg.n_benign, cfg.n_malware, self.POOL_SEED)
        train, _ = traces.split_train_test(
            full, cfg.n_test_per_class, self.POOL_SEED + 1)
        grouping = features.propose_hpc_groups(
            features.univariate_select_k_best(train, k=cfg.n_groups),
            features.feature_importance_scores(
                train, n_trees=cfg.importance_trees, seed=0),
            features.correlation_matrix(train),
            n_groups=cfg.n_groups,
            r_max=cfg.group_r_max,
            corr_threshold=cfg.corr_threshold,
        )
        pool = mtd.design_pool(
            train, grouping, list(self.ALGOS[:len(grouping.groups)]),
            policy="uniform", seed=self.POOL_SEED,
            tree_params=cfg.tree_params, network_params=cfg.network_params)
        return {"path": path, "stream": stream, "pool": pool}

    def teardown(self, state):
        if os.path.exists(state["path"]):
            os.remove(state["path"])

    def timed(self, state):
        pool = state["pool"]
        t0 = time.perf_counter()
        parsed = traces.parse_perf_csv(state["path"])
        t1 = time.perf_counter()
        batch = mtd.classify_stream(pool, parsed)
        t2 = time.perf_counter()
        apps = [traces.Dataset((t,), provenance="ingested") for t in parsed.traces]
        per_app, latencies = [], []
        for app in apps:
            s = time.perf_counter()
            per_app.append(mtd.classify_stream(pool, app))
            latencies.append(time.perf_counter() - s)
        return Outcome(
            {"parsed": parsed, "batch": batch, "per_app": per_app},
            requests=2 + len(apps),
            steps={"ingest": t1 - t0, "detect": t2 - t1},
            latencies_s=latencies,
        )

    def check(self, state, outcome):
        """The parse round-trips, every routed row carries the chosen
        member's own label, and every selection histogram sums to its rows."""
        stream, pool = state["stream"], state["pool"]
        parsed, batch = outcome.raw["parsed"], outcome.raw["batch"]
        failures = []
        if parsed.traces != stream.traces:
            failures.append("parsed dataset differs from the generated one")
        if "expected" not in state:  # every member's own labels, once per run
            counters = stream.traces[0].counters
            X, y = stream.stack(counters)
            state["expected"] = y, np.vstack(
                [m.predict_labels(X, counters) for m in pool.classifiers])
        y, member = state["expected"]

        def routed_ok(report, start):
            cols = start + np.arange(len(report.chosen))
            return (np.array_equal(report.predicted, member[report.chosen, cols])
                    and np.array_equal(report.truth, y[cols])
                    and sum(report.selection_histogram) == len(cols))

        if not routed_ok(batch, 0):
            failures.append("batch pass: routed labels or histogram wrong")
        start = 0
        for t, report in zip(stream.traces, outcome.raw["per_app"]):
            if not routed_ok(report, start):
                failures.append(f"app {t.app_id}: routed labels or histogram wrong")
            start += t.iterations
        if len(outcome.raw["per_app"]) != len(stream.traces):
            failures.append("closed loop did not serve every app")
        return failures

    def results(self, state, outcome):
        def summary(report):
            return [report.pass_count, report.fail_count,
                    list(report.selection_histogram)]

        return {
            "batch": summary(outcome.raw["batch"]),
            "per_app": [summary(r) for r in outcome.raw["per_app"]],
        }

    def rows(self, state, outcome):
        n = len(outcome.raw["batch"].chosen)
        return n, n


WORKLOADS = {
    "attack_mtd": AttackMtd(),
    "pool_sweep": PoolSweep(),
    "detect_stream": DetectStream(),
}
