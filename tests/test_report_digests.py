"""Byte-identity gate: every recipe's report `results`, under both pool
policies, hash to fixed digests at small sizes.

A change meant to keep results byte-identical must pass this as it is. A
change that alters results on purpose updates the digests below and says
why in CHANGES.md.
"""

import hashlib
import json

import pytest

from hmdlab import experiments
from hmdlab.experiments import RECIPES, ExperimentConfig
from hmdlab.mtd import POLICIES, MtdPool, classify_stream, design_pool
from hmdlab.traces import (
    HPC_CATALOG,
    Dataset,
    default_profile,
    generate_synthetic_dataset,
)

# The perfbench smoke sizes (perfbench/workloads.py SMOKE), restated.
SIZES = dict(n_benign=40, n_malware=40, n_test_per_class=10, iterations=5,
             probe_per_class=20, epochs=30, importance_trees=3)
SEEDS = (3, 4)

DIGESTS = {
    ("uniform", "baseline"): "e1ec0fd99759c2c863f0d2c6d61304ba4b92fee287817c6fa622848e84abf9c8",
    ("uniform", "attack"): "e5bb7b00b2115f001643e1970a853d1c22141860716ae3ff2d404c396e0fe9b5",
    ("uniform", "mtd"): "641c945c2863791da24b26e3667666ff5f08fd5b52dfb6685189667d16a9b444",
    ("uniform", "pool_sweep"): "5e2493e6361864ffa806141f5505ecdb6c3c0bd7848bc724d1e83643f8ff1453",
    ("uniform", "mixed"): "0605d08af0e60245e45a2cacdc68256c03844fb197a75c33f956757613954137",
    ("uniform", "resilience"): "bfce4ca27bab1addbb54f12f13f90471174c156f2b646c86119ed2d0a957abf1",
    ("uniform", "combinatorics"): "f95f18e61e9c69ebb938bb3b5bb59007b1c324d757b4d703f541317c43d4fe35",
    ("priority", "baseline"): "e1ec0fd99759c2c863f0d2c6d61304ba4b92fee287817c6fa622848e84abf9c8",
    ("priority", "attack"): "e5bb7b00b2115f001643e1970a853d1c22141860716ae3ff2d404c396e0fe9b5",
    ("priority", "mtd"): "669da4f6613618d644db741b68128f8778f7d89050418bbcbda1077d6ca02285",
    ("priority", "pool_sweep"): "552cf3d69cd30c2522216e56f394715ca1a762b6ad81f36c1d5f1b2a0e440a1c",
    ("priority", "mixed"): "6bb1882728190c743423c6a0d62eb3da1cee95735e39928c3cf38d727dfcf6d7",
    ("priority", "resilience"): "94595ee69dabaa8376e03d7cc942b2bfbafa9d4483dc7fe5cb26c3ddeaabfb31",
    ("priority", "combinatorics"): "f95f18e61e9c69ebb938bb3b5bb59007b1c324d757b4d703f541317c43d4fe35",
}


def test_every_recipe_and_policy_has_a_digest():
    assert set(DIGESTS) == {(p, r) for p in POLICIES for r in RECIPES}


@pytest.mark.parametrize("policy, recipe", sorted(DIGESTS))
def test_report_results_are_byte_identical(policy, recipe):
    cfg = ExperimentConfig(recipe=recipe, seeds=SEEDS, policy=policy, **SIZES)
    results = experiments.run(cfg)["results"]
    blob = json.dumps(results, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[policy, recipe]


# The per-app path: one `classify_stream` call per trace, as a deployed
# detector answers one app at a time. The groups interleave the catalog, so
# the pool's counters are in neither catalog nor stream order.
PER_APP_GROUPS = [HPC_CATALOG[i::5] for i in range(5)]
PER_APP_ALGOS = ["decision_tree", "neural_network"] * 2 + ["decision_tree"]
PER_APP_DIGESTS = {
    "uniform": "d99096fa79486d827886bdfe130011dcc584a04c13601edc8c28b664fac71dac",
    "priority": "30e2d7ff26dfcf0cd5ba2845e3e1a9addc51fb5f77944123e43b884ae026aa30",
}


@pytest.fixture(scope="module")
def per_app_pool():
    train = generate_synthetic_dataset(default_profile(iterations=5), 40, 40, 3)
    stream = generate_synthetic_dataset(default_profile(iterations=12), 30, 30, 5)
    pool = design_pool(train, PER_APP_GROUPS, PER_APP_ALGOS, "priority", seed=3,
                       network_params={"epochs": 30})
    return pool, stream


@pytest.mark.parametrize("policy", sorted(PER_APP_DIGESTS))
def test_per_app_results_are_byte_identical(per_app_pool, policy):
    pool, stream = per_app_pool
    pool = MtdPool(pool.classifiers, policy, pool.seed, pool.best_index)
    summary = []
    for trace in stream.traces:
        r = classify_stream(pool, Dataset((trace,)))
        summary.append([r.pass_count, r.fail_count, list(r.selection_histogram)])
    blob = json.dumps(summary).encode()
    assert hashlib.sha256(blob).hexdigest() == PER_APP_DIGESTS[policy]
