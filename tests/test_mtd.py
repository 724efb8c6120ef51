import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hmdlab
from conftest import make_trace, stump
from hmdlab.errors import (
    ConfigurationError,
    EmptyEvaluationError,
    FeatureMismatchError,
)
from hmdlab.models import TrainedClassifier
from hmdlab.mtd import (
    LFSR_PERIOD,
    ClassifierSelector,
    Lfsr,
    MtdPool,
    _orbit,
    classify_stream,
    design_pool,
    evaluate_pool_sweep,
    lfsr_from_seed,
    select_stream,
)
from hmdlab.traces import (
    HPC_CATALOG,
    Dataset,
    default_profile,
    generate_synthetic_dataset,
)

# First ten outputs from seed 0x0001, frozen as golden regression values.
GOLDEN_OUTPUTS = [2, 4, 8, 17, 34, 68, 136, 273, 546, 1092]


# ---------------------------------------------------------------------------
# LFSR


def test_lfsr_full_period_and_never_zero():
    lfsr = Lfsr(1)
    steps = 0
    while True:
        lfsr, out = lfsr.next()
        steps += 1
        assert out != 0
        if lfsr.state == 1:
            break
        assert steps <= LFSR_PERIOD
    assert steps == LFSR_PERIOD == 2**16 - 1


def test_lfsr_golden_sequence():
    lfsr = Lfsr(1)
    outs = []
    for _ in range(10):
        lfsr, out = lfsr.next()
        outs.append(out)
    assert outs == GOLDEN_OUTPUTS


def test_lfsr_seed_mapping():
    assert lfsr_from_seed(0).state == 1
    assert lfsr_from_seed(5).state == 5
    assert lfsr_from_seed(0x10000).state == 1  # wraps to 16 bits, 0 -> 1
    with pytest.raises(ConfigurationError):
        Lfsr(0)
    with pytest.raises(ConfigurationError):
        Lfsr(1 << 16)


def test_orbit_is_the_lfsr_state_sequence():
    orbit, position = _orbit()
    lfsr, states = Lfsr(1), [1]
    for _ in range(LFSR_PERIOD - 1):
        lfsr, out = lfsr.next()
        states.append(out)
    assert orbit.tolist() == states
    assert np.array_equal(position[orbit], np.arange(LFSR_PERIOD))


def test_import_does_not_build_the_orbit():
    code = "import hmdlab.mtd as m; print(m._orbit.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(hmdlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# Hand-built pool members for selection tests


def _stream_dataset(n_apps=10, iterations=100):
    """Benign apps low on both counters, malware high; perfectly separable
    at 100 on either counter."""
    rng = np.random.default_rng(0)
    counters = ("branch-misses", "instructions")
    traces = []
    for i in range(n_apps):
        label = "malware" if i % 2 else "benign"
        lo, hi = (150, 300) if label == "malware" else (0, 50)
        vals = rng.integers(lo, hi, size=(iterations, 2))
        traces.append(make_trace(f"{label}{i}", label, counters, vals))
    return Dataset(tuple(traces))


def _pool(members, policy="uniform", seed=1, best_index=0):
    return MtdPool(
        classifiers=tuple(members),
        policy=policy,
        seed=seed,
        best_index=best_index,
    )


# ---------------------------------------------------------------------------
# Selection


def test_uniform_selection_frequencies():
    pool = _pool([stump("branch-misses", 100), stump("instructions", 100)])
    sel = ClassifierSelector(pool)
    picks = np.array([sel.select(t) for t in range(100_000)])
    freq = np.bincount(picks, minlength=2) / len(picks)
    assert 0.49 <= freq[0] <= 0.51
    assert 0.49 <= freq[1] <= 0.51


def test_priority_takes_best_on_even_ticks():
    members = [
        stump(c, 100)
        for c in ("branch-misses", "instructions", "cpu-cycles", "bus-cycles", "cache-misses")
    ]
    pool = _pool(members, policy="priority", best_index=2)
    sel = ClassifierSelector(pool)
    picks = [sel.select(t) for t in range(200)]
    assert all(p == 2 for p in picks[0::2])
    assert all(p != 2 for p in picks[1::2])


def test_priority_two_member_alternation():
    pool = _pool(
        [stump("branch-misses", 100), stump("instructions", 100)],
        policy="priority",
        best_index=0,
    )
    sel = ClassifierSelector(pool)
    picks = [sel.select(t) for t in range(1000)]
    assert picks[0::2] == [0] * 500
    assert picks[1::2] == [1] * 500  # only one non-best choice
    assert picks.count(0) / len(picks) == 0.5


def test_selection_deterministic_per_seed():
    members = [stump("branch-misses", 100), stump("instructions", 100)]
    a = ClassifierSelector(_pool(members, seed=42))
    b = ClassifierSelector(_pool(members, seed=42))
    assert [a.select(t) for t in range(500)] == [b.select(t) for t in range(500)]


@pytest.mark.parametrize("n", [2, 3, 5, 20])
@pytest.mark.parametrize("policy", ["uniform", "priority"])
def test_select_stream_matches_the_per_tick_selector(n, policy):
    counts = (0, 1, 2, 3, 50, 70_001)  # 70,001 picks read past one period
    for best_index in (0, n - 1):
        for seed in (0, 1, 2, 7, 65535, 65536):
            pool = SimpleNamespace(classifiers=tuple(range(n)), policy=policy,
                                   best_index=best_index, seed=seed)
            sel = ClassifierSelector(pool)
            ticks = np.array([sel.select(t) for t in range(max(counts))])
            for count in counts:
                picks = select_stream(pool, count)
                assert picks.dtype == np.int64
                assert np.array_equal(picks, ticks[:count])


@pytest.mark.parametrize("policy", ["uniform", "priority"])
def test_selector_is_tick_indexed(policy):
    pool = SimpleNamespace(classifiers=tuple(range(5)), policy=policy,
                           best_index=3, seed=11)
    picks = select_stream(pool, 5000).tolist()
    out_of_order = [4999, 7, 3, 3, 2048, 0, 1, 1024, 1023, 4000]
    sel = ClassifierSelector(pool)
    assert [sel.select(t) for t in out_of_order] == [picks[t] for t in out_of_order]
    sel = ClassifierSelector(pool)
    assert [sel.select(t) for t in range(0, 5000, 3)] == picks[::3]
    with pytest.raises(ConfigurationError):
        sel.select(-1)


def _stepped_picks(pool, count):
    """Picks of ticks 0 .. count - 1 by stepping an Lfsr one output at a
    time through the rejection rule: the reference the orbit must match."""
    n, best = len(pool.classifiers), pool.best_index
    lfsr = lfsr_from_seed(pool.seed)
    picks = []
    for tick in range(count):
        if pool.policy == "priority" and tick % 2 == 0:
            picks.append(best)
            continue
        choices = n if pool.policy == "uniform" else n - 1
        while True:
            lfsr, out = lfsr.next()
            if out - 1 < choices * (LFSR_PERIOD // choices):
                idx = (out - 1) % choices
                picks.append(idx + (pool.policy == "priority" and idx >= best))
                break
    return picks


@pytest.mark.parametrize("n, policy, best_index, seed, count", [
    *[(n, p, b, s, 300) for n in (2, 3, 5, 20) for p in ("uniform", "priority")
      for b in (0, n - 1) for s in (0, 7, 65535)],
    (3, "uniform", 0, 65535, 70_001),
    (20, "priority", 19, 2, 140_003),
])
def test_select_stream_matches_stepping_the_lfsr(n, policy, best_index, seed, count):
    pool = SimpleNamespace(classifiers=tuple(range(n)), policy=policy,
                           best_index=best_index, seed=seed)
    assert select_stream(pool, count).tolist() == _stepped_picks(pool, count)


# ---------------------------------------------------------------------------
# Pool construction


def test_pool_rejects_overlapping_views_and_small_pools():
    a = stump("branch-misses", 100)
    b = stump("branch-misses", 200)
    with pytest.raises(ConfigurationError):
        _pool([a, b])
    with pytest.raises(ConfigurationError):
        _pool([a])
    with pytest.raises(ConfigurationError):
        _pool([a, stump("instructions", 100)], policy="chaotic")
    with pytest.raises(ConfigurationError):
        _pool([a, stump("instructions", 100)], best_index=2)


def test_design_pool_trains_disjoint_members(small_dataset):
    groups = [
        ("branch-instructions", "branch-misses", "bus-cycles", "cache-misses"),
        ("cache-references", "cpu-cycles", "instructions"),
    ]
    pool = design_pool(
        small_dataset,
        groups,
        ["decision_tree", "neural_network"],
        policy="priority",
        seed=3,
        network_params={"epochs": 50},
    )
    assert pool.classifiers[0].algo == "decision_tree"
    assert pool.classifiers[1].algo == "neural_network"
    assert pool.classifiers[0].view.counters == groups[0]
    assert pool.classifiers[1].view.counters == groups[1]
    assert pool.best_index in (0, 1)
    with pytest.raises(ConfigurationError, match="2 groups but 1 algorithms"):
        design_pool(small_dataset, groups, ["decision_tree"])
    with pytest.raises(ConfigurationError):
        design_pool(small_dataset, groups[:1], ["decision_tree"])


def test_design_pool_priority_best_is_first_most_accurate_member():
    groups = [("branch-misses",), ("instructions",)]
    both = _stream_dataset(iterations=20)  # perfectly separable on each counter
    # A constant branch-misses column leaves member 0 no split to learn.
    only_second = Dataset(tuple(
        make_trace(t.app_id, t.label, t.counters,
                   np.column_stack([np.full(t.iterations, 7), t.values[:, 1]]))
        for t in both.traces
    ))
    for train, perfect, best in ((both, [True, True], 0),
                                 (only_second, [False, True], 1)):
        pool = design_pool(train, groups, ["decision_tree"] * 2, policy="priority")
        X, y = train.stack(train.counters)
        accs = [(m.predict_labels(X, train.counters) == y).mean()
                for m in pool.classifiers]
        assert [a == 1.0 for a in accs] == perfect
        assert pool.best_index == best


# ---------------------------------------------------------------------------
# Stream classification


def test_identical_perfect_members_give_perfect_accuracy():
    pool = _pool(
        [stump("branch-misses", 100), stump("instructions", 100)]
    )
    report = classify_stream(pool, _stream_dataset())
    assert report.accuracy == 1.0
    assert report.fail_count == 0
    assert sum(report.selection_histogram) == 1000
    assert report.metrics.precision == 1.0


def test_perfect_plus_inverted_member_halves_accuracy():
    good = stump("branch-misses", 100)
    bad = stump("instructions", 100, invert=True)  # always wrong here
    pool = _pool([good, bad], seed=9)
    report = classify_stream(pool, _stream_dataset(n_apps=20, iterations=500))
    assert abs(report.accuracy - 0.5) <= 0.02


def test_classify_stream_empty_dataset():
    pool = _pool([stump("branch-misses", 100), stump("instructions", 100)])
    with pytest.raises(EmptyEvaluationError):
        classify_stream(pool, Dataset(()))


@pytest.fixture(scope="module")
def mixed_members(small_dataset):
    """Tree and network members on disjoint groups, and a fresh test set."""
    groups = [
        ("branch-instructions", "branch-misses", "bus-cycles"),
        ("cache-misses", "cache-references"),
        ("cpu-cycles", "instructions", "LLC-loads"),
        ("LLC-stores", "dTLB-loads"),
    ]
    algos = ["decision_tree", "neural_network"] * 2
    members = design_pool(small_dataset, groups, algos, seed=2,
                          network_params={"epochs": 40}).classifiers
    test = generate_synthetic_dataset(default_profile(iterations=10), 25, 25, 14)
    return members, test


@pytest.mark.parametrize("policy, best_index", [("uniform", 0), ("priority", 1)])
def test_each_row_gets_its_chosen_members_full_batch_label(
    mixed_members, policy, best_index
):
    members, test = mixed_members
    pool = _pool(members, policy=policy, seed=5, best_index=best_index)
    report = classify_stream(pool, test)
    X, y = test.stack(test.counters)
    full = np.vstack([m.predict_labels(X, test.counters) for m in members])
    assert report.chosen.tolist() == select_stream(pool, len(y)).tolist()
    assert all(n > 0 for n in report.selection_histogram)
    assert report.predicted.dtype == np.int64
    assert report.predicted.tolist() == full[report.chosen, np.arange(len(y))].tolist()
    assert report.truth.tolist() == y.tolist()


@pytest.mark.parametrize("policy, best_index", [("uniform", 0), ("priority", 3)])
def test_one_app_in_any_column_order_gets_its_chosen_members_labels(
    small_dataset, policy, best_index
):
    # Five mixed members whose views interleave the catalog, so the pool's
    # counters follow neither the catalog nor a shuffled stream's columns.
    groups = [HPC_CATALOG[i::5] for i in range(5)]
    algos = ["decision_tree", "neural_network"] * 2 + ["decision_tree"]
    members = design_pool(small_dataset, groups, algos, seed=4,
                          network_params={"epochs": 40}).classifiers
    pool = _pool(members, policy=policy, seed=6, best_index=best_index)
    test = generate_synthetic_dataset(default_profile(iterations=30), 4, 4, 15)
    X, _ = test.stack(test.counters)
    full = np.vstack([m.predict_labels(X, test.counters) for m in members])
    order = np.random.default_rng(0).permutation(len(HPC_CATALOG))
    start = 0
    for t in test.traces:
        shuffled = make_trace(t.app_id, t.label, np.array(t.counters)[order],
                              t.values[:, order])
        report = classify_stream(pool, Dataset((shuffled,)))
        rows = start + np.arange(t.iterations)
        assert report.chosen.tolist() == select_stream(pool, t.iterations).tolist()
        assert report.predicted.tolist() == full[report.chosen, rows].tolist()
        assert report.pass_count == int((report.predicted == report.truth).sum())
        start += t.iterations
    assert all(n > 0 for n in report.selection_histogram)


@pytest.fixture
def predict_sizes(monkeypatch):
    """The row count of every member prediction made while the test runs."""
    predict, sizes = TrainedClassifier.predict_labels, []

    def counted(self, matrix, counters):
        sizes.append(len(matrix))
        return predict(self, matrix, counters)

    monkeypatch.setattr(TrainedClassifier, "predict_labels", counted)
    return sizes


def test_one_row_stream_leaves_most_of_a_five_member_pool_idle(predict_sizes):
    members = [stump(c, 100, invert=i % 2) for i, c in enumerate(HPC_CATALOG[:5])]
    pool = _pool(members, seed=3)
    # every member calls this row malware
    app = make_trace("a", "malware", HPC_CATALOG[:5], [[150, 50, 150, 50, 150]])
    report = classify_stream(pool, Dataset((app,)))
    (pick,) = report.chosen.tolist()
    assert report.selection_histogram == tuple(int(i == pick) for i in range(5))
    assert predict_sizes == list(report.selection_histogram)  # idle members too
    assert report.predicted.tolist() == [1]
    assert report.pass_count == 1 and report.fail_count == 0


def test_stream_lacking_a_member_counter_raises_feature_mismatch():
    pool = _pool([stump("branch-misses", 100), stump("cache-misses", 100)])
    with pytest.raises(FeatureMismatchError, match="lacks counter 'cache-misses'"):
        classify_stream(pool, _stream_dataset())


def test_members_see_only_their_own_rows(mixed_members, predict_sizes):
    members, test = mixed_members
    report = classify_stream(_pool(members, seed=8), test)
    assert predict_sizes == list(report.selection_histogram)
    assert sum(predict_sizes) == len(report.truth) == 500


# ---------------------------------------------------------------------------
# Sweeps and the selection-schedule identities


@pytest.fixture(scope="module")
def trained_sweep():
    data = generate_synthetic_dataset(default_profile(iterations=20), 80, 80, 21)
    from hmdlab.traces import split_train_test

    train, test = split_train_test(data, 50, seed=22)
    groups = [
        ("branch-instructions", "branch-misses", "bus-cycles", "cache-misses"),
        ("cache-references", "cpu-cycles", "instructions"),
        ("LLC-load-misses", "LLC-loads"),
        ("LLC-store-misses", "LLC-stores"),
        ("dTLB-loads", "dTLB-stores"),
    ]
    return train, test, groups


def _standalone_accuracies(pool, test):
    counters = test.traces[0].counters
    X, y = test.stack(counters)
    return [float((m.predict_labels(X, counters) == y).mean()) for m in pool.classifiers]


def test_sweep_matches_classify_stream_at_every_size(trained_sweep):
    # Reference: every (size, seed) cell trains its own pool from scratch.
    # In this order the priority member (best training accuracy) of the
    # size-2, 3 and 4 pools is member 0, 2 and 3 at seed 5.
    train, test, groups = trained_sweep
    groups = [groups[0], groups[2], groups[3], groups[1]]
    for policy in ("uniform", "priority"):
        table = evaluate_pool_sweep(
            train, test, groups, "decision_tree", policy, sizes=[2, 3, 4],
            seeds=[5, 6],
        )
        assert [row["size"] for row in table] == [2, 3, 4]
        for row in table:
            size = row["size"]
            expected = [
                classify_stream(
                    design_pool(
                        train, groups[:size], ["decision_tree"] * size, policy, seed
                    ),
                    test,
                ).accuracy
                for seed in (5, 6)
            ]
            assert row["per_seed"] == expected
            assert row["mean_accuracy"] == float(np.mean(expected))


def test_uniform_accuracy_matches_member_mean(trained_sweep):
    train, test, groups = trained_sweep
    pool = design_pool(train, groups[:3], ["decision_tree"] * 3, seed=7)
    report = classify_stream(pool, test)  # 100 apps x 20 iters = 2000 rows
    expected = np.mean(_standalone_accuracies(pool, test))
    assert abs(report.accuracy - expected) <= 0.02


def test_priority_accuracy_matches_schedule_identity(trained_sweep):
    train, test, groups = trained_sweep
    pool = design_pool(
        train, groups[:3], ["decision_tree"] * 3, policy="priority", seed=7
    )
    report = classify_stream(pool, test)
    accs = _standalone_accuracies(pool, test)
    best = accs[pool.best_index]
    others = [a for i, a in enumerate(accs) if i != pool.best_index]
    expected = 0.5 * best + 0.5 * np.mean(others)
    assert abs(report.accuracy - expected) <= 0.02


def test_sweep_validates_sizes(trained_sweep):
    train, test, groups = trained_sweep
    with pytest.raises(ConfigurationError):
        evaluate_pool_sweep(
            train, test, groups, "decision_tree", "uniform", sizes=[6], seeds=[1]
        )
    with pytest.raises(ConfigurationError):
        evaluate_pool_sweep(
            train, test, groups, "decision_tree", "uniform", sizes=[1], seeds=[1]
        )


@pytest.mark.parametrize("sizes, message", [
    ([2, 6], "5 groups but 6 algorithms"),  # more members than groups
    ([5, -1], "pool sizes must be >= 2"),  # members[:-1] would be a 4-member pool
])
def test_sweep_rejects_bad_sizes_before_any_fit(trained_sweep, monkeypatch, sizes,
                                                message):
    train, test, groups = trained_sweep

    def no_fit(*args):
        raise AssertionError("a member was trained")

    monkeypatch.setattr(hmdlab.mtd, "train_classifier", no_fit)
    with pytest.raises(ConfigurationError, match=message):
        evaluate_pool_sweep(
            train, test, groups, "decision_tree", "uniform", sizes=sizes, seeds=[1]
        )
