import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from hmdlab.attack import (
    DEFAULT_COUPLING,
    AttackBudget,
    Perturbation,
    craft_perturbation,
    inject,
    reverse_engineer,
    strengthen,
)
from hmdlab.errors import (
    ConfigurationError,
    CounterRangeError,
    DataError,
    FeatureMismatchError,
    OracleError,
    ShapeError,
    UnsupportedModelError,
)
from hmdlab.models import (
    FeatureView,
    Network,
    TrainedClassifier,
    train_classifier,
)
from hmdlab.traces import (
    INT64_MAX,
    Dataset,
    default_profile,
    generate_synthetic_dataset,
)

ATTACK_HPCS = (
    "branch-instructions",
    "branch-misses",
    "instructions",
    "LLC-load-misses",
)


def _surrogate(weights, sdevs=None, counters=ATTACK_HPCS):
    n = len(counters)
    view = FeatureView(
        counters=counters,
        means=np.zeros(n),
        sdevs=np.ones(n) if sdevs is None else np.asarray(sdevs, dtype=float),
    )
    net = Network(
        weights=[np.asarray(weights, dtype=np.float64).reshape(1, -1)],
        biases=[np.zeros(1)],
    )
    return TrainedClassifier(algo="neural_network", view=view, model=net)


def _malware_trace(values):
    return make_trace("m0", "malware", ATTACK_HPCS, values)


# ---------------------------------------------------------------------------
# AttackBudget / Perturbation


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        AttackBudget(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        AttackBudget(epsilon=1.5)
    # the controllable counters and their coupling are fixed, not settable
    with pytest.raises(TypeError):
        AttackBudget(coupling={"branch-misses": {"instructions": -1.0}})
    assert AttackBudget().coupling == DEFAULT_COUPLING
    assert AttackBudget().controllable == ("branch-misses", "LLC-load-misses")


@pytest.mark.parametrize("epsilon", ["0.5", True, float("nan"), float("inf"), None])
def test_budget_rejects_an_epsilon_that_is_not_a_real_in_range(epsilon):
    with pytest.raises(ConfigurationError, match="epsilon must be in"):
        AttackBudget(epsilon=epsilon)


def test_budget_takes_any_real_epsilon_in_range():
    for epsilon in (1, 0.5, np.float64(0.25), 1e-9):
        assert AttackBudget(epsilon=epsilon).epsilon == epsilon


@pytest.mark.parametrize(
    "max_inject",
    [
        {"branch-mises": 5},  # misspelt
        {"cpu-cycles": 5},  # a counter no perturbation writes
        {"branch-misses": -1},
        {"branch-misses": float("inf")},
        {"branch-misses": float("nan")},
        {"branch-misses": True},
        {"branch-misses": "5"},
    ],
)
def test_budget_rejects_bad_max_inject(max_inject):
    with pytest.raises(ConfigurationError):
        AttackBudget(max_inject=max_inject)


def test_budget_caps_every_counter_a_perturbation_writes():
    caps = {c: 0 for c in ("branch-misses", "LLC-load-misses")}
    caps.update({"instructions": 2.5, "branch-instructions": np.int64(3)})
    assert AttackBudget(max_inject=caps).max_inject == caps


def test_perturbation_rejects_negative_and_misshapen():
    with pytest.raises(DataError):
        Perturbation(n_rows=2, deltas={"branch-misses": np.array([1, -1])})
    with pytest.raises(ShapeError):
        Perturbation(n_rows=2, deltas={"branch-misses": np.array([1, 2, 3])})


def test_perturbation_addition_and_json():
    p = Perturbation(n_rows=2, deltas={"branch-misses": np.array([1, 2])})
    q = Perturbation(
        n_rows=2,
        deltas={"branch-misses": np.array([3, 0]), "instructions": np.array([6, 0])},
    )
    s = p + q
    np.testing.assert_array_equal(s.deltas["branch-misses"], [4, 2])
    np.testing.assert_array_equal(s.deltas["instructions"], [6, 0])
    assert s.nonzero_counters() == {"branch-misses", "instructions"}
    with pytest.raises(ShapeError):
        p + Perturbation(n_rows=3, deltas={})


def test_perturbation_sums_past_the_counter_range_raise():
    p = Perturbation(n_rows=2, deltas={"instructions": np.array([INT64_MAX - 5, 0])})
    with pytest.raises(CounterRangeError, match="'instructions' would overflow"):
        p + p
    with pytest.raises(CounterRangeError, match="'instructions' would overflow"):
        strengthen(p, 10_000_000)


# ---------------------------------------------------------------------------
# Reverse engineering


def test_reverse_engineer_self_distillation():
    prof = default_profile(iterations=10)
    train = generate_synthetic_dataset(prof, 100, 100, 5)
    victim = train_classifier("neural_network", train, ATTACK_HPCS, 5)
    probe = generate_synthetic_dataset(prof, 100, 100, 99)  # 200 probe apps
    rep = reverse_engineer(victim.predict_labels, probe, seed=3, counters=ATTACK_HPCS)
    assert rep.agreement >= 0.9
    assert rep.surrogate.algo == "neural_network"


def test_reverse_engineer_boundaries():
    probe = generate_synthetic_dataset(default_profile(iterations=2), 1, 1, 0)
    one_app = Dataset(probe.traces[:1])
    oracle = lambda X, counters: np.zeros(len(X), dtype=np.int64)
    with pytest.raises(ConfigurationError):
        reverse_engineer(oracle, one_app, seed=0, counters=ATTACK_HPCS)


@pytest.mark.parametrize("n_apps", [2, 3, 4, 5, 10])
def test_reverse_engineer_holds_out_at_least_one_app(n_apps):
    probe = generate_synthetic_dataset(default_profile(iterations=3), n_apps - 1, 1, 0)
    rows = []

    def oracle(X, counters):
        rows.append(len(X))
        return np.arange(len(X)) % 2

    reverse_engineer(oracle, probe, seed=0, counters=ATTACK_HPCS,
                     network_params={"epochs": 2})
    n_fit = round(0.7 * n_apps)
    assert rows == [3 * n_fit, 3 * (n_apps - n_fit)]
    assert 1 <= n_fit < n_apps


def test_reverse_engineer_wraps_oracle_failure():
    probe = generate_synthetic_dataset(default_profile(iterations=2), 2, 2, 0)

    def broken(X, counters):
        raise RuntimeError("victim offline")

    with pytest.raises(OracleError):
        reverse_engineer(broken, probe, seed=0, counters=ATTACK_HPCS)


# ---------------------------------------------------------------------------
# Crafting


def test_craft_zero_gradient_gives_empty_perturbation():
    sur = _surrogate([0.0, 0.0, 0.0, 0.0])
    trace = _malware_trace([[10, 10, 10, 10], [20, 20, 20, 20]])
    p = craft_perturbation(sur, trace, AttackBudget())
    assert p.n_rows == 2
    assert p.nonzero_counters() == set()


def test_craft_rejects_trace_lacking_a_view_counter():
    sur = _surrogate([0.0, -1.0, 0.0, 0.0])
    trace = make_trace("m0", "malware", ATTACK_HPCS[:3], [[10, 10, 10]])
    with pytest.raises(FeatureMismatchError):
        craft_perturbation(sur, trace, AttackBudget())


def test_craft_skips_a_controllable_counter_the_surrogate_does_not_view():
    # LLC-load-misses is controllable but not in this view, so only the
    # branch-misses step and its coupling are written
    counters = ("branch-instructions", "branch-misses", "instructions")
    sur = _surrogate([0.0, -1.0, 0.0], counters=counters)
    trace = _malware_trace([[10, 10, 10, 10]])
    p = craft_perturbation(sur, trace, AttackBudget())
    assert set(p.deltas) == {"branch-misses", "instructions", "branch-instructions"}
    assert p.deltas["branch-misses"].tolist() == [1]


def test_craft_coupling_arithmetic_exact():
    # negative weight on branch-misses -> positive loss gradient there;
    # positive weight on LLC-load-misses -> that one is skipped.
    sur = _surrogate([0.0, -1.0, 0.0, 1.0], sdevs=[1.0, 7.0, 1.0, 3.0])
    trace = _malware_trace([[10, 10, 10, 10], [20, 20, 20, 20]])
    p = craft_perturbation(sur, trace, AttackBudget(epsilon=1.0))
    d = 7  # ceil(epsilon * sdev(branch-misses))
    np.testing.assert_array_equal(p.deltas["branch-misses"], [d, d])
    np.testing.assert_array_equal(p.deltas["instructions"], [6 * d, 6 * d])
    np.testing.assert_array_equal(p.deltas["branch-instructions"], [5 * d, 5 * d])
    assert "LLC-load-misses" not in p.nonzero_counters()


def test_craft_hand_derived_sign_pattern():
    # only LLC-load-misses has a negative weight -> only it gets a step,
    # plus its coupled instructions at coefficient 3.
    sur = _surrogate([0.0, 1.0, 0.0, -2.0], sdevs=[1.0, 2.0, 1.0, 4.0])
    trace = _malware_trace([[5, 5, 5, 5]])
    p = craft_perturbation(sur, trace, AttackBudget(epsilon=0.5))
    d = 2  # ceil(0.5 * 4)
    np.testing.assert_array_equal(p.deltas["LLC-load-misses"], [d])
    np.testing.assert_array_equal(p.deltas["instructions"], [3 * d])
    assert p.nonzero_counters() == {"LLC-load-misses", "instructions"}


def test_craft_max_inject_caps_deltas():
    sur = _surrogate([0.0, -1.0, 0.0, 0.0], sdevs=[1.0, 100.0, 1.0, 1.0])
    trace = _malware_trace([[10, 10, 10, 10]])
    budget = AttackBudget(epsilon=1.0, max_inject={"branch-misses": 5})
    p = craft_perturbation(sur, trace, budget)
    assert p.deltas["branch-misses"][0] == 5
    assert p.deltas["instructions"][0] == 600  # coupling precedes the cap


@pytest.mark.parametrize("sdevs", [
    [1.0, 2e18, 1.0, 1.0],  # 6 * ceil(sdev) instructions alone passes int64
    [1.0, 1e18, 1.0, 1.2e18],  # 6e18 + 3.6e18 instructions, each in range
])
def test_craft_rejects_deltas_beyond_the_counter_range(sdevs):
    sur = _surrogate([0.0, -1.0, 0.0, -1.0], sdevs=sdevs)
    with pytest.raises(CounterRangeError, match="'instructions' events"):
        craft_perturbation(sur, _malware_trace([[1, 1, 1, 1]]), AttackBudget())


def test_craft_coupled_sum_at_the_top_of_the_range():
    sur = _surrogate([0.0, -1.0, 0.0, -1.0], sdevs=[1.0, 1e18, 1.0, 1e18])
    trace = _malware_trace([[1, 1, 1, 1]])
    above_int64 = AttackBudget(max_inject={"instructions": 1e30})  # caps nothing
    for budget in (AttackBudget(), above_int64):
        p = craft_perturbation(sur, trace, budget)
        assert p.deltas["instructions"].tolist() == [9 * 10**18]  # 6e18 + 3e18


def test_craft_caps_coupled_deltas_that_alone_pass_the_range():
    # 6 * 2e18 instructions and 5 * 2e18 branch instructions pass int64
    sur = _surrogate([0.0, -1.0, 0.0, 0.0], sdevs=[1.0, 2e18, 1.0, 1.0])
    budget = AttackBudget(max_inject={"instructions": 5, "branch-instructions": 5})
    p = craft_perturbation(sur, _malware_trace([[1, 1, 1, 1]]), budget)
    assert p.deltas["branch-misses"].tolist() == [2 * 10**18]
    assert p.deltas["instructions"].tolist() == [5]
    assert p.deltas["branch-instructions"].tolist() == [5]


def test_craft_caps_a_coupled_sum_that_passes_the_range():
    # 6e18 + 6e18 instructions pass int64; the capped sum is 9e18
    sur = _surrogate([0.0, -1.0, 0.0, -1.0], sdevs=[1.0, 1e18, 1.0, 2e18])
    budget = AttackBudget(max_inject={"instructions": 9e18})
    p = craft_perturbation(sur, _malware_trace([[1, 1, 1, 1]]), budget)
    assert p.deltas["instructions"].tolist() == [9 * 10**18]
    assert p.deltas["branch-instructions"].tolist() == [5 * 10**18]


def test_craft_rejects_benign_and_tree_surrogates(small_dataset):
    sur = _surrogate([1.0, 1.0, 1.0, 1.0])
    benign = make_trace("b0", "benign", ATTACK_HPCS, [[1, 1, 1, 1]])
    with pytest.raises(ConfigurationError):
        craft_perturbation(sur, benign, AttackBudget())
    tree = train_classifier("decision_tree", small_dataset, ATTACK_HPCS, 0)
    malware = _malware_trace([[1, 1, 1, 1]])
    with pytest.raises(UnsupportedModelError):
        craft_perturbation(tree, malware, AttackBudget())


# ---------------------------------------------------------------------------
# Injection


def test_inject_zero_is_identity():
    t = _malware_trace([[10, 10, 10, 10]])
    out = inject(t, Perturbation(n_rows=1, deltas={}))
    assert out == t


def test_inject_locality():
    t = _malware_trace([[10, 10, 10, 10], [20, 20, 20, 20]])
    p = Perturbation(n_rows=2, deltas={"branch-misses": np.array([10, 0])})
    out = inject(t, p)
    assert out.values[0, 1] == 20
    assert out.values[1, 1] == 20
    # everything else untouched
    mask = np.ones_like(t.values, dtype=bool)
    mask[0, 1] = False
    np.testing.assert_array_equal(out.values[mask], t.values[mask])
    assert out.label == "malware" and out.app_id == t.app_id


def test_inject_additivity():
    t = _malware_trace([[10, 10, 10, 10], [20, 20, 20, 20]])
    p = Perturbation(n_rows=2, deltas={"branch-misses": np.array([1, 2])})
    q = Perturbation(n_rows=2, deltas={"instructions": np.array([5, 6])})
    assert inject(inject(t, p), q) == inject(t, p + q)


def test_inject_shape_and_overflow_errors():
    t = _malware_trace([[10, 10, 10, 10]])
    with pytest.raises(ShapeError):
        inject(t, Perturbation(n_rows=2, deltas={}))
    with pytest.raises(ShapeError):
        inject(t, Perturbation(n_rows=1, deltas={"page-faults": np.array([1])}))
    huge = np.iinfo(np.int64).max
    big = make_trace("m1", "malware", ("branch-misses",), [[huge - 1]])
    with pytest.raises(CounterRangeError):
        inject(big, Perturbation(n_rows=1, deltas={"branch-misses": np.array([2])}))


# ---------------------------------------------------------------------------
# Strengthening


def test_strengthen_zero_is_identity():
    p = Perturbation(n_rows=3, deltas={"branch-misses": np.array([1, 2, 3])})
    assert strengthen(p, 0) is p


def test_strengthen_arithmetic():
    p = Perturbation(n_rows=2, deltas={"branch-misses": np.array([1, 2])})
    s = strengthen(p, 10_000_000)
    np.testing.assert_array_equal(
        s.deltas["branch-misses"], [10_000_001, 10_000_002]
    )
    np.testing.assert_array_equal(
        s.deltas["instructions"], [60_000_000, 60_000_000]
    )
    np.testing.assert_array_equal(
        s.deltas["branch-instructions"], [50_000_000, 50_000_000]
    )
    with pytest.raises(ConfigurationError):
        strengthen(p, -1)
    # six instructions per branch-miss pass half the int64 range
    with pytest.raises(CounterRangeError, match="exceeds the counter range"):
        strengthen(p, 2**61)


def test_strengthen_commutes_with_inject():
    rng = np.random.default_rng(8)
    t = _malware_trace(rng.integers(0, 1000, size=(4, 4)))
    p = Perturbation(
        n_rows=4, deltas={"branch-misses": rng.integers(0, 50, size=4)}
    )
    extra = 12345
    a = inject(t, strengthen(p, extra))
    zero = Perturbation(n_rows=4, deltas={})
    b = inject(inject(t, p), strengthen(zero, extra))
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=3, max_size=3),
)
def test_perturbation_addition_commutes(a, b):
    p = Perturbation(n_rows=3, deltas={"branch-misses": np.array(a)})
    q = Perturbation(n_rows=3, deltas={"instructions": np.array(b)})
    left, right = p + q, q + p
    for c in left.deltas:
        np.testing.assert_array_equal(left.deltas[c], right.deltas[c])


def test_default_coupling_shape():
    assert DEFAULT_COUPLING["branch-misses"] == {
        "instructions": 6.0,
        "branch-instructions": 5.0,
    }
    assert DEFAULT_COUPLING["LLC-load-misses"] == {"instructions": 3.0}
