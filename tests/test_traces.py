import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from hmdlab.errors import (
    ConfigurationError,
    DataError,
    FeatureMismatchError,
    ParseError,
    SplitSizeError,
)
from hmdlab.traces import (
    CATALOG_INDEX,
    HPC_CATALOG,
    Dataset,
    HpcTrace,
    catalog_order,
    default_profile,
    generate_synthetic_dataset,
    parse_perf_csv,
    split_train_test,
    write_perf_csv,
)


def test_catalog_shape():
    assert len(HPC_CATALOG) == 20
    assert len(set(HPC_CATALOG)) == 20
    assert all(CATALOG_INDEX[c] == i for i, c in enumerate(HPC_CATALOG))


def test_catalog_order_sorts_by_position():
    assert catalog_order(["instructions", "branch-misses"]) == (
        "branch-misses",
        "instructions",
    )


def test_trace_rejects_bad_inputs():
    with pytest.raises(DataError):
        make_trace("a", "weird", ("instructions",), [[1]])
    with pytest.raises(DataError):
        make_trace("a", "benign", ("instructions",), [[-1]])
    with pytest.raises(DataError):
        make_trace("a", "benign", ("not-a-counter",), [[1]])
    with pytest.raises(DataError):
        make_trace("a", "benign", ("instructions", "cpu-cycles"), [[1]])


def test_trace_values_are_frozen():
    t = make_trace("a", "benign", ("instructions",), [[1], [2]])
    with pytest.raises(ValueError):
        t.values[0, 0] = 5


def test_dataset_unique_ids_and_labels():
    t = make_trace("a", "benign", ("instructions",), [[1]])
    with pytest.raises(DataError):
        Dataset((t, t))
    d = Dataset((t,))
    assert not d.has_both_labels()
    assert d.by_label("malware") == []


def test_bad_counts_provenance_and_mixed_export_raise_hmdlab_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(default_profile(iterations=2), 0, 1, 0)
    for iterations in (0, -1):
        with pytest.raises(ConfigurationError):
            generate_synthetic_dataset(default_profile(iterations), 1, 1, 0)
    a = make_trace("a", "benign", ("instructions",), [[1]])
    b = make_trace("b", "malware", ("cpu-cycles",), [[1]])
    with pytest.raises(DataError):
        Dataset((a,), provenance="scraped")
    with pytest.raises(DataError):
        write_perf_csv(Dataset((a, b)), tmp_path / "mixed.csv")


def test_generate_counts_and_nonnegativity():
    d = generate_synthetic_dataset(default_profile(), 300, 300, 7)
    assert len(d) == 600
    assert len(d.by_label("benign")) == 300
    for t in d.traces:
        assert (t.values >= 0).all()
        assert t.iterations == 20
        assert t.counters == HPC_CATALOG


def test_generate_is_deterministic():
    a = generate_synthetic_dataset(default_profile(), 1, 1, 7)
    b = generate_synthetic_dataset(default_profile(), 1, 1, 7)
    assert list(a.traces) == list(b.traces)


def test_generate_correlated_counters():
    # the latent factor ties cpu-cycles and instructions together
    d = generate_synthetic_dataset(default_profile(), 50, 50, 13)
    X, _ = d.stack(("cpu-cycles", "instructions"))
    r = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
    assert r >= 0.7


def test_stack_shapes(small_dataset):
    X, y = small_dataset.stack(("instructions", "branch-misses"))
    assert X.shape == (160 * 10, 2)
    assert set(np.unique(y)) == {0, 1}
    assert y.sum() == 80 * 10


def test_dataset_owns_one_counter_list(small_dataset):
    assert small_dataset.counters == HPC_CATALOG
    assert Dataset(()).counters == ()


def test_dataset_rejects_traces_with_different_counter_lists():
    a = make_trace("a", "benign", ("instructions", "cpu-cycles"), [[1, 2]])
    b = make_trace("b", "malware", ("cpu-cycles", "instructions"), [[2, 1]])
    with pytest.raises(DataError):
        Dataset((a, b))


def _stack_per_trace(ds, counters):
    """Stacking as done trace by trace, each trace looking up its own
    columns: the reference `Dataset.stack` must reproduce."""
    xs, ys = [], []
    for t in ds.traces:
        idx = [t.counters.index(c) for c in counters]
        xs.append(t.values[:, idx].astype(np.float64))
        ys.append(np.full(t.iterations, 1 if t.label == "malware" else 0))
    if not xs:
        return np.empty((0, len(counters))), np.empty(0, dtype=np.int64)
    return np.vstack(xs), np.concatenate(ys)


@pytest.mark.parametrize("n_apps", [0, 1, 7])
@pytest.mark.parametrize(
    "counters",
    [
        HPC_CATALOG,
        ("branch-misses", "instructions", "LLC-load-misses"),
        tuple(reversed(HPC_CATALOG)),
        (),
    ],
)
def test_stack_matches_per_trace_stack(small_dataset, n_apps, counters):
    # the first and last apps are benign and malware
    traces = small_dataset.traces[: (n_apps + 1) // 2]
    traces += small_dataset.traces[len(small_dataset) - n_apps // 2 :]
    ds = Dataset(traces)
    X, y = ds.stack(counters)
    X_ref, y_ref = _stack_per_trace(ds, counters)
    for got, ref in ((X, X_ref), (y, y_ref)):
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        # memory order too: it sets the summation order of column statistics
        assert got.flags == ref.flags


def test_stack_missing_counter_raises_feature_mismatch():
    d = Dataset((make_trace("a", "benign", ("instructions",), [[1]]),))
    with pytest.raises(FeatureMismatchError, match="lacks counter 'cpu-cycles'"):
        d.stack(("instructions", "cpu-cycles"))


def test_split_counts(small_dataset):
    d = generate_synthetic_dataset(default_profile(iterations=2), 300, 300, 1)
    train, test = split_train_test(d, 50, seed=4)
    assert len(train) == 500
    assert len(test) == 100
    assert len(test.by_label("benign")) == 50
    ids = {t.app_id for t in train.traces} | {t.app_id for t in test.traces}
    assert len(ids) == 600


def test_split_deterministic(small_dataset):
    a = split_train_test(small_dataset, 10, seed=3)
    b = split_train_test(small_dataset, 10, seed=3)
    assert [t.app_id for t in a[0].traces] == [t.app_id for t in b[0].traces]
    assert [t.app_id for t in a[1].traces] == [t.app_id for t in b[1].traces]


def test_split_needs_training_remainder(small_dataset):
    with pytest.raises(SplitSizeError):
        split_train_test(small_dataset, 80, seed=0)


def test_csv_roundtrip(tmp_path, small_dataset):
    sub = Dataset(small_dataset.traces[:4] + small_dataset.traces[-4:])
    path = tmp_path / "traces.csv"
    write_perf_csv(sub, path)
    back = parse_perf_csv(path)
    assert back.provenance == "ingested"
    assert len(back) == len(sub)
    for a, b in zip(sub.traces, back.traces):
        assert a.app_id == b.app_id
        assert a.label == b.label
        assert np.array_equal(a.values, b.values)


def test_parse_two_apps(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(
        "app_id,label,iteration,instructions,branch-misses\n"
        "a,benign,0,10,1\n"
        "a,benign,1,11,2\n"
        "a,benign,2,12,3\n"
        "b,malware,0,99,9\n"
        "b,malware,1,98,8\n"
        "b,malware,2,97,7\n"
    )
    d = parse_perf_csv(path)
    assert len(d) == 2
    assert all(t.iterations == 3 for t in d.traces)
    assert d.traces[1].label == "malware"


def test_parse_negative_value_cites_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(
        "app_id,label,iteration,instructions\n" "a,benign,0,10\n" "a,benign,1,-5\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_perf_csv(path)
    assert exc.value.line == 3


def test_parse_header_only(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("app_id,label,iteration,instructions\n")
    d = parse_perf_csv(path)
    assert len(d) == 0
    assert d.provenance == "ingested"


@pytest.mark.parametrize(
    "body",
    [
        "",  # no header at all
        "who,what,when,instructions\na,benign,0,1\n",
        "app_id,label,iteration,mystery-counter\na,benign,0,1\n",
        "app_id,label,iteration,instructions\na,benign,0,ten\n",
        "app_id,label,iteration,instructions\na,benign,zero,1\n",
        "app_id,label,iteration,instructions\na,gray,0,1\n",
        "app_id,label,iteration,instructions\na,benign,0,1\na,malware,1,1\n",
        "app_id,label,iteration,instructions\na,benign,0,1\na,benign,0,2\n",
        "app_id,label,iteration,instructions\na,benign,1,1\n",  # gap at 0
        "app_id,label,iteration,instructions\na,benign,0,9223372036854775808\n",
        b"app_id,label,iteration,instructions\na,benign,0,1\xff2\n",  # not UTF-8
    ],
)
def test_parse_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode() if isinstance(body, str) else body)
    with pytest.raises(ParseError):
        parse_perf_csv(path)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=10**12), min_size=2, max_size=2
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(["benign", "malware"]),
)
def test_csv_roundtrip_property(tmp_path_factory, rows, label):
    t = make_trace("app", label, ("cpu-cycles", "page-faults"), rows)
    d = Dataset((t,))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_perf_csv(d, path)
    back = parse_perf_csv(path)
    assert back.traces[0].label == label
    assert np.array_equal(back.traces[0].values, t.values)
