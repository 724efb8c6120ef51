import codecs
import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    LABELS,
    MAX_SYNTHETIC_ROWS,
    Dataset,
    HpcTrace,
    _parse_fast,
    _parse_rows,
    catalog_order,
    check_synthetic_size,
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
    for values in ([1, 2], [[[1]]], np.empty((0, 1), np.int64), [[1], [2, 3]]):
        with pytest.raises(DataError, match="non-empty 2-D matrix"):
            HpcTrace("a", "benign", ("instructions",), values)


@pytest.mark.parametrize("values, fault", [
    ([[1.7, 2.0]], "1.7 is not a whole number"),
    ([[2.0, np.nan]], "nan is not finite"),
    ([[np.inf, 2.0]], "inf is not finite"),
    ([[1e30, 2.0]], "1e\\+30 is past the int64 range"),
    (np.array([[2**63, 2]], np.uint64), "9223372036854775808 is past the int64 range"),
    # Python ints past int64 and uint64, and None, arrive as an object array
    ([[2**64, 2]], "18446744073709551616 is past the int64 range"),
    ([[2, -(2**64)]], "-18446744073709551616 is past the int64 range"),
    ([[float("nan"), 2**64]], "nan is not finite"),
    ([[None, 2]], "None is not a number"),
    # a fraction the int64 cast truncates
    ([[Fraction(3, 2), 2]], "3/2 is not a whole number"),
])
def test_trace_rejects_values_that_int64_cannot_hold(values, fault, recwarn):
    with pytest.raises(DataError, match=f"counter value {fault}"):
        HpcTrace("a", "benign", ("instructions", "cpu-cycles"), values)
    assert not recwarn.list  # no cast warning ahead of the error


@pytest.mark.parametrize("values, message", [
    ([["5", "6"]], "counter values must be numbers, not <U1"),
    ([["x", 2]], "counter values must be numbers, not <U21"),
])
def test_trace_rejects_strings(values, message):
    with pytest.raises(DataError, match=message):
        HpcTrace("a", "benign", ("instructions", "cpu-cycles"), values)


_CELLS = st.one_of(
    st.integers(-3, 10**6),
    st.floats(),
    st.integers(2**63 - 2, 2**80) | st.integers(-(2**80), -(2**63) + 1),
    st.text(max_size=2),
    st.none(),
)
_MATRICES = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(_CELLS, min_size=width, max_size=width),
                           min_size=1, max_size=3))
_NESTED = st.lists(st.recursive(_CELLS, lambda cells: st.lists(cells, max_size=3),
                                max_leaves=8), max_size=3)


@settings(max_examples=300, deadline=None)
@given(_MATRICES | _NESTED)
def test_trace_from_any_nested_values_builds_or_raises_data_error(values):
    width = len(values[0]) if values and isinstance(values[0], list) else 1
    try:
        t = HpcTrace("a", "benign", HPC_CATALOG[:width], values)
    except DataError:
        return
    assert t.values.dtype == np.int64
    assert t.values.tolist() == [[int(v) for v in row] for row in values]


def test_trace_rejects_a_repeated_counter():
    # stack() would otherwise read one of the two columns for both
    with pytest.raises(DataError, match="counter 'branch-misses' repeats"):
        HpcTrace("a", "benign", ("branch-misses", "branch-misses"), [[1, 2]])


def test_trace_rejects_an_empty_counter_list():
    # it would build a (1, 0) matrix, a trace with nothing to classify
    with pytest.raises(DataError, match="no counters"):
        HpcTrace("a", "benign", (), [[]])


def test_trace_equality_with_another_type_is_false():
    t = make_trace("a", "benign", ("instructions",), [[5]])
    assert t.__eq__(5) is NotImplemented
    assert t != 5 and not t == 5


def test_trace_keeps_whole_floats_and_int64_input_as_given():
    t = HpcTrace("a", "benign", ("instructions",), [[3.0], [2.0**62]])
    assert t.values.dtype == np.int64 and t.values.tolist() == [[3], [2**62]]
    values = np.array([[1], [2]], np.int64)
    assert HpcTrace("a", "benign", ("instructions",), values).values is values
    # whole values in an object array take the same cast
    t = HpcTrace("a", "benign", ("branch-misses", "cpu-cycles"), [[Fraction(3), 2]])
    assert t.values.dtype == np.int64 and t.values.tolist() == [[3, 2]]


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
    for iterations in (0, -1, MAX_SYNTHETIC_ROWS // 2 + 1, 2**62):
        with pytest.raises(ConfigurationError):
            generate_synthetic_dataset(default_profile(iterations), 1, 1, 0)
    check_synthetic_size(1, MAX_SYNTHETIC_ROWS - 1, 1)  # the cap itself is admitted
    with pytest.raises(ConfigurationError, match="exceed the limit"):
        check_synthetic_size(1, MAX_SYNTHETIC_ROWS, 1)
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
        ("instructions", "branch-misses", "instructions", "instructions"),
        ("cache-misses",),
    ],
)
def test_stack_matches_per_trace_stack(small_dataset, n_apps, counters):
    # the first and last apps are benign and malware
    traces = small_dataset.traces[: (n_apps + 1) // 2]
    traces += small_dataset.traces[len(small_dataset) - n_apps // 2 :]
    # 10, 7, 4, 1, 8, ... rows: traces of mixed lengths, one of a single row
    ds = Dataset(tuple(
        make_trace(t.app_id, t.label, t.counters, t.values[: 10 - 3 * i % 10])
        for i, t in enumerate(traces)
    ))
    X, y = ds.stack(counters)
    X_ref, y_ref = _stack_per_trace(ds, counters)
    for got, ref in ((X, X_ref), (y, y_ref)):
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        # memory order too: it sets the summation order of column statistics
        assert got.flags == ref.flags


def test_stack_labels_of_mixed_lengths_and_labels_match_per_trace_labels():
    rng = np.random.default_rng(4)
    counters = ("instructions", "branch-misses")
    ds = Dataset(tuple(
        make_trace(f"a{i}", label, counters, rng.integers(0, 99, size=(n, 2)))
        for i, (label, n) in enumerate(
            [("malware", 3), ("benign", 1), ("benign", 7), ("malware", 1),
             ("malware", 2), ("benign", 4)])
    ))
    _, y = ds.stack(counters)
    _, y_ref = _stack_per_trace(ds, counters)
    assert y.dtype == y_ref.dtype == np.int64
    assert y.tobytes() == y_ref.tobytes()


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


def _write_a_csv_row_per_iteration(d, path):
    """write_perf_csv as one csv.writer row per iteration: the reference
    for its bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["app_id", "label", "iteration", *(d.counters or HPC_CATALOG)])
        for t in d.traces:
            for it in range(t.iterations):
                w.writerow([t.app_id, t.label, it] + t.values[it].tolist())


def test_export_writes_the_bytes_of_a_csv_row_per_iteration(tmp_path, small_dataset):
    apps = ["a,b", 'say "hi"', "two\nlines", "", "cr\rlf", "é,\"\n", "plain"]
    rng = np.random.default_rng(0)
    odd = Dataset(tuple(
        make_trace(app, LABELS[i % 2], ("instructions", "cpu-cycles"),
                   rng.integers(0, 2**63 - 1, size=(i + 1, 2)))
        for i, app in enumerate(apps)
    ))
    for d in (odd, Dataset(()), Dataset(small_dataset.traces[:6])):
        write_perf_csv(d, tmp_path / "got.csv")
        _write_a_csv_row_per_iteration(d, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()


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


def test_parse_cell_over_the_csv_field_limit_cites_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(
        "app_id,label,iteration,instructions\n"
        + "a" * 200_000 + ",benign,0,10\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_perf_csv(path)
    assert exc.value.line == 2


def test_parse_header_only(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("app_id,label,iteration,instructions\n")
    d = parse_perf_csv(path)
    assert len(d) == 0
    assert d.provenance == "ingested"


# Each malformed file and the line and text of the ParseError it raises.
_MALFORMED = {
    "": (1, "line 1: missing header"),  # no header at all
    "who,what,when,instructions\na,benign,0,1\n": (
        1, "line 1: header must be app_id,label,iteration,<hpc...>"),
    "app_id,label,iteration\na,benign,0\n": (1, "line 1: no counters"),
    "app_id,label,iteration,mystery-counter\na,benign,0,1\n": (
        1, "line 1: unknown counter 'mystery-counter'"),
    "app_id,label,iteration,instructions,cpu-cycles,instructions\na,benign,0,1,2,3\n": (
        1, "line 1: counter 'instructions' repeats"),
    "app_id,label,iteration,instructions\na,benign,-1,1\n": (
        2, "line 2: iteration must be >= 0"),
    "app_id,label,iteration,instructions\na,benign,0,ten\n": (
        2, "line 2: bad counter value 'ten'"),
    "app_id,label,iteration,instructions\na,benign,zero,1\n": (
        2, "line 2: bad iteration 'zero'"),
    "app_id,label,iteration,instructions\na,gray,0,1\n": (
        2, "line 2: bad label 'gray'"),
    "app_id,label,iteration,instructions\na,benign,0,1\na,malware,1,1\n": (
        3, "line 3: label for app 'a' changed to 'malware'"),
    "app_id,label,iteration,instructions\na,benign,0,1\na,benign,0,2\n": (
        3, "line 3: duplicate iteration 0 for app 'a'"),
    "app_id,label,iteration,instructions\na,benign,1,1\n": (  # gap at 0
        2, "line 2: app 'a' iterations are not contiguous from 0: "
        "iteration 0 is missing"),
    # gap at 1; the error cites the app's first row
    "app_id,label,iteration,instructions\n"
    "b,benign,0,1\na,benign,0,1\nb,benign,1,1\na,benign,2,1\n": (
        3, "line 3: app 'a' iterations are not contiguous from 0: "
        "iteration 1 is missing"),
    "app_id,label,iteration,instructions\na,benign,0,9223372036854775808\n": (
        2, "line 2: counter value 9223372036854775808 exceeds the 64-bit range"),
    b"app_id,label,iteration,instructions\na,benign,0,1\xff2\n": (  # not UTF-8
        None, "file is not UTF-8: invalid start byte"),
    # a quoted cell spans lines 2 and 3, so the next record is on line 4
    'app_id,label,iteration,instructions\n"a\nb",benign,0,5\nc,benign,0,x\n': (
        4, "line 4: bad counter value 'x'"),
    # a fault in a record that spans two lines names the line it ends on
    'app_id,label,iteration,instructions\n"a\nb",gray,0,5\n': (
        3, "line 3: bad label 'gray'"),
}


@pytest.mark.parametrize("body", list(_MALFORMED))
def test_parse_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode() if isinstance(body, str) else body)
    with pytest.raises(ParseError) as exc:
        parse_perf_csv(path)
    assert (exc.value.line, str(exc.value)) == _MALFORMED[body]


def test_parse_reads_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("app_id,label,iteration,instructions\na,benign,0,10\n")
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    expected = parse_perf_csv(plain)
    assert expected.traces == (make_trace("a", "benign", ("instructions",), [[10]]),)
    assert _parse_rows(marked) == _parse_fast(marked) == expected


def test_fast_parse_reads_an_interleaved_export(tmp_path, small_dataset):
    # without this, a fast path that always declined would pass unnoticed
    d = Dataset(small_dataset.traces[:3] + small_dataset.traces[-3:])
    path = tmp_path / "x.csv"
    write_perf_csv(d, path)
    header, *rows = path.read_bytes().splitlines(keepends=True)
    rows.sort(key=lambda row: int(row.split(b",")[2]))  # the apps take turns
    path.write_bytes(header + b"".join(rows))
    parsed = _parse_fast(path)
    assert parsed is not None
    assert parsed.traces == d.traces
    assert parsed.provenance == "ingested"
    for t in parsed.traces:
        assert t.values.dtype == np.int64
        assert not t.values.flags.writeable


def test_fast_parse_reads_one_very_long_line_as_the_row_parser_does(tmp_path):
    # app ids are strings of their own length, not entries of an array as
    # wide as the longest one, so a long line costs only its own bytes
    path = tmp_path / "x.csv"
    rows = [f"a,benign,{i},1\n" for i in range(20)] + ["b" * 5000 + ",malware,0,2\n"]
    path.write_text("app_id,label,iteration,instructions\n" + "".join(rows))
    assert _parse_fast(path) == _parse_rows(path)
    assert [t.iterations for t in parse_perf_csv(path).traces] == [20, 1]


def test_fast_parse_leaves_a_file_of_mostly_blank_lines_to_the_row_parser(tmp_path):
    # loadtxt would zero a table row for each of the 1,000 lines
    path = tmp_path / "x.csv"
    path.write_text("app_id,label,iteration,instructions\na,benign,0,5\n" + "\n" * 1000)
    assert _parse_fast(path) is None
    assert parse_perf_csv(path).traces == (make_trace("a", "benign", ("instructions",), [[5]]),)


def test_fast_parse_peak_memory_stays_within_three_times_the_table(tmp_path):
    # the file's bytes, the parsed table and one string per row are alive
    # at once: 2.9x the kept values at 20k rows
    d = generate_synthetic_dataset(default_profile(iterations=50), 200, 200, seed=3)
    path = tmp_path / "x.csv"
    write_perf_csv(d, path)
    tracemalloc.start()
    try:
        parsed = parse_perf_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.traces == d.traces
    assert peak <= 3 * sum(t.values.nbytes for t in parsed.traces)


# App ids that csv.writer writes unquoted and np.loadtxt reads as written.
_PLAIN_IDS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                   blacklist_characters='",'), max_size=6)


@st.composite
def _datasets(draw):
    counters = tuple(draw(st.lists(st.sampled_from(HPC_CATALOG), min_size=1,
                                   max_size=3, unique=True)))
    traces = []
    for app_id in draw(st.lists(_PLAIN_IDS, max_size=4, unique=True)):
        rows = draw(st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=len(counters),
                                      max_size=len(counters)), min_size=1, max_size=3))
        traces.append(HpcTrace(app_id, draw(st.sampled_from(LABELS)), counters, rows))
    return Dataset(traces)


@settings(max_examples=50, deadline=None)
@given(_datasets(), st.booleans())
def test_fast_parse_reads_every_export(tmp_path_factory, d, marked):
    # a fast path that declined in silence would still pass the tests above
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_perf_csv(d, path)
    if marked:
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    parsed = _parse_fast(path)
    assert parsed is not None
    assert parsed.traces == d.traces


_APP_IDS = ("a", "b", " a", "a b", "\u00e9")
# Cells that int() and np.loadtxt could read differently, or not at all.
# With numpy 2.4.6 on glibc, np.loadtxt reads "\ufd04" as the digit 64724.
_ODD_CELLS = (
    "", " ", " 5", "5 ", "+5", "-0", "-1", "007", "1_000", "\t3", "5.0",
    "\u0663", "\uff15", "\u30004", "\ufd04", "\x1c5", "\x1f5",
    str(2**63 - 1), str(2**63), str(-(2**63)), str(2**64),
)


@st.composite
def _perf_csv_bytes(draw):
    """A valid CSV of interleaved apps, then a few edits that may break it
    or leave it to the row parser: odd cells, labels, iterations, widths and
    headers, quotes, CRLF, blank lines, a byte order mark, non-UTF-8 bytes."""
    counters = draw(st.sampled_from([("instructions",), ("cpu-cycles", "page-faults")]))
    header = ["app_id", "label", "iteration", *counters]
    rows = []
    for app_id in draw(st.permutations(_APP_IDS))[: 3 - draw(st.integers(0, 3))]:
        label = draw(st.sampled_from(LABELS))
        for it in range(draw(st.integers(1, 3))):
            values = draw(st.lists(st.integers(0, 2**63 - 1),
                                   min_size=len(counters), max_size=len(counters)))
            rows.append([app_id, label, str(it), *map(str, values)])
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        edit = draw(st.sampled_from(
            ["cell", "cell", "iteration", "app", "label", "quote", "width", "header"]))
        if edit == "header":
            i = draw(st.integers(0, len(header) - 1))
            header[i] = draw(st.sampled_from(["app", "mystery", "instructions", ""]))
            continue
        if not rows:
            continue
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if edit == "cell":
            row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif edit == "app":
            row[0] = draw(st.sampled_from(_APP_IDS))
        elif edit == "label":
            row[1] = draw(st.sampled_from(["benign", "malware", "gray", "Benign"]))
        elif edit == "iteration":
            row[2] = str(draw(st.integers(0, 3)))
        elif edit == "width":
            row.append("1") if draw(st.booleans()) else row.pop()
        else:
            row[0] = f'"{row[0]}"'
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = len(lines) - draw(st.integers(0, len(lines)))  # rarely before the header
        lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    data = (newline.join(lines) + draw(st.sampled_from([newline, ""]))).encode()
    if draw(st.sampled_from([False, False, True])):
        data = codecs.BOM_UTF8 + data
    if draw(st.sampled_from([False] * 5 + [True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[at:]
    return data


def _parse_result(parse, path):
    """What `parse(path)` returns, or the line and text of its ParseError."""
    try:
        return parse(path)
    except ParseError as exc:
        return exc.line, str(exc)


_HEADER = b"app_id,label,iteration,instructions\n"


@settings(max_examples=200, deadline=None)
@given(_perf_csv_bytes())
# the traps of a vectorised parse, each one certain to run
@example(_HEADER + b"a,benign,0,\x1c5\n")  # blank to loadtxt, not to int()
@example(_HEADER + "a,benign,0,\ufd04\n".encode())  # a loadtxt "digit"
@example(_HEADER + b"a,benign,0,5,1\nb,benign,0,5\n")  # one extra cell
@example(_HEADER + b"a,benign,0,5\nb,benign,0\n")  # one missing cell
@example(_HEADER + b"a,benign,0,5\nb,malware,0,6\na,benign,1,7\n")  # interleaved
@example(_HEADER + b"a,benign,1,5\na,benign,0,6\n")  # out of order
@example(_HEADER + b'"a",benign,0,5\r\n\r\na,benign,1, +6 \n')
@example(_HEADER + b"a,malwarez,0,5\n")  # one byte past "malware"
@example(_HEADER + b"a,malware ,0,5\n")  # a trailing space
@example(_HEADER + b"a" * (csv.field_size_limit() + 1) + b",benign,0,5\n")  # a long id
def test_fast_parse_agrees_with_row_parse(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(data)
    expected = _parse_result(_parse_rows, path)
    assert _parse_result(parse_perf_csv, path) == expected
    fast = _parse_fast(path)
    assert fast is None or fast == expected


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
