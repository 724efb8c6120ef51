"""HPC trace data model: canonical counter catalog, synthetic generation,
perf-style CSV ingestion/export, and train/test splitting."""

from __future__ import annotations

import codecs
import csv
import io
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, FeatureMismatchError
from .errors import ParseError, SplitSizeError

# Canonical 20-counter catalog. Order is the global tie-break order.
HPC_CATALOG = (
    "branch-instructions",
    "branch-misses",
    "bus-cycles",
    "cache-misses",
    "cache-references",
    "cpu-cycles",
    "instructions",
    "LLC-load-misses",
    "LLC-loads",
    "LLC-store-misses",
    "LLC-stores",
    "branch-loads",
    "branch-load-misses",
    "dTLB-load-misses",
    "dTLB-loads",
    "dTLB-store-misses",
    "dTLB-stores",
    "iTLB-load-misses",
    "iTLB-loads",
    "page-faults",
)

CATALOG_INDEX = {name: i for i, name in enumerate(HPC_CATALOG)}

LABELS = ("benign", "malware")
INT64_MAX = np.iinfo(np.int64).max


def catalog_order(counters):
    """Sort counter names by their catalog position."""
    return tuple(sorted(counters, key=CATALOG_INDEX.__getitem__))


def column_indices(have, want):
    """Positions of the counters `want` in the column order `have`. Raises
    FeatureMismatchError naming the first counter `have` lacks."""
    lookup = {c: i for i, c in enumerate(have)}
    try:
        return [lookup[c] for c in want]
    except KeyError as exc:
        raise FeatureMismatchError(f"lacks counter {exc.args[0]!r}") from None


def _counters_problem(counters):
    """Why a counter list is not one or more catalog names without repeats,
    or None."""
    if not counters:
        return "no counters"
    for c in counters:
        if c not in CATALOG_INDEX:
            return f"unknown counter {c!r}"
    if len(set(counters)) != len(counters):
        return f"counter {next(c for c in counters if counters.count(c) > 1)!r} repeats"
    return None


def _check_value(v):
    """int(v), or DataError unless counter value v is a whole int64 value."""
    if not isinstance(v, numbers.Real):
        fault = "not a number"
    elif not isinstance(v, numbers.Integral) and not math.isfinite(v):
        fault = "not finite"
    elif v != int(v):
        fault = "not a whole number"
    elif not -INT64_MAX - 1 <= int(v) <= INT64_MAX:
        fault = "past the int64 range"
    else:
        return int(v)
    raise DataError(f"counter value {v} is {fault}")


@dataclass(frozen=True)
class HpcTrace:
    """Per-application matrix of counter readings, one row per sampling
    iteration, one column per counter."""

    app_id: str
    label: str
    counters: tuple
    values: np.ndarray  # (iterations, len(counters)), non-negative int64

    def __post_init__(self):
        if self.label not in LABELS:
            raise DataError(f"bad label {self.label!r}")
        try:
            raw = np.asarray(self.values)
        except ValueError:  # rows of unequal lengths or depths
            raise DataError("values must be a non-empty 2-D matrix") from None
        if raw.dtype.kind not in "biufO":
            raise DataError(f"counter values must be numbers, not {raw.dtype}")
        try:  # the check below names the first fault in flat order
            with np.errstate(invalid="ignore"):
                vals = raw.astype(np.int64, copy=False)
        except (ArithmeticError, TypeError, ValueError):  # such as None or 2**64
            vals = None
        if not np.can_cast(raw, np.int64) and (vals is None or (vals != raw).any()):
            vals = np.fromiter(map(_check_value, raw.flat), np.int64).reshape(raw.shape)
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise DataError("values must be a non-empty 2-D matrix")
        if vals.shape[1] != len(self.counters):
            raise DataError("row width does not match counter list")
        if (vals < 0).any():
            raise DataError("counter values cannot be negative")
        problem = _counters_problem(self.counters)
        if problem is not None:
            raise DataError(problem)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "counters", tuple(self.counters))

    @property
    def iterations(self):
        return self.values.shape[0]

    def __eq__(self, other):
        if not isinstance(other, HpcTrace):
            return NotImplemented
        return (
            self.app_id == other.app_id
            and self.label == other.label
            and self.counters == other.counters
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of traces with unique app ids and one shared
    counter list, `counters` (empty for an empty dataset)."""

    traces: tuple
    provenance: str = "synthetic"
    counters: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        ids = [t.app_id for t in self.traces]
        if len(set(ids)) != len(ids):
            raise DataError("app_ids must be unique within a dataset")
        if self.provenance not in ("synthetic", "ingested"):
            raise DataError(f"bad provenance {self.provenance!r}")
        lists = {t.counters for t in self.traces}
        if len(lists) > 1:
            raise DataError("all traces in a dataset must share one counter list")
        object.__setattr__(self, "counters", lists.pop() if lists else ())

    def __len__(self):
        return len(self.traces)

    def by_label(self, label):
        return [t for t in self.traces if t.label == label]

    def has_both_labels(self):
        labels = {t.label for t in self.traces}
        return labels == set(LABELS)

    def stack(self, counters):
        """Pool all iteration rows restricted to `counters`.

        Returns (X, y) with X float64 of shape (total_rows, len(counters))
        and y int (1 = malware). Raises FeatureMismatchError if the traces
        lack a counter.
        """
        counters = tuple(counters)
        if not self.traces:
            return np.empty((0, len(counters))), np.empty(0, dtype=np.int64)
        idx = column_indices(self.counters, counters)
        values = np.concatenate([t.values for t in self.traces])
        # F order: column statistics sum in memory order, so it sets their bits
        X = np.empty((len(values), len(idx)), order="F")
        for j, i in enumerate(idx):
            X[:, j] = values[:, i]
        y = np.repeat(
            np.array([t.label == "malware" for t in self.traces], np.int64),
            [t.iterations for t in self.traces],
        )
        return X, y


@dataclass(frozen=True)
class _SyntheticProfile:
    """Class-conditional lognormal model with latent factors.

    log(value) = class log-mean + loadings @ z + log-sdev * eps, with z and
    eps standard normal; values are rounded to non-negative integers.
    """

    benign_log_mean: np.ndarray  # (20,)
    malware_log_mean: np.ndarray  # (20,)
    log_sdev: np.ndarray  # (20,) idiosyncratic, > 0
    loadings: np.ndarray  # (20, n_factors)
    iterations: int


# Per-counter (benign log-mean, malware shift, idiosyncratic log-sdev,
# factor-1 loading, factor-2 loading). Factor 1 ties cache-references,
# cpu-cycles and instructions together; factor 2 ties bus-cycles and
# cache-misses. Shifts are tuned so the four counters the attack targets
# carry modest signal while the counters used by the defense pools carry
# strong signal.
_DEFAULT_ROWS = {
    "branch-instructions": (17.2, -0.30, 0.45, 0.0, 0.0),
    "branch-misses": (13.1, -0.35, 0.45, 0.0, 0.0),
    "bus-cycles": (19.1, +0.90, 0.25, 0.0, 0.35),
    "cache-misses": (13.8, +0.90, 0.25, 0.0, 0.35),
    "cache-references": (17.7, +1.00, 0.20, 0.60, 0.0),
    "cpu-cycles": (20.7, +1.00, 0.20, 0.60, 0.0),
    "instructions": (21.1, +0.30, 0.20, 0.60, 0.0),
    "LLC-load-misses": (12.9, -0.35, 0.45, 0.0, 0.0),
    "LLC-loads": (16.8, +0.70, 0.35, 0.0, 0.0),
    "LLC-store-misses": (12.2, +0.65, 0.35, 0.0, 0.0),
    "LLC-stores": (15.9, +0.60, 0.35, 0.0, 0.0),
    "branch-loads": (17.2, +0.50, 0.40, 0.0, 0.0),
    "branch-load-misses": (12.9, +0.45, 0.40, 0.0, 0.0),
    "dTLB-load-misses": (11.5, +0.40, 0.40, 0.0, 0.0),
    "dTLB-loads": (20.0, +0.35, 0.40, 0.0, 0.0),
    "dTLB-store-misses": (10.8, +0.30, 0.40, 0.0, 0.0),
    "dTLB-stores": (18.4, +0.25, 0.40, 0.0, 0.0),
    "iTLB-load-misses": (9.9, +0.15, 0.45, 0.0, 0.0),
    "iTLB-loads": (13.8, +0.10, 0.45, 0.0, 0.0),
    "page-faults": (7.6, +0.00, 0.50, 0.0, 0.0),
}


def default_profile(iterations=20):
    """The calibrated profile used by all default experiments."""
    rows = [_DEFAULT_ROWS[c] for c in HPC_CATALOG]
    benign = np.array([r[0] for r in rows])
    shift = np.array([r[1] for r in rows])
    sdev = np.array([r[2] for r in rows])
    loadings = np.array([[r[3], r[4]] for r in rows])
    return _SyntheticProfile(
        benign_log_mean=benign,
        malware_log_mean=benign + shift,
        log_sdev=sdev,
        loadings=loadings,
        iterations=iterations,
    )


MAX_SYNTHETIC_ROWS = 10**7  # iteration rows in one synthetic dataset


def check_synthetic_size(n_benign, n_malware, iterations):
    """ConfigurationError unless a dataset of n_benign + n_malware apps with
    `iterations` rows each can be drawn: counts >= 1, MAX_SYNTHETIC_ROWS rows."""
    if min(n_benign, n_malware, iterations) < 1:
        raise ConfigurationError("app counts and iterations must be >= 1")
    if (n_benign + n_malware) * iterations > MAX_SYNTHETIC_ROWS:
        raise ConfigurationError(
            f"{n_benign} + {n_malware} apps of {iterations} iterations each"
            f" exceed the limit of {MAX_SYNTHETIC_ROWS:,} rows")


def generate_synthetic_dataset(profile, n_benign, n_malware, seed):
    """Draw a labeled dataset from the profile; deterministic per seed."""
    check_synthetic_size(n_benign, n_malware, profile.iterations)
    rng = np.random.default_rng(seed)
    n_counters = len(HPC_CATALOG)
    n_factors = profile.loadings.shape[1]
    traces = []

    def draw(label, mu, count):
        for i in range(count):
            z = rng.standard_normal((profile.iterations, n_factors))
            eps = rng.standard_normal((profile.iterations, n_counters))
            log_v = mu + z @ profile.loadings.T + eps * profile.log_sdev
            vals = np.rint(np.exp(log_v)).astype(np.int64)
            traces.append(
                HpcTrace(
                    app_id=f"{label}-{i:04d}",
                    label=label,
                    counters=HPC_CATALOG,
                    values=vals,
                )
            )

    draw("benign", profile.benign_log_mean, n_benign)
    draw("malware", profile.malware_log_mean, n_malware)
    return Dataset(traces=tuple(traces), provenance="synthetic")


def split_train_test(d, n_test_per_class, seed):
    """Disjoint app-level partition with exactly n_test_per_class test traces
    per class; deterministic per seed."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label in LABELS:
        apps = d.by_label(label)
        if len(apps) <= n_test_per_class:
            raise SplitSizeError(
                f"class {label!r} has {len(apps)} traces; "
                f"need more than {n_test_per_class}"
            )
        order = rng.permutation(len(apps))
        picked = set(order[:n_test_per_class].tolist())
        for i, t in enumerate(apps):
            (test if i in picked else train).append(t)
    mk = lambda traces: Dataset(tuple(traces), provenance=d.provenance)
    return mk(train), mk(test)


def write_perf_csv(d, path):
    """Export a dataset in the ingestion CSV format (UTF-8, LF endings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["app_id", "label", "iteration", *(d.counters or HPC_CATALOG)])
        for t in d.traces:
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow([t.app_id, t.label, ""])
            pre = line.getvalue()[:-1]  # "app_id,label," quoted by the csv module
            fh.write("".join([f"{pre}{it},{','.join(map(str, row))}\n"
                              for it, row in enumerate(t.values.tolist())]))


def _header_problem(header):
    """Why the cells of a CSV header row are not a valid header, or None."""
    if header[:3] != ["app_id", "label", "iteration"]:
        return "header must be app_id,label,iteration,<hpc...>"
    return _counters_problem(header[3:])


def parse_perf_csv(path):
    """Ingest a perf-style CSV export into a Dataset (provenance=ingested).

    A vectorised parse runs first. A file it cannot vouch for is parsed row
    by row instead, with the same result; only that parser raises
    ParseError."""
    parsed = _parse_fast(path)
    return _parse_rows(path) if parsed is None else parsed


# Bytes that make the fast path hand a file to `_parse_rows`. Without
# quotes, CR and NUL, csv.reader splits lines on "\n" and cells on ",".
# np.loadtxt skips \x1c-\x1f as blanks around an integer where int() does
# not; every other ASCII cell it reads as int64 int() reads the same.
_ROW_PARSER_BYTES = (b'"', b"\r", b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_fast(path):
    """`_parse_rows(path)` read with one np.loadtxt pass over the file's
    bytes, or None where the two could differ or `_parse_rows` would raise.

    The file must be ASCII: np.loadtxt misreads some non-ASCII characters
    as digits."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if (np.frombuffer(data, np.uint8, offset=start).max(initial=0) > 127
            or any(c in data for c in _ROW_PARSER_BYTES)):
        return None
    # csv.reader refuses a cell past its field size limit, so no line may be
    # longer: hop from line start to line start, at most one limit at a time.
    at, limit = start, csv.field_size_limit()
    while len(data) - at > limit:
        at = data.rfind(b"\n", at, at + limit + 1) + 1
        if not at:
            return None
    stream = io.BytesIO(data)
    stream.seek(start)
    header = stream.readline().rstrip(b"\n").decode("ascii").split(",")
    if _header_problem(header) is not None:
        return None
    counters = tuple(header[3:])
    # loadtxt zeroes a table of max_rows rows first. The line count bounds the
    # rows, and a row takes 10 + 2 * len(counters) bytes or more: a file of
    # shorter lines on average, blank ones included, goes to the row parser.
    lines = data.count(b"\n")
    if lines * (10 + 2 * len(counters)) > len(data):
        return None
    # With a structured dtype loadtxt refuses a row of any other width. It
    # skips empty lines, as `_parse_rows` does. A label field one byte wider
    # than "malware" keeps any longer label from truncating to a valid one.
    row = [("app_id", object), ("label", "S8"),
           ("nums", np.int64, (1 + len(counters),))]  # iteration, counters
    try:
        with warnings.catch_warnings():
            # older numpy reads "5.0" as the integer 5 and only warns
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)  # blank lines, no rows
            table = np.loadtxt(stream, dtype=row, delimiter=",", comments=None,
                               encoding="ascii", ndmin=1, max_rows=lines)
    except (ValueError, OverflowError, DeprecationWarning):
        return None
    del data, stream
    nums, labels = table["nums"], table["label"]
    malware = labels == b"malware"
    if (nums < 0).any() or not (malware | (labels == b"benign")).all():
        return None
    index = {}  # app id -> its number in order of first appearance
    apps = np.array([index.setdefault(a, len(index)) for a in table["app_id"].tolist()],
                    dtype=np.intp)
    order = np.lexsort((nums[:, 0], apps))  # rows by app, then by iteration
    sizes = np.bincount(apps)
    ends = np.cumsum(sizes)
    starts = np.repeat(ends - sizes, sizes)
    malware = malware[order]
    if not (np.array_equal(nums[order, 0], np.arange(len(table)) - starts)
            and (malware == malware[starts]).all()):
        return None
    traces = [
        HpcTrace(app_id=app_id, label=LABELS[is_malware],
                 counters=counters, values=values)
        for app_id, is_malware, values in zip(
            index, malware[ends - 1].tolist(), np.split(nums[order, 1:], ends[:-1]))
    ]
    return Dataset(tuple(traces), provenance="ingested")


def _parse_rows(path):
    """`parse_perf_csv` one csv.reader row at a time, raising ParseError
    that names the line on which the first faulty record ends."""
    apps = {}  # app_id -> (label, {iteration: row values}, first line)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("missing header", line=1)
            problem = _header_problem(header)
            if problem is not None:
                raise ParseError(problem, line=reader.line_num)
            counters = tuple(header[3:])
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != 3 + len(counters):
                    raise ParseError(
                        f"expected {3 + len(counters)} cells, got {len(row)}",
                        line=line,
                    )
                app_id, label = row[0], row[1]
                if label not in LABELS:
                    raise ParseError(f"bad label {label!r}", line=line)
                try:
                    iteration = int(row[2])
                except ValueError:
                    raise ParseError(f"bad iteration {row[2]!r}", line=line)
                if iteration < 0:
                    raise ParseError("iteration must be >= 0", line=line)
                vals = []
                for cell in row[3:]:
                    try:
                        v = int(cell)
                    except ValueError:
                        raise ParseError(f"bad counter value {cell!r}", line=line)
                    if v < 0:
                        raise ParseError(f"negative counter value {v}", line=line)
                    if v > INT64_MAX:
                        raise ParseError(
                            f"counter value {v} exceeds the 64-bit range", line=line
                        )
                    vals.append(v)
                prev_label, rows, _ = apps.setdefault(app_id, (label, {}, line))
                if prev_label != label:
                    raise ParseError(
                        f"label for app {app_id!r} changed to {label!r}", line=line
                    )
                if iteration in rows:
                    raise ParseError(
                        f"duplicate iteration {iteration} for app {app_id!r}",
                        line=line,
                    )
                rows[iteration] = vals
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not UTF-8: {exc.reason}") from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None

    traces = []
    for app_id, (label, rows, first_line) in apps.items():
        missing = next((i for i in range(len(rows)) if i not in rows), None)
        if missing is not None:
            raise ParseError(
                f"app {app_id!r} iterations are not contiguous from 0: "
                f"iteration {missing} is missing",
                line=first_line,
            )
        vals = np.array([rows[i] for i in range(len(rows))], dtype=np.int64)
        traces.append(
            HpcTrace(
                app_id=app_id,
                label=label,
                counters=counters,
                values=vals,
            )
        )
    return Dataset(tuple(traces), provenance="ingested")
