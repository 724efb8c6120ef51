"""HPC trace data model: canonical counter catalog, synthetic generation,
perf-style CSV ingestion/export, and train/test splitting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FeatureMismatchError, ParseError, ProfileError, SplitSizeError

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


def catalog_order(counters):
    """Sort counter names by their catalog position."""
    return tuple(sorted(counters, key=CATALOG_INDEX.__getitem__))


@dataclass(frozen=True)
class HpcTrace:
    """Per-application matrix of counter readings, one row per sampling
    iteration, one column per counter."""

    app_id: str
    label: str
    interval_ms: int
    counters: tuple
    values: np.ndarray  # (iterations, len(counters)), non-negative int64

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"bad label {self.label!r}")
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise ValueError("values must be a non-empty 2-D matrix")
        if vals.shape[1] != len(self.counters):
            raise ValueError("row width does not match counter list")
        if (vals < 0).any():
            raise ValueError("counter values cannot be negative")
        for c in self.counters:
            if c not in CATALOG_INDEX:
                raise ValueError(f"unknown counter {c!r}")
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
            and self.interval_ms == other.interval_ms
            and self.counters == other.counters
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of traces with unique app ids."""

    traces: tuple
    seed: int = 0
    provenance: str = "synthetic"

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        ids = [t.app_id for t in self.traces]
        if len(set(ids)) != len(ids):
            raise ValueError("app_ids must be unique within a dataset")
        if self.provenance not in ("synthetic", "ingested"):
            raise ValueError(f"bad provenance {self.provenance!r}")

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
        and y int (1 = malware). Raises FeatureMismatchError if a trace lacks
        a counter.
        """
        counters = tuple(counters)
        xs, ys = [], []
        for t in self.traces:
            try:
                idx = [t.counters.index(c) for c in counters]
            except ValueError:
                missing = next(c for c in counters if c not in t.counters)
                raise FeatureMismatchError(
                    f"app {t.app_id!r} lacks counter {missing!r}"
                ) from None
            xs.append(t.values[:, idx].astype(np.float64))
            ys.append(np.full(t.iterations, 1 if t.label == "malware" else 0))
        if not xs:
            return np.empty((0, len(counters))), np.empty(0, dtype=np.int64)
        return np.vstack(xs), np.concatenate(ys)


@dataclass(frozen=True)
class SyntheticProfile:
    """Class-conditional lognormal model with latent factors.

    log(value) = class log-mean + loadings @ z + log-sdev * eps, with z and
    eps standard normal; values are rounded to non-negative integers.
    """

    benign_log_mean: np.ndarray  # (20,)
    malware_log_mean: np.ndarray  # (20,)
    log_sdev: np.ndarray  # (20,) idiosyncratic, > 0
    loadings: np.ndarray  # (20, n_factors)
    iterations: int = 20
    interval_ms: int = 10

    def __post_init__(self):
        for name in ("benign_log_mean", "malware_log_mean", "log_sdev", "loadings"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
        n = len(HPC_CATALOG)
        if self.benign_log_mean.shape != (n,) or self.malware_log_mean.shape != (n,):
            raise ProfileError("log-mean vectors must cover the full catalog")
        if self.log_sdev.shape != (n,):
            raise ProfileError("log-sdev must cover the full catalog")
        if (self.log_sdev <= 0).any():
            raise ProfileError("log-sdev must be strictly positive")
        if self.loadings.ndim != 2 or self.loadings.shape[0] != n:
            raise ProfileError("loadings must be (counters x factors)")
        if not np.isfinite(self.loadings).all():
            raise ProfileError("loadings must be finite")
        if self.iterations < 1 or self.interval_ms < 1:
            raise ProfileError("iterations and interval_ms must be >= 1")


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


def default_profile(iterations=20, interval_ms=10):
    """The calibrated profile used by all default experiments."""
    rows = [_DEFAULT_ROWS[c] for c in HPC_CATALOG]
    benign = np.array([r[0] for r in rows])
    shift = np.array([r[1] for r in rows])
    sdev = np.array([r[2] for r in rows])
    loadings = np.array([[r[3], r[4]] for r in rows])
    return SyntheticProfile(
        benign_log_mean=benign,
        malware_log_mean=benign + shift,
        log_sdev=sdev,
        loadings=loadings,
        iterations=iterations,
        interval_ms=interval_ms,
    )


def generate_synthetic_dataset(profile, n_benign, n_malware, seed):
    """Draw a labeled dataset from the profile; deterministic per seed."""
    if n_benign < 1 or n_malware < 1:
        raise ValueError("counts must be >= 1")
    rng = np.random.default_rng(seed)
    n_counters = len(HPC_CATALOG)
    n_factors = profile.loadings.shape[1]
    traces = []

    def draw(label, mu, count):
        for i in range(count):
            z = rng.standard_normal((profile.iterations, n_factors))
            eps = rng.standard_normal((profile.iterations, n_counters))
            log_v = mu + z @ profile.loadings.T + eps * profile.log_sdev
            vals = np.rint(np.exp(log_v))
            vals = np.maximum(vals, 0).astype(np.int64)
            traces.append(
                HpcTrace(
                    app_id=f"{label}-{i:04d}",
                    label=label,
                    interval_ms=profile.interval_ms,
                    counters=HPC_CATALOG,
                    values=vals,
                )
            )

    draw("benign", profile.benign_log_mean, n_benign)
    draw("malware", profile.malware_log_mean, n_malware)
    return Dataset(traces=tuple(traces), seed=seed, provenance="synthetic")


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
    mk = lambda traces: Dataset(tuple(traces), seed=d.seed, provenance=d.provenance)
    return mk(train), mk(test)


def write_perf_csv(d, path):
    """Export a dataset in the ingestion CSV format (UTF-8, LF endings)."""
    counters = None
    for t in d.traces:
        if counters is None:
            counters = t.counters
        elif t.counters != counters:
            raise ValueError("all traces must share one counter list for export")
    if counters is None:
        counters = HPC_CATALOG
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["app_id", "label", "iteration"] + list(counters))
        for t in d.traces:
            for it in range(t.iterations):
                w.writerow([t.app_id, t.label, it] + t.values[it].tolist())


def parse_perf_csv(path):
    """Ingest a perf-style CSV export into a Dataset (provenance=ingested)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header", line=1)
        if header[:3] != ["app_id", "label", "iteration"] or len(header) < 4:
            raise ParseError(
                "header must be app_id,label,iteration,<hpc...>", line=1
            )
        counters = tuple(header[3:])
        for c in counters:
            if c not in CATALOG_INDEX:
                raise ParseError(f"unknown counter {c!r}", line=1)
        if len(set(counters)) != len(counters):
            raise ParseError("duplicate counter column", line=1)

        apps = {}  # app_id -> (label, {iteration: row values})
        order = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + len(counters):
                raise ParseError(
                    f"expected {3 + len(counters)} cells, got {len(row)}",
                    line=lineno,
                )
            app_id, label = row[0], row[1]
            if label not in LABELS:
                raise ParseError(f"bad label {label!r}", line=lineno)
            try:
                iteration = int(row[2])
            except ValueError:
                raise ParseError(f"bad iteration {row[2]!r}", line=lineno)
            if iteration < 0:
                raise ParseError("iteration must be >= 0", line=lineno)
            vals = []
            for cell in row[3:]:
                try:
                    v = int(cell)
                except ValueError:
                    raise ParseError(f"bad counter value {cell!r}", line=lineno)
                if v < 0:
                    raise ParseError(f"negative counter value {v}", line=lineno)
                vals.append(v)
            if app_id not in apps:
                apps[app_id] = (label, {})
                order.append(app_id)
            prev_label, rows = apps[app_id]
            if prev_label != label:
                raise ParseError(
                    f"label for app {app_id!r} changed to {label!r}", line=lineno
                )
            if iteration in rows:
                raise ParseError(
                    f"duplicate iteration {iteration} for app {app_id!r}",
                    line=lineno,
                )
            rows[iteration] = vals

    traces = []
    for app_id in order:
        label, rows = apps[app_id]
        expected = set(range(len(rows)))
        if set(rows) != expected:
            raise ParseError(
                f"app {app_id!r} iterations are not contiguous from 0"
            )
        vals = np.array([rows[i] for i in range(len(rows))], dtype=np.int64)
        traces.append(
            HpcTrace(
                app_id=app_id,
                label=label,
                interval_ms=10,
                counters=counters,
                values=vals,
            )
        )
    return Dataset(tuple(traces), seed=0, provenance="ingested")
