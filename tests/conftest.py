import numpy as np
import pytest

from hmdlab.models import FeatureView, TrainedClassifier, Tree
from hmdlab.traces import (
    Dataset,
    HpcTrace,
    default_profile,
    generate_synthetic_dataset,
)


@pytest.fixture(scope="session")
def small_dataset():
    """80/80 apps, 10 iterations each -- shared by the cheap unit tests."""
    return generate_synthetic_dataset(default_profile(iterations=10), 80, 80, 13)


@pytest.fixture(scope="session")
def tiny_profile():
    return default_profile(iterations=5)


def make_trace(app_id, label, counters, values):
    return HpcTrace(
        app_id=app_id,
        label=label,
        counters=tuple(counters),
        values=np.asarray(values, dtype=np.int64),
    )


def two_class_dataset(counters, benign_rows, malware_rows, n_apps=1):
    """Tiny hand-built dataset; rows are repeated per app."""
    traces = []
    for i in range(n_apps):
        traces.append(make_trace(f"b{i}", "benign", counters, benign_rows))
        traces.append(make_trace(f"m{i}", "malware", counters, malware_rows))
    return Dataset(tuple(traces))


def stump(counter, threshold, invert=False):
    """Depth-1 tree classifier on one raw counter: rows above `threshold`
    are malware, or benign when `invert` is set."""
    low, high = (1.0, 0.0) if invert else (0.0, 1.0)
    tree = Tree(
        feature=np.array([0, -1, -1]),
        threshold=np.array([float(threshold), np.nan, np.nan]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        p_malware=np.array([0.5, low, high]),
    )
    view = FeatureView((counter,), means=np.zeros(1), sdevs=np.ones(1))
    return TrainedClassifier("decision_tree", view, tree)
