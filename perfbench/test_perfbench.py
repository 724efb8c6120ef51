"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("attack_mtd", "pool_sweep", "detect_stream")


def _bench(workload, trace):
    """Run a smoke configuration; return (info record, result record, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), time.perf_counter() - t0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_and_traced_digest_matches_untraced(workload):
    info, result, seconds = _bench(workload, trace=0)
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert seconds < 30
    traced_info, traced, seconds = _bench(workload, trace=1)
    # The traced run also compares its own untraced and traced operations.
    assert traced["correct"] and traced["failed"] == 0
    assert traced_info["results_sha256"] == info["results_sha256"]
    assert seconds < 30


def _snapshot():
    import hmdlab.experiments  # noqa: F401  (loads every layer module)

    snap = {}
    for name, mod in sys.modules.items():
        if name == "hmdlab" or name.startswith("hmdlab."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        snap[(name, attr, key)] = member
    return snap


def test_uninstall_restores_every_wrapped_attribute():
    from tracing import TARGETS, Tracer

    import hmdlab.experiments as experiments
    import hmdlab.models as models

    before = _snapshot()
    tracer = Tracer()
    with tracer:
        # Wrapped where callers look the names up, not only where defined.
        assert experiments.run is not before[("hmdlab.experiments", "run")]
        assert models.fit_network_arrays.__wrapped__ is before[
            ("hmdlab.models", "fit_network_arrays")]
        import hmdlab.attack as attack
        assert attack.fit_network_arrays is models.fit_network_arrays
        assert len(tracer._patches) > len(TARGETS)
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_benchmark_json_names_what_the_harness_reports():
    import run
    from tracing import LAYER_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
