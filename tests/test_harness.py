import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from hmdlab.cli import main
from hmdlab.errors import ConfigurationError, MappingError
from hmdlab.experiments import (
    ALGOS,
    ExperimentConfig,
    _aggregate,
    _attack_seed,
    emit_plot_data,
    run,
    write_report,
)
from hmdlab.models import FeatureView, TrainedClassifier, TreeNode
from hmdlab.traces import (
    Dataset,
    HpcTrace,
    default_profile,
    generate_synthetic_dataset,
    write_perf_csv,
)

# Small-but-real settings so end-to-end recipes finish in seconds.
FAST = dict(
    seeds=(3,),
    n_benign=40,
    n_malware=40,
    n_test_per_class=10,
    iterations=5,
    probe_per_class=40,
    epochs=120,
)


def _fast(recipe, **kw):
    return ExperimentConfig(recipe=recipe, **{**FAST, **kw})


# ---------------------------------------------------------------------------
# Config


def test_config_defaults_valid_for_every_recipe():
    from hmdlab.experiments import RECIPES

    for recipe in RECIPES:
        cfg = ExperimentConfig(recipe=recipe)
        assert cfg.seeds == (7, 8, 9, 10, 11)


def test_config_rejects_unknown_recipe_and_keys():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(recipe="teleport")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"recipe": "baseline", "volume": 11})
    with pytest.raises(ConfigurationError):
        ExperimentConfig(recipe="baseline", seeds=())


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recipe": "attack", "seeds": [1, 2], "epsilon": 0.5}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.recipe == "attack"
    assert cfg.seeds == (1, 2)
    assert cfg.epsilon == 0.5
    assert cfg.n_benign == 300  # untouched default


# ---------------------------------------------------------------------------
# Recipes


def test_combinatorics_recipe():
    report = run(ExperimentConfig(recipe="combinatorics"))
    res = report["results"]["report"]
    assert res["n_h"] == "6195"
    assert res["n_c_digits"] == 1865
    assert report["results"]["sweep"][-1]["n_h"] == 4087975
    assert report["recipe"] == "combinatorics"
    assert report["tool"] == "hmdlab"


def test_baseline_recipe_structure():
    report = run(_fast("baseline"))
    per_seed = report["results"]["per_seed"]
    assert set(per_seed) == {3}
    for algo in ("decision_tree", "neural_network"):
        clean = per_seed[3][algo]["clean"]
        assert 0.0 <= clean["accuracy"] <= 1.0
    agg = report["results"]["aggregate"]
    assert "mean" in agg["decision_tree"]["clean"]["accuracy"]


def test_attack_seed_full_evasion_leaves_precision_drop_undefined():
    """A victim that flags the clean malware but nothing after the attack has
    no attacked precision, so the drop is undefined rather than a crash."""

    def trace(app_id, label, branch_misses):
        return HpcTrace(app_id, label, 10, ("branch-misses",), [[branch_misses]])

    # Malware iff branch-misses <= 100; the attack pushes it far above.
    root = TreeNode(p_malware=0.5, n=2)
    root.feature, root.threshold = 0, 100.0
    root.left, root.right = TreeNode(1.0, 1), TreeNode(0.0, 1)
    view = FeatureView(("branch-misses",), np.zeros(1), np.ones(1))
    victim = TrainedClassifier("decision_tree", view, root, training_seed=0)
    benign = trace("b0", "benign", 500)
    ctx = SimpleNamespace(
        test=Dataset((trace("m0", "malware", 10), benign)),
        test_benign=[benign],
        attacked_malware=lambda: [trace("m0", "malware", 900)],
        surrogate=lambda: SimpleNamespace(agreement=1.0),
        victim=lambda algo: victim,
    )
    out = _attack_seed(ctx)
    for algo in ALGOS:
        assert out[algo]["clean"]["precision"] == 1.0
        assert out[algo]["attacked"]["precision"] is None
        assert out[algo]["precision_drop"] is None
        assert _aggregate({3: out})[algo]["precision_drop"] is None


def test_resilience_recipe_restores_accuracy():
    report = run(_fast("resilience", extras=(1_000_000, 2_000_000, 4_000_000)))
    levels = report["results"]["per_seed"][3]["levels"]
    assert len(levels) == 3
    for row in levels:
        assert row["mtd_accuracy"] >= row["attacked_accuracy"]


def test_mixed_recipe_structure():
    report = run(_fast("mixed"))
    out = report["results"]["per_seed"][3]
    assert set(out) == {"tree_on_A_network_on_B", "network_on_A_tree_on_B"}
    for v in out.values():
        assert 0.0 <= v["accuracy"] <= 1.0


def test_pool_sweep_recipe_structure():
    report = run(_fast("pool_sweep", sizes=(2, 3), n_groups=3))
    res = report["results"]
    assert len(res["groups"]) == 3
    for algo in ("decision_tree", "neural_network"):
        assert [e["size"] for e in res[algo]] == [2, 3]


def test_csv_ingestion_path(tmp_path):
    data = generate_synthetic_dataset(default_profile(iterations=5), 30, 30, 1)
    csv_path = tmp_path / "traces.csv"
    write_perf_csv(data, csv_path)
    cfg = _fast("baseline", csv_path=str(csv_path), n_test_per_class=5)
    report = run(cfg)
    assert report["config"]["csv_path"] == str(csv_path)
    assert set(report["results"]["per_seed"]) == {3}


# ---------------------------------------------------------------------------
# Determinism / report writing


def test_run_is_deterministic():
    a, b = run(_fast("baseline")), run(_fast("baseline"))
    a.pop("wall_clock_s"), b.pop("wall_clock_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_write_report_atomic_name(tmp_path):
    report = run(ExperimentConfig(recipe="combinatorics"))
    path = write_report(report, str(tmp_path / "out"))
    assert path.endswith("report-combinatorics.json")
    assert json.load(open(path))["recipe"] == "combinatorics"
    assert not os.path.exists(path + ".tmp")


# ---------------------------------------------------------------------------
# Plot data


def test_plot_data_projections():
    report = run(ExperimentConfig(recipe="combinatorics"))
    rows = emit_plot_data(report, "hpc-sweep")
    series = {r[0] for r in rows}
    assert series == {"n_h", "n_c_log10"}
    base = run(_fast("baseline"))
    rows = emit_plot_data(base, "metric-bars")
    assert ("decision_tree/clean", "accuracy") in {(r[0], r[1]) for r in rows}


def test_plot_data_mismatch_errors():
    report = run(ExperimentConfig(recipe="combinatorics"))
    with pytest.raises(MappingError):
        emit_plot_data(report, "resilience")
    with pytest.raises(MappingError):
        emit_plot_data(report, "no-such-figure")


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_report(tmp_path, capsys):
    rc = main(["run", "combinatorics", "--out", str(tmp_path)])
    assert rc == 0
    path = capsys.readouterr().out.strip()
    assert path == str(tmp_path / "report-combinatorics.json")
    obj = json.load(open(path))
    assert obj["results"]["report"]["n_h"] == "6195"


def test_cli_run_honors_flag_overrides(tmp_path):
    rc = main(["run", "combinatorics", "--ht", "10", "--rmax", "2", "--out", str(tmp_path)])
    assert rc == 0
    obj = json.load(open(tmp_path / "report-combinatorics.json"))
    assert obj["results"]["report"]["n_h"] == "55"  # C(10,1)+C(10,2)
    assert obj["config"]["h_t"] == 10


def test_cli_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HMDLAB_OUT", str(tmp_path))
    rc = main(["run", "combinatorics"])
    assert rc == 0
    assert (tmp_path / "report-combinatorics.json").exists()


def test_cli_stdout_when_no_out_dir(capsys, monkeypatch):
    monkeypatch.delenv("HMDLAB_OUT", raising=False)
    rc = main(["run", "combinatorics"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"]["report"]["n_h"] == "6195"


def test_cli_plot_data(tmp_path, capsys):
    main(["run", "combinatorics", "--out", str(tmp_path)])
    capsys.readouterr()
    report_path = str(tmp_path / "report-combinatorics.json")
    rc = main(["plot-data", report_path, "--figure", "hpc-sweep"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "series,x,y"
    assert len(out) > 1
    csv_out = tmp_path / "plot.csv"
    assert main(["plot-data", report_path, "--figure", "hpc-sweep", "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("series,x,y")


def test_cli_plot_data_mismatch_exit_code(tmp_path, capsys):
    main(["run", "combinatorics", "--out", str(tmp_path)])
    report_path = str(tmp_path / "report-combinatorics.json")
    rc = main(["plot-data", report_path, "--figure", "resilience"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_validate_config(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"recipe": "mtd", "seeds": [1]}))
    assert main(["validate-config", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"recipe": "mtd", "warp": 9}))
    assert main(["validate-config", str(bad)]) == 2
    assert main(["validate-config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "baseline", "--n-benign", "0"],
        ["run", "baseline", "--seed", "1", "--seed", "1"],
    ],
)
def test_cli_run_rejects_invalid_config(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_rejects_csv_missing_a_counter(tmp_path, capsys):
    # A valid perf CSV that lacks the counters the victim detector watches.
    lines = ["app_id,label,iteration,instructions"]
    for app in range(6):
        label = "malware" if app % 2 else "benign"
        lines += [f"app{app},{label},{i},{100 * app + i}" for i in range(3)]
    path = tmp_path / "few.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["run", "baseline", "--csv", str(path), "--n-test", "1", "--seed", "1"]
    assert main(argv) == 2
    assert "lacks counter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # 2^n_h would need about 5.2 GB and 137 GB.
        ["run", "combinatorics", "--ht", "1000"],
        ["run", "combinatorics", "--ht", "40", "--rmax", "40"],
    ],
)
def test_cli_run_rejects_pool_counts_too_large_to_compute(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "obj",
    [
        {"h_t": 1000},
        {"h_t": 40, "r_max": 40, "sweep_h_t": [40]},
        {"sweep_h_t": [20, 1000]},
    ],
)
def test_cli_validate_config_rejects_too_many_classifiers(obj, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recipe": "combinatorics", **obj}))
    assert main(["validate-config", str(path)]) == 2
    assert "exceed the limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj",
    [
        {"n_benign": 0},
        {"hidden": [], "sizes": [9]},
        {"hidden": []},
        {"sizes": [9]},
        {"seeds": [1, 1]},
        {"seeds": [-1]},
        {"seeds": 1},
        {"epsilon": 0},
        {"surrogate_algos": ["nearest_neighbor"]},
        {"r_max": 30},
    ],
)
def test_cli_validate_config_rejects_what_run_rejects(obj, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recipe": "baseline", **obj}))
    assert main(["validate-config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"recipe": "baseline", **obj})
