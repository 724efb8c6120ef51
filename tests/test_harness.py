import json
import os
import time
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import stump
from hmdlab.cli import _build_parser, main
from hmdlab import experiments
from hmdlab.errors import ConfigurationError, DomainError, MappingError
from hmdlab.experiments import (
    ALGOS,
    FIGURES,
    RECIPES,
    ExperimentConfig,
    SeedContext,
    _aggregate,
    _attack_seed,
    _grouping_for,
    emit_plot_data,
    run,
    write_report,
)
from hmdlab.features import MAX_TREES
from hmdlab.models import MAX_DEPTH, MAX_EPOCHS, MAX_LAYERS
from hmdlab.mtd import POLICIES, evaluate_pool_sweep
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
        return HpcTrace(app_id, label, ("branch-misses",), [[branch_misses]])

    # Malware iff branch-misses <= 100; the attack pushes it far above.
    victim = stump("branch-misses", 100, invert=True)
    benign = trace("b0", "benign", 500)
    ctx = SimpleNamespace(
        test=Dataset((trace("m0", "malware", 10), benign)),
        test_benign=[benign],
        attacked_malware=[trace("m0", "malware", 900)],
        surrogate=SimpleNamespace(agreement=1.0),
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


def test_pool_sweep_recipe_follows_the_policy():
    cfg = _fast("pool_sweep", sizes=(2, 3), n_groups=3, policy="priority")
    res = run(cfg)["results"]
    ctx = SeedContext(cfg, cfg.seeds[0])
    grouping = _grouping_for(cfg, ctx.train)
    attacked = Dataset(tuple(ctx.attacked_malware))
    for algo in ALGOS:
        assert res[algo] == evaluate_pool_sweep(
            ctx.train, attacked, grouping, algo, "priority", sizes=[2, 3],
            seeds=list(cfg.seeds), tree_params=cfg.tree_params,
            network_params=cfg.network_params,
        )


def test_csv_ingestion_path(tmp_path):
    data = generate_synthetic_dataset(default_profile(iterations=5), 30, 30, 1)
    csv_path = tmp_path / "traces.csv"
    write_perf_csv(data, csv_path)
    cfg = _fast("baseline", csv_path=str(csv_path), n_test_per_class=5)
    report = run(cfg)
    assert report["config"]["csv_path"] == str(csv_path)
    assert set(report["results"]["per_seed"]) == {3}


def test_csv_is_parsed_once_per_run(tmp_path, monkeypatch):
    data = generate_synthetic_dataset(default_profile(iterations=5), 30, 30, 1)
    csv_path = tmp_path / "traces.csv"
    write_perf_csv(data, csv_path)
    parse, paths = experiments.parse_perf_csv, []

    def counted(path):
        paths.append(path)
        return parse(path)

    monkeypatch.setattr(experiments, "parse_perf_csv", counted)
    cfg = _fast("baseline", seeds=(3, 4), csv_path=str(csv_path), n_test_per_class=5)
    report = run(cfg)
    assert paths == [str(csv_path)]
    assert set(report["results"]["per_seed"]) == {3, 4}


def _csv_results(tmp_path, recipe, datasets, **kw):
    """The `results` of `recipe` on each dataset, ingested from a CSV."""
    out = []
    for i, ds in enumerate(datasets):
        path = tmp_path / f"traces-{i}.csv"
        write_perf_csv(ds, path)
        cfg = _fast(recipe, csv_path=str(path), n_test_per_class=5, **kw)
        out.append(json.dumps(run(cfg)["results"], sort_keys=True))
    return out


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_csv_column_order_does_not_change_results(recipe, tmp_path):
    data = generate_synthetic_dataset(default_profile(iterations=5), 30, 30, 1)
    perm = np.random.default_rng(0).permutation(len(data.counters))
    shuffled = Dataset(tuple(
        HpcTrace(t.app_id, t.label, tuple(np.array(t.counters)[perm]),
                 t.values[:, perm])
        for t in data.traces
    ))
    first, second = _csv_results(tmp_path, recipe, (data, shuffled),
                                 sizes=(2, 3), n_groups=3)
    assert first == second


@pytest.mark.parametrize("scale", [2, 1024])
def test_csv_counts_times_a_power_of_two_do_not_change_baseline(scale, tmp_path):
    # Standardization and tree thresholds scale exactly by a power of two.
    data = generate_synthetic_dataset(default_profile(iterations=5), 30, 30, 1)
    scaled = Dataset(tuple(
        HpcTrace(t.app_id, t.label, t.counters, t.values * scale) for t in data.traces
    ))
    first, second = _csv_results(tmp_path, "baseline", (data, scaled))
    assert first == second


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


def test_write_report_failure_leaves_no_tmp_and_keeps_the_old_report(tmp_path):
    out = tmp_path / "out"
    path = write_report({"recipe": "mtd", "results": 1}, str(out))
    with pytest.raises(TypeError):
        write_report({"recipe": "mtd", "results": object()}, str(out))
    assert os.listdir(out) == ["report-mtd.json"]
    assert json.load(open(path))["results"] == 1


def test_aggregate_of_a_leaf_that_is_none_in_any_seed_is_none():
    per_seed = {1: {"drop": 0.5, "n": 2}, 2: {"drop": None, "n": 4}}
    assert _aggregate(per_seed) == {"drop": None, "n": {"mean": 3.0, "stddev": 1.0}}


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


def test_every_figure_names_a_recipe():
    for figure, recipes in FIGURES.items():
        assert set(recipes) <= set(RECIPES), figure


def test_plot_data_mismatch_errors():
    report = run(ExperimentConfig(recipe="combinatorics"))
    with pytest.raises(MappingError):
        emit_plot_data(report, "resilience")
    with pytest.raises(MappingError):
        emit_plot_data(report, "no-such-figure")
    for bad in (None, {"sweep": [{}]}, {"sweep": [{"h_t": 20, "n_h": "x"}]}):
        with pytest.raises(MappingError):
            emit_plot_data({"recipe": "combinatorics", "results": bad}, "hpc-sweep")
    with pytest.raises(MappingError):
        emit_plot_data({"recipe": "combinatorics"}, "hpc-sweep")


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers() | st.sampled_from([10**400, -(10**400)]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# One results body each figure reads; the property edits parts of it.
_FIGURE_RESULTS = {
    "metric-bars": {
        "aggregate": {"decision_tree": {"clean": {"accuracy": {"mean": 0.9}}}}
    },
    "pool-accuracy": {algo: [{"size": 2, "mean_accuracy": 0.9}] for algo in ALGOS},
    "mixed-accuracy": {"aggregate": {"mixed": {"accuracy": {"mean": 0.9}}}},
    "resilience": {"aggregate": {"levels": [{
        "extra_branch_misses": {"mean": 0},
        "attacked_accuracy": {"mean": 0.5},
        "mtd_accuracy": {"mean": 0.9},
    }]}},
    "hpc-sweep": {"sweep": [{"h_t": 1, "n_h": "6195", "n_c_log10": 1.0}]},
}
_HUGE_N_H = {"sweep": [{"h_t": 1, "n_h": 10**400, "n_c_log10": 1}]}


@st.composite
def _edited(draw, body):
    """`body` with some of its parts swapped for arbitrary JSON."""
    if draw(st.integers(0, 5)) == 0:
        return draw(_JSON)
    if isinstance(body, dict):
        return {k: draw(_edited(v)) for k, v in body.items()}
    if isinstance(body, list):
        return [draw(_edited(v)) for v in body]
    return body


@st.composite
def _figure_reports(draw):
    figure = draw(st.sampled_from(sorted(FIGURES)))
    recipe = draw(st.sampled_from(FIGURES[figure]))
    return figure, {"recipe": recipe, "results": draw(_edited(_FIGURE_RESULTS[figure]))}


@settings(max_examples=200, deadline=None)
@given(_figure_reports())
@example(("hpc-sweep", {"recipe": "combinatorics", "results": _HUGE_N_H}))
def test_plot_data_maps_any_results_or_raises_mapping_error(figure_report):
    figure, report = figure_report
    try:
        rows = emit_plot_data(report, figure)
    except MappingError:
        return
    assert all(isinstance(row, tuple) and len(row) == 3 for row in rows)


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


def test_cli_run_flags_are_config_fields():
    # `command` belongs to the top-level parser; --config and --out are read
    # apart from the overrides.
    dests = set(vars(_build_parser().parse_args(["run", "baseline"])))
    assert dests - {"command", "config", "out"} <= set(
        ExperimentConfig.__dataclass_fields__
    )


def test_cli_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HMDLAB_OUT", str(tmp_path))
    rc = main(["run", "combinatorics"])
    assert rc == 0
    assert (tmp_path / "report-combinatorics.json").exists()


def test_cli_out_flag_wins_over_env_out_dir(tmp_path, monkeypatch, capsys):
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("HMDLAB_OUT", str(env_dir))
    assert main(["run", "combinatorics", "--out", str(flag_dir)]) == 0
    assert capsys.readouterr().out.strip() == str(flag_dir / "report-combinatorics.json")
    assert (flag_dir / "report-combinatorics.json").exists()
    assert not env_dir.exists()


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
    stdout = capsys.readouterr().out
    out = stdout.strip().split("\n")
    assert out[0] == "series,x,y"
    assert len(out) > 1
    csv_out = tmp_path / "plot.csv"
    assert main(["plot-data", report_path, "--figure", "hpc-sweep", "--out", str(csv_out)]) == 0
    assert csv_out.read_text() == stdout


def test_cli_plot_data_mismatch_exit_code(tmp_path, capsys):
    main(["run", "combinatorics", "--out", str(tmp_path)])
    report_path = str(tmp_path / "report-combinatorics.json")
    rc = main(["plot-data", report_path, "--figure", "resilience"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_plot_data_rejects_a_number_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"recipe": "combinatorics", "results": _HUGE_N_H}))
    assert str(10**400) in path.read_text()  # the integer written out in full
    assert main(["plot-data", str(path), "--figure", "hpc-sweep"]) == 2
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


def test_cli_run_pool_sweep_rejects_more_groups_than_csv_counters(tmp_path, capsys):
    data = generate_synthetic_dataset(default_profile(iterations=3), 6, 6, 1)
    counters = ("branch-misses", "cpu-cycles", "instructions", "LLC-loads")
    idx = [data.counters.index(c) for c in counters]
    path = tmp_path / "four.csv"
    write_perf_csv(Dataset(tuple(
        HpcTrace(t.app_id, t.label, counters, t.values[:, idx]) for t in data.traces
    )), path)
    argv = ["run", "pool_sweep", "--csv", str(path), "--n-test", "1", "--seed", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"n_groups is 5, but {path} has only 4 counters" in err


def test_cli_run_attack_rejects_a_csv_whose_coupled_delta_passes_int64(
    tmp_path, capsys
):
    # sdev(branch-misses) is about 4.5e18, so the coupled instructions delta
    # 6 * ceil(sdev) does not fit in int64.
    data = generate_synthetic_dataset(default_profile(iterations=4), 15, 15, 1)
    j = data.counters.index("branch-misses")
    traces = []
    for t in data.traces:
        values = t.values.copy()
        values[:, j] = 9 * 10**18 if t.label == "benign" else 0
        traces.append(HpcTrace(t.app_id, t.label, t.counters, values))
    path = tmp_path / "huge.csv"
    write_perf_csv(Dataset(tuple(traces)), path)
    argv = ["run", "attack", "--csv", str(path), "--n-test", "3", "--seed", "1",
            "--epochs", "5", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "'instructions' events than a counter holds" in capsys.readouterr().err


def test_cli_run_with_prune_fraction_near_one_grows_on_one_row(tmp_path):
    # 300 training rows: round(0.99999 * 300) would leave none to grow on.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recipe": "baseline", "prune_fraction": 0.99999, **FAST}))
    assert main(["validate-config", str(path)]) == 0
    assert main(["run", "baseline", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_cli_run_rejects_a_csv_cell_over_the_field_limit(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(
        "app_id,label,iteration,instructions\n" + "a" * 200_000 + ",benign,0,1\n"
    )
    argv = ["run", "baseline", "--csv", str(path), "--n-test", "1", "--seed", "1"]
    assert main(argv) == 2
    assert "error: line 2:" in capsys.readouterr().err


def test_cli_run_rejects_a_csv_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"app_id,label,iteration,instructions\na,benign,0,1\xff2\n")
    assert main(["run", "baseline", "--csv", str(path), "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# The three commands that read a JSON file, each missing only its path
_JSON_ARGVS = [
    ["validate-config"],
    ["run", "baseline", "--config"],
    ["plot-data", "--figure", "hpc-sweep"],
]


@pytest.mark.parametrize("body", [b"{not json", b"5", b"[]", b"\xff\xfe"])
@pytest.mark.parametrize("argv", _JSON_ARGVS)
def test_cli_rejects_a_file_that_is_not_a_json_object(argv, body, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(body)
    assert main(argv + [str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _JSON_ARGVS, ids=lambda argv: argv[0])
def test_cli_rejects_json_nested_past_the_parser_recursion_limit(argv, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not JSON: maximum recursion")


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
        {"surrogate_algos": ["decision_tree"]},
        {"extras": [1000000000000000000]},
        {"max_inject": {"branch-mises": 5}},
        {"max_inject": {"cpu-cycles": 5}},
        {"recipe": "priority_sweep"},
        {"hidden": 16},
        {"sizes": 4},
        {"extras": 0},
        {"sweep_h_t": 20},
        {"out_dir": "out"},  # the directory comes from --out or HMDLAB_OUT
    ],
)
def test_cli_validate_config_rejects_what_run_rejects(obj, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"recipe": "baseline", **obj}))
    assert main(["validate-config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"recipe": "baseline", **obj})


# Pool counts below 2: h_t = r_max = 1 gives one classifier, in the report
# and in the sweep.
_ONE_CLASSIFIER = [
    {"recipe": "combinatorics", "h_t": 1, "r_max": 1, "single_h": 1},
    {"recipe": "combinatorics", "r_max": 1, "sweep_h_t": [1, 20]},
]


@pytest.mark.parametrize("obj", _ONE_CLASSIFIER)
def test_validate_config_rejects_a_pool_count_below_two_as_run_does(
        obj, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    for argv in (["validate-config", str(path)],
                 ["run", "combinatorics", "--config", str(path)]):
        assert main(argv) == 2
        assert "need at least 2 classifiers" in capsys.readouterr().err
    with pytest.raises(DomainError, match="need at least 2 classifiers"):
        ExperimentConfig.from_dict(obj)
    # the recipe itself, handed the values unchecked, fails the same way
    fields = {**asdict(ExperimentConfig()), **obj}
    with pytest.raises(DomainError, match="need at least 2 classifiers"):
        RECIPES["combinatorics"](SimpleNamespace(**fields))


# Values for config fields, valid and invalid mixed.
_CONFIG_DICTS = st.fixed_dictionaries(
    {},
    optional={
        "recipe": st.sampled_from([*RECIPES, "priority_sweep", "teleport", 3, ["mtd"]]),
        "n_benign": st.sampled_from([-1, 0, 1, 50, 51, 300, 2.5, "300", True]),
        "epsilon": st.sampled_from([0, 0.5, 1, 1.5, -0.1, float("nan"), "1"]),
        "sizes": st.lists(st.integers(0, 7), max_size=3) | st.just(4),
        "seeds": st.lists(st.integers(-1, 3), max_size=3) | st.just("7"),
        "extras": st.lists(st.sampled_from([-1, 0, 10**6, 10**18, 0.5]), max_size=3),
        "h_t": st.sampled_from([0, 1, 2, 3, 20, 2.5, "20", True]),
        "r_max": st.sampled_from([0, 1, 2, 4, 21]),
        "single_h": st.sampled_from([0, 1, 2, 8, 21]),
        "sweep_h_t": st.lists(st.sampled_from([0, 1, 2, 3, 20, 30]), max_size=3)
        | st.just(20),
        "max_inject": st.none()
        | st.dictionaries(
            st.sampled_from(["branch-misses", "LLC-load-misses", "instructions",
                             "branch-instructions", "branch-mises", "cpu-cycles"]),
            st.sampled_from([0, 5, 2.5, -1, float("inf"), "5", False]),
            max_size=3,
        )
        | st.just(["branch-misses"]),
    },
)


# C(h_t, single_h) has more digits than Python's int-to-str limit allows
_PAST_STR_LIMIT = {"recipe": "combinatorics", "h_t": 16000, "r_max": 1,
                   "single_h": 8000, "sweep_h_t": []}


# A classifier sum that passes MAX_CLASSIFIERS at its second term, and a
# subset count C(h_t, single_h) of 90,307 digits. Summed in full, the first
# takes 47 s and its count passes Python's int-to-str limit; the second
# takes 1.6 s to report.
_HUGE_COUNTS = [
    {"recipe": "combinatorics", "h_t": 15000, "r_max": 15000, "single_h": 1,
     "sweep_h_t": []},
    {"recipe": "combinatorics", "h_t": 300000, "r_max": 1, "single_h": 150000,
     "sweep_h_t": []},
]


@pytest.mark.parametrize("obj", _HUGE_COUNTS)
def test_validate_config_and_run_reject_huge_counts_at_once(obj, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    for argv in (["validate-config", str(path)],
                 ["run", "combinatorics", "--config", str(path), "--out", str(tmp_path)]):
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 1
        assert "exceed" in capsys.readouterr().err
    assert not list(tmp_path.glob("report-*"))


# An int too large for a float in each field whose check once converted it
_PAST_FLOAT = [
    {"recipe": "mtd", "lr": 10**400},
    {"recipe": "mtd", "prune_fraction": 10**400},
    {"recipe": "pool_sweep", "corr_threshold": 10**400},
    {"recipe": "attack", "max_inject": {"branch-misses": 10**400}},
    {"recipe": "resilience", "extras": [10**400]},
]


@pytest.mark.parametrize("obj", _PAST_FLOAT, ids=lambda obj: list(obj)[1])
def test_validate_config_rejects_an_int_too_large_for_a_float(obj, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert main(["validate-config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# A hidden width, and apps x iterations, past their caps: numpy would refuse
# the arrays ("array is too big") once the run reached them. One hidden layer
# past the cap, of width 1, so that a run the check misses ends fast.
_SMALL = {"recipe": "baseline", "seeds": [7], "n_benign": 40, "n_malware": 40,
          "n_test_per_class": 10, "iterations": 5}
_PAST_CAPS = [
    {**_SMALL, "hidden": [4611686018427387904]},
    {**_SMALL, "iterations": 4611686018427387904},
    {**_SMALL, "probe_per_class": 10**7},
    {**_SMALL, "hidden": [1] * (MAX_LAYERS + 1)},
]


@pytest.mark.parametrize("obj", _PAST_CAPS, ids=["hidden", "iterations", "probe", "layers"])
def test_validate_config_and_run_reject_sizes_past_their_caps(obj, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    for argv in (["validate-config", str(path)],
                 ["run", "baseline", "--config", str(path), "--out", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("report-*"))


# One past each cap on a run's length. A run that the checks miss would fit
# for hours, so the recipes are stubbed out: only the config checks end a run.
_RUN_CAPS = {"max_depth": MAX_DEPTH, "epochs": MAX_EPOCHS, "importance_trees": MAX_TREES}
_PAST_RUN_CAPS = [{**_SMALL, name: cap + 1} for name, cap in _RUN_CAPS.items()]


@pytest.mark.parametrize("name", sorted(_RUN_CAPS))
def test_validate_config_and_run_reject_run_lengths_past_their_caps(
        name, monkeypatch, tmp_path, capsys):
    for recipe in RECIPES:
        monkeypatch.setitem(RECIPES, recipe, lambda cfg: {})
    obj = {**_SMALL, name: _RUN_CAPS[name] + 1}
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(obj)
    ExperimentConfig.from_dict({**_SMALL, name: _RUN_CAPS[name]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    for argv in (["validate-config", str(path)],
                 ["run", "baseline", "--config", str(path), "--out", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_validate_config_and_run_agree_on_generated_configs(monkeypatch, tmp_path):
    # combinatorics runs for real (under 0.01 s), so its run-time rejections show
    for name in RECIPES:
        if name != "combinatorics":
            monkeypatch.setitem(RECIPES, name, lambda cfg: {})
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"

    @settings(max_examples=100, deadline=None)
    @given(_CONFIG_DICTS)
    @example(_ONE_CLASSIFIER[0])
    @example(_ONE_CLASSIFIER[1])
    @example(_PAST_STR_LIMIT)
    @example(_HUGE_COUNTS[0])
    @example(_HUGE_COUNTS[1])
    @example(_PAST_FLOAT[0])
    @example(_PAST_FLOAT[1])
    @example(_PAST_FLOAT[2])
    @example(_PAST_FLOAT[3])
    @example(_PAST_FLOAT[4])
    @example(_PAST_CAPS[0])
    @example(_PAST_CAPS[1])
    @example(_PAST_CAPS[3])
    @example(_PAST_RUN_CAPS[0])
    @example(_PAST_RUN_CAPS[1])
    @example(_PAST_RUN_CAPS[2])
    def agree(obj):
        path.write_text(json.dumps(obj))
        recipe = obj.get("recipe")
        if not (isinstance(recipe, str) and recipe in RECIPES):
            recipe = "baseline"  # argparse would refuse it before the file
        argv = ["run", recipe, "--config", str(path), "--out", str(out)]
        assert main(["validate-config", str(path)]) == main(argv)

    agree()


@st.composite
def _tiny_configs(draw):
    """A config that every recipe runs in milliseconds."""
    n_benign, n_malware, n_groups = (draw(st.integers(2, hi)) for hi in (6, 6, 4))
    return {
        "seeds": [draw(st.integers(0, 99))],
        "n_benign": n_benign,
        "n_malware": n_malware,
        "n_test_per_class": draw(st.integers(1, min(n_benign, n_malware) - 1)),
        "iterations": draw(st.integers(1, 3)),
        "probe_per_class": draw(st.integers(1, 6)),
        "epochs": draw(st.integers(1, 3)),
        "importance_trees": draw(st.integers(1, 2)),
        "max_depth": draw(st.integers(1, 4)),
        "min_leaf": draw(st.integers(1, 3)),
        "prune_fraction": draw(st.sampled_from([0.0, 0.2, 0.9])),
        "hidden": draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)),
        "epsilon": draw(st.sampled_from([0.5, 1.0])),
        "extras": draw(st.lists(st.sampled_from([0, 10**6]), max_size=2)),
        "n_groups": n_groups,
        "group_r_max": draw(st.integers(1, 3)),
        "sizes": draw(st.lists(st.integers(2, n_groups), min_size=1, max_size=2)),
        "policy": draw(st.sampled_from(POLICIES)),
    }


# Apps per class and iterations of a CSV to ingest in place of the synthetic draw
_TINY_CSVS = st.none() | st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3))


def test_cli_runs_every_recipe_on_tiny_configs_to_a_report_or_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(RECIPES)), _tiny_configs(), _TINY_CSVS)
    def runs(recipe, obj, csv):
        path.write_text(json.dumps(obj))
        argv = ["run", recipe, "--config", str(path), "--out", str(out)]
        if csv is not None:
            n_benign, n_malware, iterations = csv
            data = generate_synthetic_dataset(default_profile(iterations=iterations),
                                              n_benign, n_malware, obj["seeds"][0])
            write_perf_csv(data, tmp_path / "perf.csv")
            argv += ["--csv", str(tmp_path / "perf.csv")]
        code = main(argv)  # an exception escaping main fails the example
        err = capsys.readouterr().err
        assert (code, err) == (0, "") or (code == 2 and err.startswith("error:"))

    runs()
