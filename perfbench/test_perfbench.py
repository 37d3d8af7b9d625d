"""Tests of the benchmark itself: tracer arithmetic and patching, the
oracle's sensitivity, failure accounting and the generated config."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import oracle
import run as bench
import typlab.evolution
from tracer import Tracer, layer_metric_units
from typlab.cli import main as typlab_main
from typlab.config import load_config
from typlab.csvio import read_trajectories_csv, write_trajectories_csv

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_child_spans():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])

    def inner():
        clock["now"] += 2.0

    def outer():
        clock["now"] += 1.0
        traced_inner()
        traced_inner()
        clock["now"] += 3.0

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    tracer.begin_invocation()
    traced_outer()
    totals = tracer.invocation_totals()[0]
    assert totals["outer"] == (1, 4.0, 8.0)
    assert totals["inner"] == (2, 4.0, 4.0)


def test_patching_reaches_imported_names_and_tolerates_missing_targets(monkeypatch):
    original = typlab.evolution.sample_uniform_state
    monkeypatch.delattr(typlab.evolution, "expectations")
    tracer = Tracer()
    tracer.begin_invocation()
    with tracer.patched():
        assert typlab.evolution.sample_uniform_state is not original
        typlab.evolution.sample_uniform_state(4, 7)
    assert typlab.evolution.sample_uniform_state is original
    assert tracer.missing == ["evolution.expectations"]
    metrics = tracer.layer_metrics([1.0], [1.0])
    assert metrics["ensembles.sample_uniform_state.calls"] == 1
    assert metrics["rng.SeedStream.normal.calls"] == 1
    assert metrics["evolution.expectations.calls"] == 0
    assert sorted(metrics) == sorted(layer_metric_units())


def test_oracle_flags_a_trajectory_perturbed_by_1e_9(tmp_path):
    raw = json.loads((bench.ROOT / bench.SCENARIO_I).read_text())
    raw["model"]["n"] = 16
    raw["M"] = 3
    raw["time"]["points"] = 5
    raw["output"].update(directory=str(tmp_path / "out"), emit_plot=False)
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(raw))
    assert typlab_main(["run", "--config", str(config_path)]) == 0

    out = tmp_path / "out"
    expected = oracle.expected_outputs(load_config(config_path))
    assert oracle.check_outputs(out, expected) == []
    times, values = read_trajectories_csv(out / "trajectories.csv")
    values[1, 2] += 1e-9
    write_trajectories_csv(out / "trajectories.csv", times, values)
    problems = oracle.check_outputs(out, expected)
    assert len(problems) == 1 and "trajectories.csv values" in problems[0]


def test_raising_invocation_counts_as_failed(tmp_path):
    calls = []

    def flaky_main(argv):
        calls.append(argv)
        if len(calls) == 2:
            raise RuntimeError("boom")
        print("11/11 checks passed")
        return 0

    session = bench.Session("verify_small", 5, flaky_main, tmp_path)
    metrics, samples = bench.measure(session, seconds=0.0)
    assert (session.attempted, session.failed) == (1 + bench.MIN_TIMED, 1)
    assert "RuntimeError: boom" in session.problems[0]
    assert metrics["success_rate"][0] == pytest.approx(1 - 1 / session.attempted)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])


def test_large_n_config_loads_and_follows_the_scaling_rule(tmp_path):
    scenario = json.loads((bench.ROOT / bench.SCENARIO_I).read_text())
    path = tmp_path / "large.json"
    path.write_text(json.dumps(bench.large_n_config(scenario)))
    config = load_config(path)
    scale = scenario["model"]["n"] / config.model.n
    assert config.model.n == 1200
    assert config.model.delta_e == pytest.approx(0.0004165, rel=1e-15)
    assert config.model.v_scale == pytest.approx(5.625e-07, rel=1e-15)
    assert config.model.delta_e == scenario["model"]["delta_e"] * scale
    assert config.model.v_scale == scenario["model"]["v_scale"] * scale**2
    assert (config.num_trajectories, config.time.points, config.time.t_max) == (8, 20, 300.0)
    assert not config.output.emit_trajectories and not config.output.emit_plot


def test_benchmark_json_lists_the_traced_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layer_metric_units())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
