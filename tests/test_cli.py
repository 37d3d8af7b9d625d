import json
import logging
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import typlab
from typlab.cli import main
from typlab.csvio import read_stats_csv, write_stats_csv, write_trajectories_csv
from typlab.errors import TyplabError
from typlab.operators import RECONSTRUCTION_RTOL, UNITARITY_RTOL

REPO_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
SMALL_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "verify_small.json"


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = {
        "model": {
            "n": 60,
            "delta_e": 8.33e-3,
            "v_kind": "gaussian",
            "v_scale": 2.25e-4,
            "seed": 7,
        },
        "d": 0.1,
        "M": 6,
        "time": {"t_max": 30.0, "points": 40},
        "base_seed": 5,
        "output": {
            "directory": str(tmp_path / "default_out"),
            "emit_trajectories": True,
            "emit_plot": True,
        },
    }
    for key, value in overrides.items():
        raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def stats_table(times: np.ndarray, variance: np.ndarray, bound: float) -> dict:
    """The stats table of a zero mean, keyed by column as ``write_stats_csv`` takes it."""
    return {
        "t": times,
        "mean": np.zeros_like(times),
        "variance": variance,
        "bound": np.full_like(times, bound),
    }


@pytest.mark.parametrize("config", REPO_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load(config):
    from typlab.config import load_config

    load_config(config)


def test_run_writes_outputs_and_is_byte_stable(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("stats.csv", "trajectories.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "meta").exists()
    xml.dom.minidom.parse(str(out1 / "plot.svg"))


@pytest.mark.parametrize(
    "emit,written",
    [
        (True, ["stats.csv", "trajectories.csv", "meta", "plot.svg"]),
        (False, ["stats.csv", "meta"]),
    ],
)
def test_run_prints_the_written_files_in_order(tmp_path, capsys, emit, written):
    output = {"directory": "unused", "emit_trajectories": emit, "emit_plot": emit}
    cfg = write_config(tmp_path, output=output)
    out = tmp_path / "a"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "".join(f"wrote {out / name}\n" for name in written)


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out", str(out1)])
    main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "17"])
    assert (out1 / "stats.csv").read_bytes() != (out2 / "stats.csv").read_bytes()
    meta = json.loads((out2 / "meta").read_text())
    assert meta["config"]["base_seed"] == 17


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_override_out_of_range_fails(tmp_path, capsys, seed):
    out = tmp_path / "never"
    argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(out), "--seed", seed]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "field 'base_seed' must fit in 64 bits" in err
    assert not out.exists()


def test_run_into_existing_file_fails(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert "Traceback" not in err
    assert taken.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def test_plot_into_missing_directory_fails(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    write_stats_csv(stats, stats_table(np.array([0.0, 1.0]), np.zeros(2), 1.0))
    missing = tmp_path / "missing"
    assert main(["plot", "--stats", str(stats), "--out", str(missing / "fig.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.csv"]


@pytest.mark.parametrize(
    "out", ["", ".", "x/", ".."], ids=["empty", "dot", "trailing-separator", "parent"]
)
def test_plot_to_a_path_naming_no_file_fails(tmp_path, capsys, monkeypatch, out):
    stats = tmp_path / "stats.csv"
    write_stats_csv(stats, stats_table(np.array([0.0, 1.0]), np.zeros(2), 1.0))
    monkeypatch.chdir(tmp_path)
    assert main(["plot", "--stats", str(stats), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "names no file" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.csv"]


def test_meta_records_reproducibility_data(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "a"
    main(["run", "--config", str(cfg), "--out", str(out)])
    meta = json.loads((out / "meta").read_text())
    assert meta["rng_algorithm"] == "philox4x64-10/u53/box-muller"
    assert "mix64" in meta["seed_derivation"]
    assert len(meta["seeds"]["trajectories"]) == 6
    assert meta["observable"] == {"c1": 0.0, "n_plus": 60 // 2}
    assert meta["analytic"]["variance_bound"] > 0
    health = meta["health"]
    assert 0.0 <= health["unitarity_residual"] <= UNITARITY_RTOL
    assert 0.0 <= health["reconstruction_residual"] <= RECONSTRUCTION_RTOL


def test_out_of_band_start_counted_and_logged_once(tmp_path, monkeypatch, caplog):
    import typlab.evolution
    from typlab.config import load_config
    from typlab.ensembles import StateVector
    from typlab.models import build_model
    from typlab.rng import child_seed

    cfg = write_config(tmp_path)
    # Trajectory 1 starts from a +1 eigenvector of A, at (1 + d)^2 / (1 + d^2)
    # = 1.198, outside the start band 0.198 +/- 0.460 of n = 60.
    plus = np.zeros(60, dtype=complex)
    plus[int(np.argmax(build_model(load_config(cfg).model).observable))] = 1.0
    outlier = child_seed(5, 1)
    sample = typlab.evolution.sample_uniform_state
    monkeypatch.setattr(
        typlab.evolution,
        "sample_uniform_state",
        lambda n, seed: StateVector(plus) if seed == outlier else sample(n, seed),
    )
    out = tmp_path / "a"
    with caplog.at_level(logging.WARNING, logger="typlab"):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "meta").read_text())
    assert meta["health"]["start_band_excursions"] == 1
    assert meta["seeds"]["trajectories"][1] == outlier
    messages = [r.getMessage() for r in caplog.records if r.name.startswith("typlab")]
    assert messages == ["1 of 6 trajectories start outside 0.1980 +/- 0.4602: indices [1]"]


def test_shipped_config_run_counts_no_excursion(tmp_path, caplog):
    out = tmp_path / "a"
    with caplog.at_level(logging.WARNING, logger="typlab"):
        assert main(["run", "--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
    meta = json.loads((out / "meta").read_text())
    assert meta["health"]["start_band_excursions"] == 0
    assert [r for r in caplog.records if r.name.startswith("typlab")] == []


def test_failed_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    import typlab.experiment

    def failing(op):
        raise TyplabError(f"eigh did not converge at dim {op.dim}")

    monkeypatch.setattr(typlab.experiment, "eigendecompose", failing)
    out = tmp_path / "never"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_leaves_only_its_output_files(tmp_path):
    out = tmp_path / "a"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "meta",
        "plot.svg",
        "stats.csv",
        "trajectories.csv",
    ]


def test_forced_identical_seeds_zero_variance(tmp_path, monkeypatch):
    import typlab.evolution

    monkeypatch.setattr(typlab.evolution, "child_seed", lambda base, i: 424242)
    cfg = write_config(tmp_path, M=2)
    out = tmp_path / "twin"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    data = read_stats_csv(out / "stats.csv")
    assert np.array_equal(data["variance"], np.zeros(40))


def test_missing_field_reports_and_fails(tmp_path, capsys):
    path = tmp_path / "broken.json"
    raw = json.loads(write_config(tmp_path).read_text())
    del raw["time"]["t_max"]
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    assert "time.t_max" in capsys.readouterr().err


def test_negative_deviation_fails_at_parse(tmp_path, capsys):
    cfg = write_config(tmp_path, d=-0.1)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "field 'd'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "default_out").exists()


def test_huge_t_max_fails_at_parse(tmp_path, capsys):
    cfg = write_config(tmp_path, time={"t_max": 1e300, "points": 40})
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "time.t_max" in err
    assert "Traceback" not in err
    assert not (tmp_path / "default_out").exists()


def test_subnormal_t_max_fails_at_parse(tmp_path, capsys):
    # np.linspace(0, 5e-324, 3) repeats a time
    cfg = write_config(tmp_path, time={"t_max": 5e-324, "points": 3})
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: field 'time.t_max'") and err.count("\n") == 1
    assert not (tmp_path / "default_out").exists()


@pytest.mark.parametrize(
    "content, needle",
    [(b"\xff\xfe{}", "cannot read config"), (b"[" * 1000, "is nested too deeply")],
    ids=["not-utf8", "deep-nesting"],
)
def test_unreadable_config_fails_cleanly(tmp_path, capsys, content, needle):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    assert main(["verify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err and str(cfg) in err


@pytest.mark.parametrize("where", ["config", "--out"])
def test_empty_output_directory_fails(tmp_path, capsys, monkeypatch, where):
    # An empty directory would resolve to the working directory.
    directory, extra = ("", []) if where == "config" else ("unused", ["--out", ""])
    output = {"directory": directory, "emit_trajectories": False, "emit_plot": False}
    cfg = write_config(tmp_path, output=output)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg)] + extra) == 1
    err = capsys.readouterr().err
    assert err == "error: field 'output.directory' must not be empty\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_plot_from_run_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "a"
    main(["run", "--config", str(cfg), "--out", str(out)])
    fig = tmp_path / "fig.svg"
    assert main(
        [
            "plot",
            "--stats",
            str(out / "stats.csv"),
            "--trajectories",
            str(out / "trajectories.csv"),
            "--out",
            str(fig),
        ]
    ) == 0
    xml.dom.minidom.parse(str(fig))


def test_plot_stats_only(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "a"
    main(["run", "--config", str(cfg), "--out", str(out)])
    fig = tmp_path / "fig.svg"
    assert main(["plot", "--stats", str(out / "stats.csv"), "--out", str(fig)]) == 0


def test_plot_empty_csv_fails(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["plot", "--stats", str(empty), "--out", str(tmp_path / "f.svg")]) == 1
    assert "empty" in capsys.readouterr().err



@pytest.mark.parametrize(
    "rows",
    [["0.0,0.1,0.2,0.3", "5e-324,0.2,0.2,0.3"], ["0.0,0.0,0.2,0.3", "1.0,5e-324,0.2,0.3"]],
    ids=["t", "mean"],
)
def test_plot_axis_span_of_subnormal_ulps(tmp_path, rows):
    # a tick step of a quarter of 5e-324 underflows to 0
    stats = tmp_path / "stats.csv"
    stats.write_text("t,mean,variance,bound\n" + "\n".join(rows) + "\n")
    fig = tmp_path / "fig.svg"
    assert main(["plot", "--stats", str(stats), "--out", str(fig)]) == 0
    xml.dom.minidom.parse(str(fig))


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_plot_non_finite_stats_fails_cleanly(tmp_path, capsys, cell):
    stats = tmp_path / "stats.csv"
    stats.write_text(f"t,mean,variance,bound\n0.0,0.1,0.2,0.3\n1.0,{cell},0.2,0.3\n")
    fig = tmp_path / "fig.svg"
    assert main(["plot", "--stats", str(stats), "--out", str(fig)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite value") and "Traceback" not in err
    assert not fig.exists()


def test_plot_rejects_trajectories_on_another_grid(tmp_path, capsys):
    stats, trajectories = tmp_path / "stats.csv", tmp_path / "trajectories.csv"
    write_stats_csv(stats, stats_table(np.linspace(0.0, 10.0, 5), np.ones(5), 2.0))
    write_trajectories_csv(trajectories, np.linspace(0.0, 300.0, 5), np.zeros((2, 5)))
    fig = tmp_path / "fig.svg"
    argv = ["plot", "--stats", str(stats), "--trajectories", str(trajectories)]
    assert main(argv + ["--out", str(fig)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(stats) in err and str(trajectories) in err
    assert not fig.exists()


@pytest.mark.parametrize("flag", ["--stats", "--trajectories"])
def test_plot_non_utf8_csv_fails_cleanly(tmp_path, capsys, flag):
    stats, trajectories = tmp_path / "stats.csv", tmp_path / "trajectories.csv"
    times = np.linspace(0.0, 1.0, 5)
    write_stats_csv(stats, stats_table(times, np.ones(5), 2.0))
    write_trajectories_csv(trajectories, times, np.zeros((2, 5)))
    bad = {"--stats": stats, "--trajectories": trajectories}[flag]
    lines = bad.read_bytes().split(b"\n")
    lines[3] = b"\xff" + lines[3]
    bad.write_bytes(b"\n".join(lines))
    fig = tmp_path / "fig.svg"
    argv = ["plot", "--stats", str(stats), "--trajectories", str(trajectories)]
    assert main(argv + ["--out", str(fig)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1
    assert not fig.exists()


def test_typlab_loads_no_scipy(tmp_path):
    # scipy is installed beside numpy but is no dependency: importing it
    # would add its own memory and a second BLAS thread pool to every run.
    model = {"n": 8, "delta_e": 0.1, "v_kind": "gaussian", "v_scale": 1e-3, "seed": 7}
    cfg = write_config(tmp_path, model=model)
    script = (
        "import sys\n"
        "import typlab.cli\n"
        "assert typlab.cli.main(['run', '--config', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(typlab.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script, str(cfg)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "default_out" / "plot.svg").is_file()
