import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import typlab
from typlab.config import config_as_dict, load_config, parse_config
from typlab.errors import TyplabError
from typlab.experiment import execute_run


def valid_raw():
    return {
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
        "output": {"directory": "out", "emit_trajectories": True, "emit_plot": False},
    }


def test_valid_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(valid_raw()))
    cfg = load_config(path)
    assert cfg.model.n == 60
    assert cfg.num_trajectories == 6
    assert cfg.time.points == 40
    assert cfg.output.emit_trajectories is True


def test_optional_diagonal_mode():
    # The model has one fixed diagonal convention: the key is not a field.
    raw = valid_raw()
    raw["model"]["v_diagonal"] = "zero"
    with pytest.raises(TyplabError, match="unknown field 'model.v_diagonal'"):
        parse_config(raw)


@pytest.mark.parametrize(
    "drop,needle",
    [
        (("model", "delta_e"), "model.delta_e"),
        (("time", "points"), "time.points"),
        (("output", "directory"), "output.directory"),
    ],
)
def test_missing_nested_field_named(drop, needle):
    raw = valid_raw()
    del raw[drop[0]][drop[1]]
    with pytest.raises(TyplabError, match=f"missing field '{needle}'"):
        parse_config(raw)


@pytest.mark.parametrize("hash_seed", ["1", "5"])
def test_first_missing_field_in_declaration_order(hash_seed):
    # With model.n and model.seed both missing, the error names model.n
    # whatever the string hash seed; set iteration once made it vary.
    script = (
        "import json, sys\n"
        "from typlab.config import parse_config\n"
        "raw = json.loads(sys.argv[1])\n"
        "del raw['model']['n'], raw['model']['seed']\n"
        "try:\n"
        "    parse_config(raw)\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(typlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(valid_raw())],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "missing field 'model.n'"


def test_echo_is_the_raw_document():
    assert config_as_dict(parse_config(valid_raw())) == valid_raw()


def test_missing_top_field_named():
    raw = valid_raw()
    del raw["base_seed"]
    with pytest.raises(TyplabError, match="missing field 'base_seed'"):
        parse_config(raw)


def test_unknown_field_rejected():
    raw = valid_raw()
    raw["modle"] = {}
    with pytest.raises(TyplabError, match="unknown field 'modle'"):
        parse_config(raw)


def test_unknown_model_field_rejected():
    raw = valid_raw()
    raw["model"]["bandwidth"] = 2.0
    with pytest.raises(TyplabError, match="unknown field 'model.bandwidth'"):
        parse_config(raw)


def _match(needle: str) -> str:
    """A bare needle is a field path, which the error quotes."""
    return needle if needle.startswith("field ") else f"field '{needle}'"


# Values that pass the type conversion and break a range rule of ModelSpec
# or ExperimentConfig.
RANGE_CASES = [
    pytest.param(lambda r: r["model"].__setitem__("n", 1), "model.n", id="n-below-2"),
    pytest.param(lambda r: r["model"].__setitem__("n", 61), "model.n", id="n-odd"),
    pytest.param(
        lambda r: r["model"].__setitem__("delta_e", 0.0), "model.delta_e", id="zero-delta_e"
    ),
    pytest.param(lambda r: r["model"].__setitem__("v_kind", "banded"), "model.v_kind", id="v_kind"),
    pytest.param(
        lambda r: r["model"].__setitem__("v_scale", -1.0), "model.v_scale", id="negative-v_scale"
    ),
    pytest.param(lambda r: r["model"].__setitem__("seed", -1), "model.seed", id="negative-seed"),
    (lambda r: r.__setitem__("M", 1), "M"),
    (lambda r: r.__setitem__("d", 1.5), "d"),
    (lambda r: r["time"].__setitem__("points", 1), "time.points"),
    (lambda r: r["time"].__setitem__("t_max", -3.0), "time.t_max"),
    (lambda r: r.__setitem__("base_seed", 2**64), "base_seed"),
    pytest.param(lambda r: r.__setitem__("d", -0.1), "field 'd'", id="negative-d"),
    pytest.param(
        lambda r: r["time"].__setitem__("t_max", 1e9),
        "field 'time.t_max' = 1e[+]09 reaches phases",
        id="phase-overflow-t_max",
    ),
    pytest.param(
        lambda r: r["time"].update(t_max=5e-324, points=3),
        "field 'time.t_max' must be > 0 and give a strictly increasing grid",
        id="subnormal-t_max",
    ),
    pytest.param(
        lambda r: r["output"].__setitem__("directory", ""),
        "field 'output.directory' must not be empty",
        id="empty-directory",
    ),
]


@pytest.mark.parametrize(
    "mutate,needle",
    [
        *RANGE_CASES,
        (lambda r: r["model"].__setitem__("n", "sixty"), "model.n"),
        (lambda r: r["output"].__setitem__("emit_plot", "yes"), "output.emit_plot"),
        (lambda r: r.__setitem__("M", True), "M"),
        pytest.param(
            lambda r: r["model"].__setitem__("v_scale", float("nan")),
            "field 'model.v_scale' must be finite",
            id="nan-v_scale",
        ),
        pytest.param(
            lambda r: r["model"].__setitem__("v_scale", float("inf")),
            "field 'model.v_scale' must be finite",
            id="inf-v_scale",
        ),
        pytest.param(
            lambda r: r["model"].__setitem__("delta_e", float("inf")),
            "field 'model.delta_e' must be finite",
            id="inf-delta_e",
        ),
        pytest.param(
            lambda r: r["time"].__setitem__("t_max", float("inf")),
            "field 'time.t_max' must be finite",
            id="inf-t_max",
        ),
        pytest.param(
            lambda r: r["time"].__setitem__("t_max", 10**400),
            "field 'time.t_max' must be finite",
            id="huge-int-t_max",
        ),
    ],
)
def test_invalid_values_named(mutate, needle):
    raw = valid_raw()
    mutate(raw)
    with pytest.raises(TyplabError, match=_match(needle)):
        parse_config(raw)


# Values of the wrong type: a config built in code meets the converters a
# parsed one meets.
TYPE_CASES = [
    pytest.param(lambda r: r.__setitem__("M", 2.5), "M", id="M-float"),
    pytest.param(lambda r: r.__setitem__("M", True), "M", id="M-bool"),
    pytest.param(lambda r: r.__setitem__("base_seed", "7"), "base_seed", id="base_seed-str"),
    pytest.param(lambda r: r.__setitem__("d", "0.1"), "d", id="d-str"),
    pytest.param(lambda r: r["time"].__setitem__("points", 2.5), "time.points", id="points-float"),
    pytest.param(
        lambda r: r["output"].__setitem__("emit_plot", "yes"), "output.emit_plot", id="emit_plot-str"
    ),
    pytest.param(lambda r: r["model"].__setitem__("seed", "7"), "model.seed", id="seed-str"),
    pytest.param(lambda r: r["model"].__setitem__("n", 200.0), "model.n", id="n-float"),
    # A section is built before the root converts its scalars, in code as at
    # parse, so the section's field is named first.
    pytest.param(
        lambda r: (r.__setitem__("d", "0.1"), r["time"].__setitem__("points", 2.5)),
        "time.points",
        id="d-str-and-points-float",
    ),
]


@pytest.mark.parametrize("mutate,needle", RANGE_CASES + TYPE_CASES)
def test_hand_built_config_fails_as_at_parse(tmp_path, monkeypatch, mutate, needle):
    # A config built in code passes the same rules, with the same message,
    # before any run starts: execute_run creates no directory.
    monkeypatch.chdir(tmp_path)
    valid = parse_config(valid_raw())
    raw = valid_raw()
    mutate(raw)
    with pytest.raises(TyplabError, match=_match(needle)) as parsed:
        parse_config(raw)
    with pytest.raises(TyplabError) as built:
        execute_run(
            replace(
                valid,
                model=replace(valid.model, **raw["model"]),
                d=raw["d"],
                num_trajectories=raw["M"],
                time=replace(valid.time, **raw["time"]),
                base_seed=raw["base_seed"],
                output=replace(valid.output, **raw["output"]),
            )
        )
    assert str(built.value) == str(parsed.value)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "field,value,kind",
    [("seed", "x", "an integer"), ("n", "sixty", "an integer"), ("delta_e", "0.1", "a number")],
)
def test_model_section_of_the_wrong_type_names_its_field(field, value, kind):
    # ModelSpec checks its types before it compares its fields, with parse's
    # message, so no bare ValueError or TypeError escapes.
    model = parse_config(valid_raw()).model
    with pytest.raises(TyplabError) as built:
        replace(model, **{field: value})
    assert str(built.value) == f"field 'model.{field}' must be {kind}, got {value!r}"
    raw = valid_raw()
    raw["model"][field] = value
    with pytest.raises(TyplabError) as parsed:
        parse_config(raw)
    assert str(parsed.value) == str(built.value)


def test_hand_built_config_writes_the_meta_of_its_parsed_twin(tmp_path, monkeypatch):
    # An int where a float belongs is stored as parse stores it, so the meta
    # echo reads "d": 0.0, "t_max": 30.0 and "delta_e": 1.0; each section
    # stores its own converted values, and the config holds it as passed.
    parsed = parse_config(valid_raw())
    time = replace(parsed.time, t_max=30)
    model = replace(parsed.model, delta_e=1)
    built = replace(parsed, model=model, d=0, time=time)
    raw = valid_raw()
    raw["d"], raw["time"]["t_max"], raw["model"]["delta_e"] = 0.0, 30.0, 1.0
    metas = []
    for name, config in (("built", built), ("parsed", parse_config(raw))):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        execute_run(config)
        metas.append((tmp_path / name / "out" / "meta").read_bytes())
    assert metas[0] == metas[1]
    echo = json.loads(metas[0])["config"]
    assert (echo["d"], echo["time"]["t_max"], echo["model"]["delta_e"]) == (0.0, 30.0, 1.0)
    assert {type(echo["d"]), type(echo["time"]["t_max"]), type(echo["model"]["delta_e"])} == {float}
    assert type(time.t_max) is float and built.time is time
    assert type(model.delta_e) is float and built.model is model


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": \n}')
    with pytest.raises(TyplabError, match="invalid JSON at line 3"):
        load_config(path)


def test_missing_file():
    with pytest.raises(TyplabError, match="cannot read config /nonexistent/cfg.json"):
        load_config("/nonexistent/cfg.json")


def test_dimension_beyond_physical_memory_fails_at_parse():
    raw = valid_raw()
    raw["model"]["n"] = 2_000_000
    tracemalloc.start()
    try:
        with pytest.raises(TyplabError, match="field 'model.n' = 2000000 needs about"):
            parse_config(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "sizes,needle",
    [
        ({"M": 10**12}, "field 'M' = 1000000000000 needs about"),
        ({"points": 10**12}, "field 'time.points' = 1000000000000 needs about"),
        ({"M": 10**9, "points": 10**9}, "field 'M' = 1000000000 needs about"),
    ],
)
def test_ensemble_beyond_physical_memory_fails_at_parse(sizes, needle):
    raw = valid_raw()
    raw["M"] = sizes.get("M", raw["M"])
    raw["time"]["points"] = sizes.get("points", raw["time"]["points"])
    tracemalloc.start()
    try:
        with pytest.raises(TyplabError, match=needle):
            parse_config(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
