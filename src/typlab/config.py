"""Experiment configuration: a strict JSON schema mirroring the run
parameters.

Unknown keys are errors (they are usually typos in physics parameters),
every key is required, and every value is type- and range-checked before
any work starts, including a bound on the dimension: a run's dense
matrices must fit in physical memory.  A base seed given as an override
(``typlab run --seed``) passes the same range check as the file's.  All
failures raise :class:`ConfigParseError` naming the offending field.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigParseError, TyplabError
from .models import ModelSpec
from .operators import PEAK_MATRICES

_MODEL_KEYS = {"n", "delta_e", "v_kind", "v_scale", "seed"}
_TIME_KEYS = {"t_max", "points"}
_OUTPUT_KEYS = {"directory", "emit_trajectories", "emit_plot"}
_TOP_KEYS = {"model", "d", "M", "time", "base_seed", "output"}

# Propagation evaluates phases exp(-i E t); in double precision their
# rounding grows like 1e-16 * |E| t, so beyond 1e8 rad it exceeds ~1e-8.
MAX_PHASE = 1e8


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class TimeSettings:
    t_max: float
    points: int


@dataclass(frozen=True)
class OutputSettings:
    directory: str
    emit_trajectories: bool
    emit_plot: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """One full experiment: model, deviation, ensemble size, grid, outputs."""

    model: ModelSpec
    d: float
    num_trajectories: int
    time: TimeSettings
    base_seed: int
    output: OutputSettings

    def with_overrides(
        self, out_dir: str | None = None, base_seed: int | None = None
    ) -> "ExperimentConfig":
        """A copy with the given output directory and base seed; the seed is
        range-checked as at parse."""
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=out_dir))
        if base_seed is not None:
            cfg = replace(cfg, base_seed=_check_base_seed(base_seed))
        return cfg


def _check_base_seed(base_seed: int) -> int:
    if not 0 <= base_seed < 2**64:
        raise ConfigParseError(f"field 'base_seed' must fit in 64 bits, got {base_seed}")
    return base_seed


def _require_keys(section: dict, path: str, required: set):
    for key in section:
        if key not in required:
            raise ConfigParseError(f"unknown field '{path}{key}'")
    for key in required:
        if key not in section:
            raise ConfigParseError(f"missing field '{path}{key}'")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigParseError(f"field '{path}' must be an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParseError(f"field '{path}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigParseError(f"field '{path}' must be finite, got {value!r}")
    return number


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigParseError(f"field '{path}' must be a string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigParseError(f"field '{path}' must be a boolean, got {value!r}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an :class:`ExperimentConfig`."""
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config root must be an object, got {type(raw).__name__}")
    _require_keys(raw, "", _TOP_KEYS)

    model_raw = raw["model"]
    if not isinstance(model_raw, dict):
        raise ConfigParseError("field 'model' must be an object")
    _require_keys(model_raw, "model.", _MODEL_KEYS)
    try:
        model = ModelSpec(
            n=_as_int(model_raw["n"], "model.n"),
            delta_e=_as_float(model_raw["delta_e"], "model.delta_e"),
            v_kind=_as_str(model_raw["v_kind"], "model.v_kind"),
            v_scale=_as_float(model_raw["v_scale"], "model.v_scale"),
            seed=_as_int(model_raw["seed"], "model.seed"),
        )
    except ConfigParseError:
        raise
    except TyplabError as exc:
        raise ConfigParseError(f"field 'model': {exc}") from exc
    footprint, memory = PEAK_MATRICES * 16 * model.n**2, _physical_memory()
    if memory is not None and footprint > memory:
        raise ConfigParseError(
            f"field 'model.n' = {model.n} needs about {footprint / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )

    d = _as_float(raw["d"], "d")
    if not 0 <= d < 1:
        raise ConfigParseError(
            f"field 'd' must satisfy 0 <= d < 1 (the variance bound needs d >= 0), got {d}"
        )

    m = _as_int(raw["M"], "M")
    if m < 2:
        raise ConfigParseError(f"field 'M' must be >= 2 (variance needs it), got {m}")

    time_raw = raw["time"]
    if not isinstance(time_raw, dict):
        raise ConfigParseError("field 'time' must be an object")
    _require_keys(time_raw, "time.", _TIME_KEYS)
    t_max = _as_float(time_raw["t_max"], "time.t_max")
    points = _as_int(time_raw["points"], "time.points")
    if not t_max > 0:
        raise ConfigParseError(f"field 'time.t_max' must be > 0, got {t_max}")
    if points < 2:
        raise ConfigParseError(f"field 'time.points' must be >= 2, got {points}")
    # Largest |energy| estimate: the H0 bandwidth plus n times the typical
    # perturbation element (the constant kind's only nonzero eigenvalue).
    e_max = (model.n - 1) * model.delta_e + model.n * math.sqrt(model.v_scale)
    if t_max * e_max > MAX_PHASE:
        raise ConfigParseError(
            f"field 'time.t_max' = {t_max:g} reaches phases of {t_max * e_max:.3g} rad "
            f"(estimated max |energy| {e_max:.3g}), above {MAX_PHASE:.0e}, where their "
            "rounding exceeds ~1e-8"
        )

    base_seed = _check_base_seed(_as_int(raw["base_seed"], "base_seed"))

    output_raw = raw["output"]
    if not isinstance(output_raw, dict):
        raise ConfigParseError("field 'output' must be an object")
    _require_keys(output_raw, "output.", _OUTPUT_KEYS)
    output = OutputSettings(
        directory=_as_str(output_raw["directory"], "output.directory"),
        emit_trajectories=_as_bool(output_raw["emit_trajectories"], "output.emit_trajectories"),
        emit_plot=_as_bool(output_raw["emit_plot"], "output.emit_plot"),
    )

    return ExperimentConfig(
        model=model,
        d=d,
        num_trajectories=m,
        time=TimeSettings(t_max=t_max, points=points),
        base_seed=base_seed,
        output=output,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw)


def config_as_dict(config: ExperimentConfig) -> dict:
    """The JSON-shaped echo of a config (for run metadata)."""
    return {
        "model": {
            "n": config.model.n,
            "delta_e": config.model.delta_e,
            "v_kind": config.model.v_kind,
            "v_scale": config.model.v_scale,
            "seed": config.model.seed,
        },
        "d": config.d,
        "M": config.num_trajectories,
        "time": {"t_max": config.time.t_max, "points": config.time.points},
        "base_seed": config.base_seed,
        "output": {
            "directory": config.output.directory,
            "emit_trajectories": config.output.emit_trajectories,
            "emit_plot": config.output.emit_plot,
        },
    }
