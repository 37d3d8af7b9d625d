"""Experiment configuration: a strict JSON schema mirroring the run
parameters.

The schema is the dataclasses themselves: the keys of each object are its
fields in declaration order, and each value is converted by the field's
annotated type.  Unknown keys are errors (they are usually typos in physics
parameters), every key is required, and :func:`parse_config` only converts
JSON to the types.  The range rules live in the types: :class:`ModelSpec`
checks the model, and :class:`ExperimentConfig` checks the rest when it is
built, the types of its scalar fields first (storing them converted, as
parse does), and last a bound on the run's size: its dense matrices, state
blocks and trajectory arrays must fit in physical memory.
``dataclasses.replace`` re-runs those checks, so a config changed in code
(``typlab run --seed``, ``--out``) passes the same rules as a parsed one.
All failures raise :class:`TyplabError` naming the offending field.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import TyplabError
from .models import ModelSpec
from .operators import PEAK_MATRICES

# Config keys that differ from the dataclass fields they fill.
_KEY_NAMES = {"num_trajectories": "M"}

# Propagation evaluates phases exp(-i E t); in double precision their
# rounding grows like 1e-16 * |E| t, so beyond 1e8 rad it exceeds ~1e-8.
MAX_PHASE = 1e8
# Beyond PEAK_MATRICES n x n matrices, propagation holds STATE_BLOCKS complex
# (n, M) blocks (the states, their eigenbasis coefficients, the phased
# coefficients and the evolved +1 rows with their squares) and aggregation
# TRAJECTORY_ARRAYS float (M, T) arrays (the trajectories, their centred
# copy and its square).
STATE_BLOCKS = 4
TRAJECTORY_ARRAYS = 3


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

    def __post_init__(self):
        # Parse's converters first, so a wrong type fails as a parsed one does
        # and a right one is stored as parse stores it (an int d as a float).
        # The nested sections are rebuilt, not changed, as others may share them.
        for name, value in _converted(self, "").items():
            object.__setattr__(self, name, value)
        for name in ("model", "time", "output"):
            section = getattr(self, name)
            object.__setattr__(self, name, replace(section, **_converted(section, f"{name}.")))
        model, d, m = self.model, self.d, self.num_trajectories
        t_max, points = self.time.t_max, self.time.points
        # The variance bound is derived for d >= 0 only, and the closed forms
        # target small deviations, whose mean expectation value stays well
        # below the extreme eigenvalues.  NaN fails the comparison too.
        if not 0 <= d < 1:
            raise TyplabError(
                f"field 'd' must satisfy 0 <= d < 1 (the variance bound needs d >= 0), got {d}"
            )
        if m < 2:
            raise TyplabError(f"field 'M' must be >= 2 (variance needs it), got {m}")
        if points < 2:
            raise TyplabError(f"field 'time.points' must be >= 2, got {points}")
        # Largest |energy| estimate: the H0 bandwidth plus n times the typical
        # perturbation element (the constant kind's only nonzero eigenvalue).
        e_max = (model.n - 1) * model.delta_e + model.n * math.sqrt(model.v_scale)
        if t_max * e_max > MAX_PHASE:
            raise TyplabError(
                f"field 'time.t_max' = {t_max:g} reaches phases of {t_max * e_max:.3g} rad "
                f"(estimated max |energy| {e_max:.3g}), above {MAX_PHASE:.0e}, where their "
                "rounding exceeds ~1e-8"
            )
        if not 0 <= self.base_seed < 2**64:
            raise TyplabError(f"field 'base_seed' must fit in 64 bits, got {self.base_seed}")
        # An empty path would resolve to the working directory.
        if not self.output.directory:
            raise TyplabError("field 'output.directory' must not be empty")
        # The first of n, M and points whose arrays take the run past physical
        # memory is named.
        memory, footprint, n = _physical_memory(), 0, model.n
        for name, value, nbytes in (
            ("model.n", n, PEAK_MATRICES * 16 * n**2),
            ("M", m, STATE_BLOCKS * 16 * n * m),
            ("time.points", points, TRAJECTORY_ARRAYS * 8 * m * points),
        ):
            footprint += nbytes
            if memory is not None and footprint > memory:
                raise TyplabError(
                    f"field '{name}' = {value} needs about {footprint / 2**30:.3g} GiB, "
                    f"more than the {memory / 2**30:.3g} GiB of physical memory"
                )
        # The grid is built only once its size is known to fit; besides
        # t_max <= 0, a subnormal t_max fails here, since np.linspace then
        # repeats times.
        if np.any(np.diff(self.times) <= 0):
            raise TyplabError(
                f"field 'time.t_max' must be > 0 and give a strictly increasing grid of "
                f"time.points = {points} times, got {t_max:g}"
            )

    @property
    def times(self) -> np.ndarray:
        """The run's grid: ``time.points`` equidistant times from 0 to ``time.t_max``."""
        return np.linspace(0.0, self.time.t_max, self.time.points)

    def with_overrides(
        self, out_dir: str | None = None, base_seed: int | None = None
    ) -> "ExperimentConfig":
        """A copy with the given output directory and base seed, checked as at parse."""
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=out_dir))
        if base_seed is not None:
            cfg = replace(cfg, base_seed=base_seed)
        return cfg


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TyplabError(f"field '{path}' must be an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TyplabError(f"field '{path}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise TyplabError(f"field '{path}' must be finite, got {value!r}")
    return number


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise TyplabError(f"field '{path}' must be a string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise TyplabError(f"field '{path}' must be a boolean, got {value!r}")
    return value


# Scalar field annotation -> converter of a JSON value.
_SCALARS = {"int": _as_int, "float": _as_float, "str": _as_str, "bool": _as_bool}


def _converted(section, prefix: str) -> dict:
    """The scalar fields of a dataclass instance through parse's converters,
    each under its field path."""
    return {
        f.name: _SCALARS[f.type](getattr(section, f.name), prefix + _KEY_NAMES.get(f.name, f.name))
        for f in fields(section)
        if f.type in _SCALARS
    }


def _as_section(value, path: str, cls):
    """``cls`` built from the JSON object ``value`` at ``path`` ("" for the
    root).  Its keys are the fields of ``cls`` in declaration order, so the
    first missing one is always the same, and every value is converted by
    its field's annotated type."""
    if not isinstance(value, dict):
        where = f"field '{path}'" if path else "config root"
        raise TyplabError(f"{where} must be an object, got {type(value).__name__}")
    prefix = f"{path}." if path else ""
    keys = {_KEY_NAMES.get(f.name, f.name): f for f in fields(cls)}
    for key in value:
        if key not in keys:
            raise TyplabError(f"unknown field '{prefix}{key}'")
    for key in keys:
        if key not in value:
            raise TyplabError(f"missing field '{prefix}{key}'")
    kwargs = {f.name: _CONVERTERS[f.type](value[key], prefix + key) for key, f in keys.items()}
    try:
        return cls(**kwargs)
    except TyplabError as exc:
        if not path:  # the root's rules name their fields themselves
            raise
        raise TyplabError(f"field '{path}': {exc}") from exc


# Field annotation -> converter of a JSON value.
_CONVERTERS = _SCALARS | {
    c.__name__: partial(_as_section, cls=c) for c in (ModelSpec, TimeSettings, OutputSettings)
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Convert a parsed JSON document into an :class:`ExperimentConfig`,
    whose construction checks it."""
    return _as_section(raw, "", ExperimentConfig)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TyplabError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TyplabError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise TyplabError(f"config {path} is nested too deeply to parse") from exc
    return parse_config(raw)


def config_as_dict(config: ExperimentConfig) -> dict:
    """The JSON-shaped echo of a config (for run metadata)."""
    echo = asdict(config)
    echo["M"] = echo.pop("num_trajectories")
    return echo
