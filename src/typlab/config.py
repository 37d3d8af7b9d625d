"""Experiment configuration: a strict JSON schema mirroring the run
parameters.

The schema is the dataclasses themselves: the keys of each object are its
fields in declaration order.  Unknown and repeated keys are errors (they
are usually typos in physics parameters), every key is required, and
:func:`parse_config` only matches keys to fields.  Each type converts its
own scalar fields by their annotated types, stores them converted (an int
``d`` as a float) and checks its ranges: :class:`ModelSpec` the model, and
:class:`ExperimentConfig` the rest, last a bound on the run's size: its
dense matrices, state and node blocks and trajectory arrays must fit in
physical memory.  A section is built before the config that holds it, so
a section's error comes before one of a root scalar, in code as at parse.
``dataclasses.replace`` re-runs those checks, so a config changed in code
(``typlab run --seed``, ``--out``) passes the same rules as a parsed one.
All failures raise :class:`TyplabError` naming the offending field path.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import TyplabError
from .evolution import GRID_BLOCK
from .operators import PEAK_MATRICES
from .rng import MASK64

# Config keys that differ from the dataclass fields they fill.
_KEY_NAMES = {"num_trajectories": "M"}

# Propagation evaluates phases exp(-i E t); in double precision their
# rounding grows like 1e-16 * |E| t, so beyond 1e8 rad it exceeds ~1e-8.
MAX_PHASE = 1e8
# Propagation holds H, U and U_+ (its n/2 rows where A = +1), 2.5 of the
# PEAK_MATRICES n x n matrices, STATE_BLOCKS complex (n, M) blocks (the
# states, their eigenbasis coefficients and the conjugated states or the
# squares of their norms) and temporaries of NODE_BLOCKS complex (r, n)
# blocks of r <= min(T, GRID_BLOCK) nodes (the node phases, the last
# block's while they form, one state's phased coefficients, its evolved +1
# rows and the last state's, and numpy's ufunc buffers); aggregation holds
# TRAJECTORY_ARRAYS float (M, T) arrays (trajectories, centred, squared).
STATE_BLOCKS = 3
NODE_BLOCKS = 4
TRAJECTORY_ARRAYS = 3


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


V_KINDS = ("gaussian", "constant")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one model system, the config's ``model`` section.

    ``v_scale`` is the mean squared magnitude of the perturbation's
    off-diagonal elements for the gaussian kind, and the squared common
    value for the constant kind.  The perturbation diagonal is real
    gaussian of the same scale for the gaussian kind, and the common
    constant for the constant kind.
    """

    n: int
    delta_e: float
    v_kind: str
    v_scale: float
    seed: int

    def __post_init__(self):
        _store_converted(self, "model.")
        if self.n < 2:
            raise TyplabError(f"field 'model.n' must be >= 2, got {self.n}")
        if self.n % 2:
            raise TyplabError(f"field 'model.n' must be even, got {self.n}")
        if not self.delta_e > 0:
            raise TyplabError(f"field 'model.delta_e' must be > 0, got {self.delta_e}")
        if self.v_kind not in V_KINDS:
            raise TyplabError(f"field 'model.v_kind' must be one of {V_KINDS}, got {self.v_kind!r}")
        if self.v_scale < 0:
            raise TyplabError(f"field 'model.v_scale' must be >= 0, got {self.v_scale}")
        if not 0 <= self.seed <= MASK64:
            raise TyplabError(f"field 'model.seed' must fit in 64 bits, got {self.seed}")


@dataclass(frozen=True)
class TimeSettings:
    t_max: float
    points: int

    def __post_init__(self):
        _store_converted(self, "time.")


@dataclass(frozen=True)
class OutputSettings:
    directory: str
    emit_trajectories: bool
    emit_plot: bool

    def __post_init__(self):
        _store_converted(self, "output.")


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
        _store_converted(self, "")
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
        if not 0 <= self.base_seed <= MASK64:
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
            (
                "time.points",
                points,
                TRAJECTORY_ARRAYS * 8 * m * points + NODE_BLOCKS * 16 * n * min(points, GRID_BLOCK),
            ),
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


def _store_converted(section, prefix: str) -> None:
    """Convert each scalar field of a config dataclass by its annotated type,
    under its field path ``prefix`` + key, and store the result."""
    for f in fields(section):
        if f.type in _SCALARS:
            path = prefix + _KEY_NAMES.get(f.name, f.name)
            object.__setattr__(section, f.name, _SCALARS[f.type](getattr(section, f.name), path))


# Section annotation -> the type its JSON object builds.
_SECTIONS = {c.__name__: c for c in (ModelSpec, TimeSettings, OutputSettings)}


def _as_section(value, path: str, cls):
    """``cls`` built from the JSON object ``value`` at ``path`` ("" for the
    root).  Its keys are the fields of ``cls`` in declaration order, so the
    first missing one is always the same; ``cls`` converts and checks the
    values."""
    if not isinstance(value, dict):
        where = f"field '{path}'" if path else "config root"
        raise TyplabError(f"{where} must be an object, got {type(value).__name__}")
    prefix = f"{path}." if path else ""
    keys = {_KEY_NAMES.get(f.name, f.name): f for f in fields(cls)}
    # Unknown keys first, in document order, then missing ones in field order.
    for key in (*value, *keys):
        if key not in keys or key not in value:
            raise TyplabError(f"{'unknown' if key in value else 'missing'} field '{prefix}{key}'")
    return cls(
        **{
            f.name: _as_section(value[key], prefix + key, _SECTIONS[f.type])
            if f.type in _SECTIONS
            else value[key]
            for key, f in keys.items()
        }
    )


def parse_config(raw: dict) -> ExperimentConfig:
    """Match a parsed JSON document's keys to an :class:`ExperimentConfig`'s
    fields; its construction converts and checks the values."""
    return _as_section(raw, "", ExperimentConfig)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; json would keep a repeated key's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise TyplabError(f"config key {key!r} appears more than once")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TyplabError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
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
