"""Experiment orchestration: build the model, draw the trajectory states,
propagate them over the config's checked time grid, aggregate their
mean and variance, and emit the output files; the stages pass plain arrays.

Outputs per run directory:

* ``stats.csv`` -- ``t,mean,variance,bound`` (the bound column repeats the
  time-independent analytic value);
* ``trajectories.csv`` (optional) -- ``t,traj_0,...,traj_{M-1}``;
* ``meta`` -- JSON record of the config echo, RNG algorithm identifier,
  seed derivation rule, all derived seeds, the observable's trace per
  dimension ``c1`` and its number ``n_plus`` of +1 entries (with n they fix
  every spectral moment of a sign vector), the analytic ensemble values, and
  the run's health: the relative unitarity and reconstruction residuals of
  the eigendecomposition, ``start_band_excursions``, the number of
  trajectories whose t = 0 value lies outside the start band
  ``mean_expectation +/- 3 sqrt(variance_bound)``, and
  ``propagation_error_bound``, the a-priori bound on |a_i(t) - exact| of
  the kernel's node interpolation, in exact arithmetic (0.0 when every
  grid time is propagated directly; see :mod:`typlab.evolution`);
* ``plot.svg`` (optional) -- trajectories, mean, and the variance inset.

Each file is written under a temporary name and renamed, so a failed run
leaves no partial file and, failing before its statistics exist, no directory.
A run with a start-band excursion also logs one warning naming the
trajectory indices; ``meta["seeds"]`` maps each index to its seed.

The same config writes byte-identical files on one BLAS build and thread
count.  Across thread counts the BLAS sums in another order: on
``scenario_i``, ``OPENBLAS_NUM_THREADS=1`` and ``=2`` differed in 18945 of
20000 trajectory cells, by at most 9.1e-15.  The node interpolation of the
kernel moves values from those of per-grid-point propagation by at most
``propagation_error_bound`` plus rounding; on the shipped configs they
differ by at most 8e-15.
"""
from __future__ import annotations

import json
import logging
import os
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_as_dict
from .csvio import write_stats_csv, write_trajectories_csv
from .ensembles import OmegaParams
from .evolution import propagation_error_bound, run_ensemble, trajectory_omegas
from .models import OBSERVABLE_STREAM, PERTURBATION_STREAM, build_model
from .operators import eigendecompose
from .rng import RNG_ALGORITHM, SEED_DERIVATION, child_seed
from .stats import (
    mean_expectation_analytic,
    norm_variance_analytic,
    sample_stats,
    variance_bound,
)
from .svgplot import render_figure

logger = logging.getLogger(__name__)


def _write_atomically(path: Path, write, *args) -> None:
    """``write(tmp, *args)`` to a temporary name beside ``path``, then rename
    it into place; a failed write leaves no file behind."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp, *args)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def execute_run(config: ExperimentConfig) -> list[Path]:
    """Run one experiment and return the paths of the outputs it wrote, in
    write order.  The config's output directory is created and every file
    written after aggregation, single-writer.
    """
    out = Path(config.output.directory)

    model = build_model(config.model)
    dec = eigendecompose(model.hamiltonian)
    params = OmegaParams(d=config.d, observable=model.observable)
    times = config.times
    omegas = trajectory_omegas(params, config.num_trajectories, config.base_seed)
    error_bound = propagation_error_bound(dec.eigenvalues, times, omegas)
    trajectories = run_ensemble(dec, params, omegas, times)
    del omegas  # nothing after propagation reads the states
    mean, variance = sample_stats(trajectories)
    bound = variance_bound(config.d, config.model.n)
    stats = {"t": times, "mean": mean, "variance": variance, "bound": np.full_like(times, bound)}

    c1 = params.c1
    start_mean = mean_expectation_analytic(config.d, c1)
    start_spread = 3.0 * np.sqrt(bound)
    # The grid starts at t = 0, so column 0 holds the start values.
    outside = np.flatnonzero(np.abs(trajectories[:, 0] - start_mean) > start_spread)
    if outside.size:
        logger.warning(
            "%d of %d trajectories start outside %.4f +/- %.4f: indices %s",
            outside.size,
            config.num_trajectories,
            start_mean,
            start_spread,
            outside.tolist(),
        )
    meta = {
        "config": config_as_dict(config),
        "rng_algorithm": RNG_ALGORITHM,
        "seed_derivation": SEED_DERIVATION,
        "seeds": {
            "observable": child_seed(config.model.seed, OBSERVABLE_STREAM),
            "perturbation": child_seed(config.model.seed, PERTURBATION_STREAM),
            "trajectories": [
                child_seed(config.base_seed, i) for i in range(config.num_trajectories)
            ],
        },
        "observable": {"c1": c1, "n_plus": int(np.count_nonzero(params.observable > 0))},
        "analytic": {
            "norm_variance": norm_variance_analytic(config.d, c1, config.model.n),
            "mean_expectation": start_mean,
            "variance_bound": bound,
        },
        "health": {
            "unitarity_residual": dec.unitarity_residual,
            "reconstruction_residual": dec.reconstruction_residual,
            "start_band_excursions": int(outside.size),
            "propagation_error_bound": error_bound,
        },
    }

    out.mkdir(parents=True, exist_ok=True)
    written = [out / "stats.csv"]
    _write_atomically(written[-1], write_stats_csv, stats)

    if config.output.emit_trajectories:
        written.append(out / "trajectories.csv")
        _write_atomically(written[-1], write_trajectories_csv, times, trajectories)

    written.append(out / "meta")
    meta_text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    _write_atomically(written[-1], Path.write_text, meta_text)

    if config.output.emit_plot:
        written.append(out / "plot.svg")
        shown = (times, trajectories) if config.output.emit_trajectories else None
        _write_atomically(written[-1], Path.write_text, render_figure(stats, shown))

    return written
