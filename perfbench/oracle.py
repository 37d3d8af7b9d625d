"""Independent oracle for the files ``typlab run`` writes.

H, A and the initial states come from the program's public constructors
(``build_model``, ``sample_uniform_state``, ``make_omega``); everything
after that is recomputed here by a different route than the program's:
each state is propagated in the Schroedinger picture,
``omega(t) = U exp(-i w t) U^dagger omega``, with ``np.linalg.eigh`` of H,
and ``a(t) = Re <omega(t)|A|omega(t)>`` is evaluated in the original basis.
The sample mean, the unbiased sample variance and the time-independent
variance bound follow from those trajectories and from the spectrum of A.
"""
from __future__ import annotations

import numpy as np

from typlab.csvio import read_stats_csv, read_trajectories_csv
from typlab.ensembles import OmegaParams, make_omega, sample_uniform_state
from typlab.models import build_model
from typlab.rng import child_seed

TOLERANCE = 1e-12  # absolute, on every trajectory value and stats column
STATES_PER_BLOCK = 10  # bounds the (n, block * T) propagation buffer


def expected_outputs(config) -> dict[str, np.ndarray]:
    """Times, (M, T) trajectories, mean, variance and bound for a config."""
    model = build_model(config.model)
    h = np.asarray(model.hamiltonian.matrix)
    a = np.asarray(model.observable.matrix)
    n = h.shape[0]
    m = config.num_trajectories
    times = np.linspace(0.0, config.time.t_max, config.time.points)
    w, u = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(w, times))
    params = OmegaParams(d=config.d, observable=model.observable)
    coeffs = np.empty((n, m), dtype=np.complex128)
    for i in range(m):
        omega = make_omega(sample_uniform_state(n, child_seed(config.base_seed, i)), params)
        coeffs[:, i] = u.conj().T @ np.asarray(omega.amplitudes)

    values = np.empty((m, times.size))
    for lo in range(0, m, STATES_PER_BLOCK):
        block = coeffs[:, lo : lo + STATES_PER_BLOCK]
        k = block.shape[1]
        states = u @ (block[:, :, None] * phases[:, None, :]).reshape(n, k * times.size)
        a_states = a @ states
        values[lo : lo + k] = np.real(np.sum(states.conj() * a_states, axis=0)).reshape(k, -1)

    spectrum = np.linalg.eigvalsh(a)
    c4, c8 = float(np.mean(spectrum**4)), float(np.mean(spectrum**8))
    d = config.d
    bound = (
        1.0
        + 4 * d * c4**0.5
        + 6 * d**2 * c4
        + 4 * d**3 * c4**0.5 * (c4 * c8) ** 0.25
        + d**4 * (c4 * c8) ** 0.5
    ) / ((n + 1) * (1.0 + d**2) ** 2)
    return {
        "t": times,
        "trajectories": values,
        "mean": values.mean(axis=0),
        "variance": values.var(axis=0, ddof=1),
        "bound": np.full(times.size, bound),
    }


def _worst(got: np.ndarray, want: np.ndarray, label: str) -> tuple[float, str]:
    if got.shape != want.shape:
        return np.inf, f"{label}: shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(got - want), initial=0.0))
    return err, f"{label}: max |diff| = {err:.3e}"


def check_outputs(out_dir, expected: dict[str, np.ndarray]) -> list[str]:
    """Problems found in a run directory; empty when every value is within
    :data:`TOLERANCE` of the oracle.  ``trajectories.csv`` is checked when
    it was written."""
    problems = []
    stats = read_stats_csv(out_dir / "stats.csv")
    for column in ("t", "mean", "variance", "bound"):
        err, message = _worst(stats[column], expected[column], f"stats.csv {column}")
        if not err <= TOLERANCE:
            problems.append(message)
    path = out_dir / "trajectories.csv"
    if path.exists():
        times, values = read_trajectories_csv(path)
        for got, want, label in (
            (times, expected["t"], "trajectories.csv t"),
            (values, expected["trajectories"], "trajectories.csv values"),
        ):
            err, message = _worst(got, want, label)
            if not err <= TOLERANCE:
                problems.append(message)
    return problems
