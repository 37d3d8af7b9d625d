import logging
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import typlab.ensembles
import typlab.evolution
import typlab.verify
from typlab.config import load_config, parse_config
from typlab.ensembles import OmegaParams, make_omegas, sample_uniform_states
from typlab.errors import TyplabError
from typlab.models import build_model
from typlab.operators import SpectralDecomposition
from typlab.rng import child_seed
from typlab.verify import (
    N_UNIFORM_SAMPLES,
    UNIFORM_MC_STREAM,
    CheckResult,
    _haar_scalars,
    format_report,
    run_verification,
)

VERIFY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "verify_small.json"


@pytest.fixture(scope="module")
def small_results():
    return run_verification(load_config(VERIFY_CONFIG))


def tiny_raw(**overrides):
    raw = {
        "model": {
            "n": 60,
            "delta_e": 8.33e-3,
            "v_kind": "gaussian",
            "v_scale": 2.25e-4,
            "seed": 7,
        },
        "d": 0.1,
        "M": 100,
        "time": {"t_max": 30.0, "points": 50},
        "base_seed": 2026,
        "output": {"directory": "unused", "emit_trajectories": False, "emit_plot": False},
    }
    raw.update(overrides)
    return raw


def test_small_config_all_checks_pass(small_results):
    failed = [r.name for r in small_results if not r.passed]
    assert failed == []


def test_expected_check_names(small_results):
    names = [r.name for r in small_results]
    assert names == [
        "moment-gate",
        "uniform-mean",
        "uniform-variance",
        "deviation-map",
        "bound-exact",
        "variance-sampled",
        "commuting-invariance",
        "picture-equivalence",
        "inverse-n-scaling",
    ]


def test_report_format(small_results):
    report = format_report(small_results)
    assert report.count("[PASS]") == len(small_results)
    assert "9/9 checks passed" in report


def test_zero_deviation_targets_zero_mean():
    # At d = 0 the exact HV equals the bound 1/(n + 1) at every time, and the
    # deviation map is the identity: every check still passes.
    results = run_verification(parse_config(tiny_raw(d=0.0)))
    assert [r.name for r in results if not r.passed] == []


def test_corrupted_observable_fails_moment_gate(monkeypatch, caplog):
    config = parse_config(tiny_raw())
    original = typlab.verify.build_model

    def corrupted(spec):
        # the config's model gets A = I: c1 = 1, trace-free gate broken
        model = original(spec)
        if spec != config.model:
            return model
        return replace(model, observable=np.ones(spec.n))

    monkeypatch.setattr(typlab.verify, "build_model", corrupted)
    with caplog.at_level(logging.WARNING, logger="typlab"):
        results = run_verification(config)
    # the start and norm bands are centred on their means at c1 = 1, so no
    # trajectory state or omega norm is reported outside them
    assert [r.getMessage() for r in caplog.records if r.name.startswith("typlab")] == []
    by_name = {r.name: r for r in results}
    gate = by_name["moment-gate"]
    assert not gate.passed
    assert gate.measured == "c1 = 1, n_plus = 60"
    assert gate.margin == 1.0 - 1.0 / 1e-12
    # u = 1 for every state, so both identities and the closed forms hold
    assert by_name["deviation-map"].passed
    report = format_report(results)
    assert "first failing: moment-gate" in report


def minus_rows(monkeypatch):
    # The kernel evaluates -A: it is handed the -1 rows of U.
    monkeypatch.setattr(
        typlab.evolution, "plus_rows", lambda signs, dec: dec.eigenvectors[signs < 0]
    )


def conjugated_eigenvectors(monkeypatch):
    # The kernel propagates with conj(U), the eigenvectors of H^T.
    original = typlab.verify.run_ensemble

    def corrupted(dec, *args):
        return original(SpectralDecomposition(dec.eigenvalues, dec.eigenvectors.conj()), *args)

    monkeypatch.setattr(typlab.verify, "run_ensemble", corrupted)


@pytest.mark.parametrize("corrupt", [minus_rows, conjugated_eigenvectors])
def test_corrupted_kernel_fails_picture_equivalence(monkeypatch, corrupt):
    corrupt(monkeypatch)
    results = run_verification(parse_config(tiny_raw()))
    assert [r.name for r in results if not r.passed] == ["picture-equivalence"]


def test_negative_deviation_raises_typlab_error():
    # The config rejects d < 0 when it is built, by parse or by replace, so
    # run_verification never receives it.
    with pytest.raises(TyplabError, match="0 <= d < 1"):
        run_verification(replace(load_config(VERIFY_CONFIG), d=-0.1))


def test_scaling_check_reuses_the_config_model(monkeypatch):
    # n = 200 is one of the scaling sizes: its model and decomposition are
    # the ones the bound checks already built.  Picture equivalence runs on
    # the n = 100 scaling model and builds none of its own.
    calls = []
    original = typlab.verify.eigendecompose

    def counting(op):
        calls.append(op.dim)
        return original(op)

    monkeypatch.setattr(typlab.verify, "eigendecompose", counting)
    results = run_verification(load_config(VERIFY_CONFIG))
    assert sorted(calls) == [100, 200, 400, 800]
    scaling = {r.name: r for r in results}["inverse-n-scaling"]
    assert "slope = -0.997" in scaling.measured


def test_heisenberg_observable_formed_once_per_time(monkeypatch):
    # Picture equivalence forms the dense A(t) once for its 8 times, not
    # once per (state, time) pair.
    calls = []
    original = typlab.verify.heisenberg_observable

    def counting(op, dec, t):
        calls.append(t)
        return original(op, dec, t)

    monkeypatch.setattr(typlab.verify, "heisenberg_observable", counting)
    run_verification(parse_config(tiny_raw()))
    assert len(calls) == 8 == len(set(calls))


def test_commuting_invariance_reuses_the_trajectory_states(monkeypatch):
    # The states are the M trajectory states variance-sampled propagates.
    drawn = []
    original = typlab.verify.trajectory_omegas

    def recording(params, m, base_seed):
        omegas = original(params, m, base_seed)
        drawn.append(omegas)
        return omegas

    monkeypatch.setattr(typlab.verify, "trajectory_omegas", recording)
    results = run_verification(parse_config(tiny_raw(M=7)))
    assert [omegas.shape for omegas in drawn] == [(60, 7), (100, 5)]
    commuting = {r.name: r for r in results}["commuting-invariance"]
    assert "over 7 states x 10 unitaries" in commuting.criterion


def test_a_check_passes_at_its_tolerance():
    check = CheckResult("c", 0.25, 0.25, "", "")
    assert check.passed and check.margin == 0.0
    assert not CheckResult("c", np.nextafter(0.25, 1.0), 0.25, "", "").passed


@pytest.mark.parametrize("error,margin", [(0.0, 1.0), (1e-300, -np.inf)])
def test_zero_tolerance_margin(error, margin):
    check = CheckResult("c", error, 0.0, "", "")
    assert check.margin == margin
    assert check.passed == (error == 0.0)


def opposite_map(monkeypatch):
    # The map (1 - d A) in place of (1 + d A).
    monkeypatch.setattr(
        typlab.verify,
        "make_omegas",
        lambda psis, params: make_omegas(psis, replace(params, d=-params.d)),
    )


def scaled_omegas(monkeypatch):
    monkeypatch.setattr(
        typlab.verify, "make_omegas", lambda psis, params: (1 + 1e-9) * make_omegas(psis, params)
    )


def unnormalized_states(monkeypatch):
    original = typlab.verify.uniform_state_blocks

    def scaled(*args):
        for first, block in original(*args):
            yield first, (1 + 1e-6) * block

    monkeypatch.setattr(typlab.verify, "uniform_state_blocks", scaled)


@pytest.mark.parametrize("corrupt", [opposite_map, scaled_omegas, unnormalized_states])
def test_corrupted_deviation_map_fails(monkeypatch, corrupt):
    corrupt(monkeypatch)
    results = run_verification(parse_config(tiny_raw()))
    assert [r.name for r in results if not r.passed] == ["deviation-map"]


def test_collapsed_sampler_fails_variance_sampled(monkeypatch):
    # Every trajectory starts from state 0: the sampled variance is zero.
    original = typlab.verify.trajectory_omegas

    def collapsed(params, m, base_seed):
        omegas = original(params, m, base_seed)
        return np.repeat(omegas[:, :1], m, axis=1)

    monkeypatch.setattr(typlab.verify, "trajectory_omegas", collapsed)
    results = run_verification(parse_config(tiny_raw()))
    assert [r.name for r in results if not r.passed] == ["variance-sampled"]


@pytest.mark.parametrize("rows", [64, 512, 1000])
def test_monte_carlo_values_equal_the_whole_block_ones(monkeypatch, rows):
    # The one pass reduces each block as it is drawn; the same reductions
    # over the gathered (count, n) block give the same bits.
    config = load_config(VERIFY_CONFIG)
    params = OmegaParams(d=config.d, observable=build_model(config.model).observable)
    a, n, d = params.observable, params.observable.size, params.d
    seed = child_seed(config.base_seed, UNIFORM_MC_STREAM)
    monkeypatch.setattr(typlab.ensembles, "STATE_BLOCK_AMPLITUDES", rows * n)
    states = sample_uniform_states(n, N_UNIFORM_SAMPLES, seed)
    vals = (states.real**2 + states.imag**2) @ a
    omegas = make_omegas(states, params)
    del states
    norms = np.sum(omegas.real**2 + omegas.imag**2, axis=1)
    worst = max(
        float(np.abs(norms - (1 + 2 * d * vals / (1 + d**2))).max()),
        float(np.abs((omegas.real**2 + omegas.imag**2) @ a - (vals + 2 * d / (1 + d**2))).max()),
    )
    block_vals, block_worst = _haar_scalars(params, seed)
    assert np.array_equal(block_vals, vals)
    assert block_worst == worst


def test_verification_holds_no_monte_carlo_block():
    config = load_config(VERIFY_CONFIG)
    tracemalloc.start()
    try:
        run_verification(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # below the (20000, 200) complex block of uniform states, 61 MiB
    assert peak < N_UNIFORM_SAMPLES * config.model.n * 16
