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
from typlab.operators import SpectralDecomposition, eigendecompose
from typlab.rng import child_seed
from typlab.stats import sharp_variance_bound, variance_bound
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
        "variance-at-zero",
        "mean-sampled",
        "variance-sampled",
        "picture-equivalence",
    ]


def test_report_format(small_results):
    report = format_report(small_results)
    assert report.count("[PASS]") == len(small_results)
    assert "9/9 checks passed" in report


def test_passed_is_a_python_bool(small_results):
    # errors computed with numpy are stored as floats, so the verdict is a
    # bool that serialises, never an np.bool_
    assert all(type(r.passed) is bool for r in small_results)
    assert type(CheckResult("c", np.float64(0.5), np.float64(1.0), "", "").passed) is bool


def test_zero_deviation_targets_zero_mean():
    # At d = 0 the exact HV equals the bound 1/(n + 1) at every time, and the
    # deviation map is the identity: every check still passes.
    results = run_verification(parse_config(tiny_raw(d=0.0)))
    assert [r.name for r in results if not r.passed] == []


def identity_observable(monkeypatch):
    # The config's model gets A = I: c1 = 1, trace-free gate broken.
    original = typlab.verify.build_model

    def corrupted(spec):
        return replace(original(spec), observable=np.ones(spec.n))

    monkeypatch.setattr(typlab.verify, "build_model", corrupted)


def test_corrupted_observable_fails_moment_gate(monkeypatch, caplog):
    identity_observable(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="typlab"):
        results = run_verification(parse_config(tiny_raw()))
    # verify draws its states through samplers that check none of them, so
    # it writes no log record
    assert [r.getMessage() for r in caplog.records if r.name.startswith("typlab")] == []
    by_name = {r.name: r for r in results}
    gate = by_name["moment-gate"]
    assert not gate.passed
    assert gate.measured == "c1 = 1, n_plus = 60"
    assert gate.margin == 1.0 - 1.0 / 1e-12
    # u = 1 for every state, so both identities and the closed form hold,
    # and every trajectory sits at the exact mean 1 + 2d/alpha
    assert by_name["deviation-map"].passed
    assert by_name["mean-sampled"].passed
    # Every trajectory is constant and the exact HV is 0 to rounding: over the
    # floored HV, the zero sampled variance reads sqrt((M - 1)/2) and fails.
    sampled = by_name["variance-sampled"]
    assert np.isfinite(sampled.error) and not sampled.passed
    assert sampled.measured.endswith("= 7.04")
    assert [r.name for r in results if not r.passed] == ["moment-gate", "variance-sampled"]
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


@pytest.mark.parametrize("corrupt", [conjugated_eigenvectors])
def test_corrupted_kernel_fails_picture_equivalence(monkeypatch, corrupt):
    corrupt(monkeypatch)
    results = run_verification(parse_config(tiny_raw()))
    assert [r.name for r in results if not r.passed] == ["picture-equivalence"]


def test_negated_kernel_fails_mean_and_picture_equivalence(monkeypatch):
    # -A moves the sampled mean to -(c1 + 2d C/alpha) and keeps the variance.
    minus_rows(monkeypatch)
    results = run_verification(parse_config(tiny_raw()))
    assert [r.name for r in results if not r.passed] == ["mean-sampled", "picture-equivalence"]


def negated_hamiltonian(monkeypatch):
    # The kernel propagates with -H, i.e. to -t: C(t) and F(t) are even in
    # t, so every statistic holds and only the picture comparison sees it.
    original = typlab.verify.run_ensemble

    def corrupted(dec, *args):
        minus_h = SpectralDecomposition(-dec.eigenvalues[::-1], dec.eigenvectors[:, ::-1])
        return original(minus_h, *args)

    monkeypatch.setattr(typlab.verify, "run_ensemble", corrupted)


def test_negative_deviation_raises_typlab_error():
    # The config rejects d < 0 when it is built, by parse or by replace, so
    # run_verification never receives it.
    with pytest.raises(TyplabError, match="0 <= d < 1"):
        run_verification(replace(load_config(VERIFY_CONFIG), d=-0.1))


def test_one_model_and_decomposition_per_verification(monkeypatch):
    # Every check reads the config's model at the config's n; the 1/n law
    # is checked on its series, with no model of another size.
    calls = []
    for name in ("build_model", "eigendecompose"):
        original = getattr(typlab.verify, name)

        def recording(arg, name=name, original=original):
            calls.append((name, arg.n if name == "build_model" else arg.dim))
            return original(arg)

        monkeypatch.setattr(typlab.verify, name, recording)
    results = run_verification(load_config(VERIFY_CONFIG))
    assert calls == [("build_model", 200), ("eigendecompose", 200)]
    at_zero = {r.name: r for r in results}["variance-at-zero"]
    assert "(n + 1) max HV = 1.0007 at n = 200" in at_zero.measured


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


def test_one_trajectory_ensemble_per_verification(monkeypatch):
    # variance-sampled and picture equivalence read the same M states and
    # their one propagation; with M = 3 and 5 grid points, picture
    # equivalence takes every state at every time.
    calls = []
    for name in ("trajectory_omegas", "run_ensemble"):
        original = getattr(typlab.verify, name)

        def recording(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(typlab.verify, name, recording)
    results = run_verification(parse_config(tiny_raw(M=3, time={"t_max": 30.0, "points": 5})))
    assert calls == ["trajectory_omegas", "run_ensemble"]
    picture = {r.name: r for r in results}["picture-equivalence"]
    assert picture.passed and picture.criterion.endswith("at n = 60, 3 states x 5 times")


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


@pytest.mark.parametrize("corrupt", [scaled_omegas, unnormalized_states])
def test_corrupted_deviation_map_fails(monkeypatch, corrupt):
    corrupt(monkeypatch)
    results = run_verification(parse_config(tiny_raw()))
    assert [r.name for r in results if not r.passed] == ["deviation-map"]


def collapsed_sampler(monkeypatch):
    # Every trajectory starts from state 0: the sampled variance is zero.
    original = typlab.verify.trajectory_omegas

    def collapsed(params, m, base_seed):
        omegas = original(params, m, base_seed)
        return np.repeat(omegas[:, :1], m, axis=1)

    monkeypatch.setattr(typlab.verify, "trajectory_omegas", collapsed)


def test_collapsed_sampler_fails_both_sampled_checks(monkeypatch):
    # One trajectory M times: its mean is one draw, about sqrt(M) standard
    # errors off, and its variance is zero.
    collapsed_sampler(monkeypatch)
    results = run_verification(parse_config(tiny_raw()))
    assert [r.name for r in results if not r.passed] == ["mean-sampled", "variance-sampled"]


def phase_only_sampler(monkeypatch):
    # Each trajectory state's pre-image psi keeps its phases but takes the
    # flat moduli 1/sqrt(n) (omega and psi share phases, as (1 + d A) > 0):
    # E[psi psi^dagger] = I/n is kept, and with it every mean, but
    # <psi|A|psi> = c1 for every state, so the variance at t = 0 is zero.
    original = typlab.verify.trajectory_omegas

    def phases_only(params, m, base_seed):
        omegas = original(params, m, base_seed)
        shift = (1 + params.d * params.observable[:, None]) / np.sqrt(1 + params.d**2)
        return shift * (omegas / np.abs(omegas)) / np.sqrt(omegas.shape[0])

    monkeypatch.setattr(typlab.verify, "trajectory_omegas", phases_only)


def undeviated_sampler(monkeypatch):
    # The trajectory states drawn at d = 0: the sampled mean misses the
    # 2 d C(t)/alpha, while the variance barely moves.
    original = typlab.verify.trajectory_omegas
    monkeypatch.setattr(
        typlab.verify,
        "trajectory_omegas",
        lambda params, m, base_seed: original(replace(params, d=0.0), m, base_seed),
    )


def hv_over_bound(monkeypatch):
    # The exact series after t = 0 scaled so its maximum is 1.01 times the
    # sharp bound, still below the paper's.
    original = typlab.verify.exact_hv_series

    def scaled(dec, params, times):
        series, autocorrelation = original(dec, params, times)
        sharp = sharp_variance_bound(params.d, params.c1, params.observable.size)
        series[1:] *= 1.01 * sharp / series[1:].max()
        return series, autocorrelation

    monkeypatch.setattr(typlab.verify, "exact_hv_series", scaled)


def test_sharp_bound_sees_what_the_paper_bound_cannot(monkeypatch):
    # hv_over_bound fails bound-exact alone (CORRUPTIONS), at a series the
    # paper's bound passes with room to spare
    hv_over_bound(monkeypatch)
    config = parse_config(tiny_raw())
    model = build_model(config.model)
    params = OmegaParams(d=config.d, observable=model.observable)
    dec = eigendecompose(model.hamiltonian)
    series, _ = typlab.verify.exact_hv_series(dec, params, config.times)
    assert series.max() < 0.75 * variance_bound(config.d, config.model.n)


def hv_scaled_down(monkeypatch):
    # The exact series times 0.9: below both bounds, and within the sampled
    # checks' reach, so only the identity at t = 0 sees it.
    original = typlab.verify.exact_hv_series

    def scaled(dec, params, times):
        series, autocorrelation = original(dec, params, times)
        return 0.9 * series, autocorrelation

    monkeypatch.setattr(typlab.verify, "exact_hv_series", scaled)


def reweighted_states(monkeypatch, weights):
    # Each uniform state's amplitudes times weights(a), then renormalised.
    original = typlab.verify.uniform_state_blocks
    w = weights(build_model(parse_config(tiny_raw()).model).observable)

    def reweighted(*args):
        for first, block in original(*args):
            block = block * w
            yield first, block / np.linalg.norm(block, axis=1)[:, None]

    monkeypatch.setattr(typlab.verify, "uniform_state_blocks", reweighted)


def states_biased_to_plus(monkeypatch):
    # The +1 amplitudes grow by 1 %: the mean of u moves by about 0.01.
    reweighted_states(monkeypatch, lambda a: np.where(a > 0, 1.01, 1.0))


def states_on_four_vectors(monkeypatch):
    # Two +1 and two -1 basis vectors: u keeps its mean 0, but its variance
    # is 1/5, not 1/(n + 1).
    def four(a):
        keep = np.zeros(a.size)
        keep[np.flatnonzero(a > 0)[:2]] = keep[np.flatnonzero(a < 0)[:2]] = 1.0
        return keep

    reweighted_states(monkeypatch, four)


# One corruption per check, in report order: every check can fail.
CORRUPTIONS = {
    "moment-gate": identity_observable,
    "uniform-mean": states_biased_to_plus,
    "uniform-variance": states_on_four_vectors,
    "deviation-map": opposite_map,
    "bound-exact": hv_over_bound,
    "variance-at-zero": hv_scaled_down,
    "mean-sampled": undeviated_sampler,
    "variance-sampled": phase_only_sampler,
    "picture-equivalence": negated_hamiltonian,
}


def test_every_check_has_a_corruption(small_results):
    assert list(CORRUPTIONS) == [r.name for r in small_results]


@pytest.mark.parametrize("corrupt, check", [(c, name) for name, c in CORRUPTIONS.items()])
def test_corruption_fails_its_check(monkeypatch, corrupt, check):
    corrupt(monkeypatch)
    results = run_verification(parse_config(tiny_raw()))
    failed = [r.name for r in results if not r.passed]
    # A = I also makes every trajectory constant, which variance-sampled
    # must see (pinned above); every other corruption fails its check alone.
    assert failed == [check] + (["variance-sampled"] if check == "moment-gate" else [])


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
    # 11.5 MiB measured: far below the (20000, 200) complex block of uniform
    # states (61 MiB), and below the 44.7 MiB that a second model of n = 800
    # brings
    assert peak < 16 * 2**20
