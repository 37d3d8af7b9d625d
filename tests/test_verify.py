import logging
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import typlab.ensembles
import typlab.evolution
import typlab.rng
import typlab.verify
from typlab.config import load_config, parse_config
from typlab.ensembles import (
    STATE_BLOCK_AMPLITUDES,
    OmegaParams,
    make_omegas,
    sample_uniform_state,
)
from typlab.errors import TyplabError
from typlab.evolution import expectations, run_ensemble, trajectory_omegas
from typlab.models import build_model
from typlab.operators import SpectralDecomposition, eigendecompose
from typlab.rng import child_seed
from typlab.stats import exact_hv_series, sharp_variance_bound, variance_bound
from typlab.verify import (
    N_UNIFORM_SAMPLES,
    UNIFORM_MC_STREAM,
    CheckResult,
    _haar_scalars,
    _sampled_checks,
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
    # floored HV, the sampled variance reads var/HV ~ 1e-16, far below the
    # chi^2_99 window [0.505, 1.73]; its chi^2 probability is 0 in doubles,
    # whose normal score reads a finite 40, and fails.
    sampled = by_name["variance-sampled"]
    assert np.isfinite(sampled.error) and not sampled.passed
    assert f"{sampled.error:.2f}" == "40.00"
    assert sampled.measured.endswith("normal scores -40.00, -40.00")
    assert "chi^2_99 window [0.505, 1.73]" in sampled.criterion
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


def patched_sampler(monkeypatch, transform, modules):
    # uniform_states with transform applied to each state's amplitudes, as
    # the given modules see it: typlab.verify for verify's Monte Carlo
    # chunks, typlab.ensembles for the run's sample_uniform_state too.
    original = typlab.ensembles.uniform_states

    def sampler(n, seeds):
        return np.array([transform(amp) for amp in original(n, seeds)])

    for module in modules:
        monkeypatch.setattr(module, "uniform_states", sampler)


def unnormalized_states(monkeypatch):
    patched_sampler(monkeypatch, lambda amp: (1 + 1e-6) * amp, [typlab.verify])


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


def reweighted_states(monkeypatch, weights, modules, spec=None):
    # Each uniform state's amplitudes times weights(a), then renormalised;
    # a is the observable of the model spec, by default the tiny config's.
    w = weights(build_model(spec or parse_config(tiny_raw()).model).observable)
    patched_sampler(monkeypatch, lambda amp: amp * w / np.linalg.norm(amp * w), modules)


def states_biased_to_plus(monkeypatch, spec=None):
    # The +1 amplitudes grow by 1 %: the mean of u moves by about 0.01.  The
    # run's sampler is biased, so the trajectories are too; at M = 100 that
    # is within mean-sampled's reach, and only uniform-mean sees it.
    modules = [typlab.verify, typlab.ensembles]
    reweighted_states(monkeypatch, lambda a: np.where(a > 0, 1.01, 1.0), modules, spec)


def states_on_four_vectors(monkeypatch):
    # Two +1 and two -1 basis vectors: u keeps its mean 0, but its variance
    # is 1/5, not 1/(n + 1).  Only verify's draws are corrupted: trajectories
    # on four vectors would fail variance-sampled as well.
    def four(a):
        keep = np.zeros(a.size)
        keep[np.flatnonzero(a > 0)[:2]] = keep[np.flatnonzero(a < 0)[:2]] = 1.0
        return keep

    reweighted_states(monkeypatch, four, [typlab.verify])


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


@pytest.mark.parametrize("path", [None, VERIFY_CONFIG])
def test_biased_run_sampler_fails_uniform_mean(monkeypatch, path):
    # The bias in the sampler typlab run ships reaches verify's Monte Carlo
    # pass, which draws through it, and fails uniform-mean alone.
    config = load_config(path) if path else parse_config(tiny_raw())
    states_biased_to_plus(monkeypatch, config.model)
    results = run_verification(config)
    assert [r.name for r in results if not r.passed] == ["uniform-mean"]


@pytest.mark.parametrize("rows", [64, 999])
def test_monte_carlo_values_are_the_run_samplers(monkeypatch, rows):
    # State i of the pass is the run's sample_uniform_state at child seed i:
    # its u and the worst residual are bit-equal to the same reductions over
    # chunks of those states.  The chunks are cut as the pass cuts them, as
    # a matrix-vector product's bits depend on its row count (BLAS treats
    # rows in groups).
    config = load_config(VERIFY_CONFIG)
    params = OmegaParams(d=config.d, observable=build_model(config.model).observable)
    a, n, d = params.observable, params.observable.size, params.d
    seed = child_seed(config.base_seed, UNIFORM_MC_STREAM)
    assert N_UNIFORM_SAMPLES % rows
    monkeypatch.setattr(typlab.verify, "STATE_BLOCK_AMPLITUDES", rows * n)
    states = np.array(
        [sample_uniform_state(n, child_seed(seed, i)).amplitudes for i in range(N_UNIFORM_SAMPLES)]
    )
    vals, worst = np.empty(N_UNIFORM_SAMPLES), 0.0
    for first in range(0, N_UNIFORM_SAMPLES, rows):
        chunk = states[first : first + rows]
        vals[first : first + rows] = u = expectations(a, chunk)
        omegas = make_omegas(chunk, params)
        norms = np.sum(omegas.real**2 + omegas.imag**2, axis=1)
        worst = max(
            worst,
            float(np.abs(norms - (1 + 2 * d * u / (1 + d**2))).max()),
            float(np.abs(expectations(a, omegas) - (u + 2 * d / (1 + d**2))).max()),
        )
    chunk_vals, chunk_worst = _haar_scalars(params, seed)
    assert np.array_equal(chunk_vals, vals)
    assert chunk_worst == worst


def test_monte_carlo_pass_draws_each_chunk_in_one_call(monkeypatch):
    # One multi-seed normal draw per chunk of 655 states at n = 200, not one
    # per state.
    config = load_config(VERIFY_CONFIG)
    params = OmegaParams(d=config.d, observable=build_model(config.model).observable)
    calls = []
    original = typlab.rng.SeedStream.normal

    def counting(stream, count):
        calls.append(count)
        return original(stream, count)

    monkeypatch.setattr(typlab.rng.SeedStream, "normal", counting)
    _haar_scalars(params, child_seed(config.base_seed, UNIFORM_MC_STREAM))
    rows = STATE_BLOCK_AMPLITUDES // params.observable.size
    assert rows == 655
    assert len(calls) == -(-N_UNIFORM_SAMPLES // rows) == 8
    assert calls == [2 * params.observable.size] * 8


@pytest.fixture(scope="module")
def small_decomposition():
    config = load_config(VERIFY_CONFIG)
    model = build_model(config.model)
    params = OmegaParams(d=config.d, observable=model.observable)
    return config, params, eigendecompose(model.hamiltonian)


@pytest.fixture(scope="module")
def small_exact_series(small_decomposition):
    # verify_small's exact series on its shipped 150-point grid and on 3000
    # points over t_max = 5000
    config, params, dec = small_decomposition
    long = replace(config, time=replace(config.time, t_max=5000.0, points=3000))
    grids = {"shipped": config.times, "long": long.times}
    return {name: (times, *exact_hv_series(dec, params, times)) for name, times in grids.items()}


@pytest.mark.parametrize("base_seed", range(100, 106))
@pytest.mark.parametrize("m, grid", [(3, "long"), (10, "long"), (3, "shipped"), (100, "long")])
def test_sampled_checks_pass_correct_runs(
    small_decomposition, small_exact_series, m, grid, base_seed
):
    # Few trajectories on many grid points: the old fixed threshold of 4.5
    # failed 10 of these 24 correct runs; the thresholds set by M and T pass
    # them all.
    _, params, dec = small_decomposition
    times, series, autocorrelation = small_exact_series[grid]
    trajectories = run_ensemble(dec, params, trajectory_omegas(params, m, base_seed), times)
    checks = _sampled_checks(trajectories, series, autocorrelation, params)
    assert [c.name for c in checks] == ["mean-sampled", "variance-sampled"]
    assert [c.name for c in checks if not c.passed] == []


def test_verification_holds_no_monte_carlo_block():
    config = load_config(VERIFY_CONFIG)
    tracemalloc.start()
    try:
        run_verification(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8.7 MiB measured on a first call (7.0 MiB on later ones), with the
    # pass's 655-row chunks each drawn in one call; the bound leaves 3.3 MiB
    # of margin and stays
    # below the (5000, 200) complex block of all the Monte Carlo states
    # (15.3 MiB) and the 44.7 MiB that a second model of n = 800 brings
    assert peak < 12 * 2**20
