import argparse
import ast
from pathlib import Path

import pytest

import typlab
import typlab.ensembles
import typlab.evolution
import typlab.verify
from typlab.cli import _build_parser, main

# The public API, sorted.  A name enters or leaves only by editing this list.
EXPORTS = [
    "TyplabError",
    "execute_run",
    "load_config",
    "run_verification",
]

# The CLI's subcommands.  A command enters or leaves only by editing this list.
SUBCOMMANDS = ["plot", "run", "verify"]

# Functions that no src code calls: they stay only while the benchmark's
# tracer names them, and go with its next revision.  A src caller
# would put benchmark-only code back on the run path.
BENCHMARK_ONLY = [
    "ensembles.commuting_unitary",
    "ensembles.sample_uniform_states",
    "operators.spectral_moments",
]

# The src modules that may name rng.SeedStream: the stream itself, the
# model build, the ensembles' samplers and the eigendecomposition's fixed
# probe stream.  The probes check eigh and never draw trajectory states, and
# every other module draws through the ensembles' samplers, so verify's Monte
# Carlo pass tests the sampler the run uses.
STREAM_HOMES = ["ensembles", "models", "operators", "rng"]

# Each function of src/typlab that raises TyplabError, with its number of
# raise sites.  Every check has one home, the type or function that first
# meets the value, so a re-check enters only by editing this list.
CHECK_HOMES = {
    "cli._cmd_plot": 2,
    "config.ExperimentConfig.__post_init__": 8,
    "config.ModelSpec.__post_init__": 6,
    "config._as_bool": 1,
    "config._as_float": 2,
    "config._as_int": 1,
    "config._as_section": 2,
    "config._as_str": 1,
    "config._unique_keys": 1,
    "config.load_config": 3,
    "csvio._parse_float": 2,
    "csvio._read_table": 6,
    "ensembles.OmegaParams.__post_init__": 1,
    "evolution.expectation": 1,
    "operators.HermitianOperator.__post_init__": 3,
    "operators.SpectralDecomposition.__post_init__": 6,
    "operators.eigendecompose": 1,
    "rng.SeedStream.__init__": 1,
}


def test_all_is_the_pinned_sorted_list():
    assert EXPORTS == sorted(EXPORTS)
    assert typlab.__all__ == EXPORTS
    assert all(hasattr(typlab, name) for name in EXPORTS)


def test_subcommands_are_the_pinned_list(capsys):
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == SUBCOMMANDS
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--config", "unused.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'moments'" in capsys.readouterr().err


def _typlab_error_raises(func: ast.FunctionDef) -> int:
    return sum(
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "TyplabError"
        for node in ast.walk(func)
    )


def test_check_homes_are_the_pinned_list():
    homes = {}
    for path in Path(typlab.__file__).parent.glob("*.py"):
        scopes = [(path.stem, ast.parse(path.read_text()))]
        while scopes:
            prefix, scope = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    name = f"{prefix}.{node.name}"
                    scopes.append((name, node))
                    if isinstance(node, ast.FunctionDef) and (count := _typlab_error_raises(node)):
                        homes[name] = count
    assert homes == CHECK_HOMES


def _references(path: Path, name: str, home: str) -> list[str]:
    """``module:line`` of each use of ``name`` in a src file, as a name, an
    attribute or an import, outside its own definition in module ``home``."""
    found, nodes = [], [ast.parse(path.read_text())]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.FunctionDef) and node.name == name and path.stem == home:
            continue
        if (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname))
        ):
            found.append(f"{path.stem}:{node.lineno}")
        nodes.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("target", BENCHMARK_ONLY)
def test_benchmark_only_names_have_no_src_caller(target):
    home, name = target.split(".")
    src = Path(typlab.__file__).parent
    defined = ast.parse((src / f"{home}.py").read_text()).body
    assert any(isinstance(node, ast.FunctionDef) and node.name == name for node in defined)
    assert [ref for path in sorted(src.glob("*.py")) for ref in _references(path, name, home)] == []


def test_verify_draws_through_the_run_sampler(monkeypatch):
    # verify draws its chunks, and the run its states one seed at a time,
    # through the one Haar sampler.
    assert typlab.verify.uniform_states is typlab.ensembles.uniform_states
    assert typlab.evolution.sample_uniform_state is typlab.ensembles.sample_uniform_state
    calls = []
    original = typlab.ensembles.uniform_states

    def recording(n, seeds):
        calls.append((n, list(seeds)))
        return original(n, seeds)

    monkeypatch.setattr(typlab.ensembles, "uniform_states", recording)
    state = typlab.evolution.sample_uniform_state(5, 11)
    assert calls == [(5, [11])]
    assert state.amplitudes.tobytes() == original(5, [11])[0].tobytes()
    src = Path(typlab.__file__).parent
    users = {path.stem for path in src.glob("*.py") if _references(path, "SeedStream", "rng")}
    assert users <= set(STREAM_HOMES)
