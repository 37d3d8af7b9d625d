import argparse
import ast
from pathlib import Path

import pytest

import typlab
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
