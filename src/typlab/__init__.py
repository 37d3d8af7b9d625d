"""typlab: a numerical laboratory for dynamical typicality of quantum
expectation values.

Builds constrained pure-state ensembles over model Hamiltonians,
propagates exact Schroedinger dynamics through dense eigendecomposition,
and checks ensemble statistics against closed-form Hilbert-space-average
formulas and the time-independent variance bound.

The package exports the library form of the command line; every other name
is imported from the submodule that defines it, such as ``typlab.models``.
"""

from .config import load_config
from .errors import TyplabError
from .experiment import execute_run
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "TyplabError",
    "execute_run",
    "load_config",
    "run_verification",
]
