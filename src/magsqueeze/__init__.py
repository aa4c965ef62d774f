"""Steady-state quantum correlations of a cavity magnomechanical system driven
through a squeezed magnon mode.

The package computes the steady covariance matrix of the linearized
three-mode dynamics (microwave cavity, magnon, phonon), extracts bipartite
and tripartite entanglement measures, and quantifies how strongly they
depend on the squeezing phase through bidirectional contrast ratios.
"""

from . import analysis, errors, gaussian, model, solver
from .analysis import *  # noqa: F403
from .errors import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .model import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

# Each module lists its own public names; the package exports all of them.
__all__ = ["__version__", *(name for module in (errors, gaussian, model, solver, analysis)
                            for name in module.__all__)]
