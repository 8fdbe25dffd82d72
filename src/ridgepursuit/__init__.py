"""Penalized greedy pursuit over ridge-function dictionaries.

Fits one-hidden-layer combinations of ridge units x -> phi(theta . (x, 1))
by l1-penalized greedy pursuit, evaluates the certified penalty schedules and
risk diagnostics that come with them, and samples random ramp networks whose
approximation error against smooth targets decays at the 1/m rate.

Each library module's ``__all__`` is its public surface, and the package
re-exports their union; ``cli`` is the command-line front door and is not
imported here.
"""

from . import approx, dictionary, greedy, model, penalty, risk, targets
from .approx import *  # noqa: F401,F403
from .dictionary import *  # noqa: F401,F403
from .greedy import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .penalty import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403
from .targets import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (approx, dictionary, greedy, model, penalty, risk, targets)
    for name in module.__all__
]
