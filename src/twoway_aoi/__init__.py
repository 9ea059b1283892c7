"""Average age of information for a unilaterally powered two-way link.

Closed-form downlink/uplink ages under power splitting, the optimal
splitting ratio for the weighted-sum age, and a block-level Monte Carlo
simulator (power splitting and a time-splitting baseline) that verifies
every closed form empirically. The package root exports each module's
``__all__``.
"""

from . import analytic, model, optimizer, simulator
from .analytic import *  # noqa: F403
from .model import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .simulator import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*analytic.__all__, *model.__all__, *optimizer.__all__, *simulator.__all__,
           "__version__"]
