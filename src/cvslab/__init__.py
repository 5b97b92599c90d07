"""Tabular RL lab: criticality-driven multi-step updates and baselines.

Each module lists the public names it defines in its own ``__all__``; the
package re-exports them, and its ``__all__`` joins those lists.
"""

from . import agents, core, harness, roadtree, shooter, tennis
from .agents import *
from .core import *
from .harness import *
from .roadtree import *
from .shooter import *
from .tennis import *

__version__ = "0.1.0"

__all__ = [name for module in (agents, core, harness, roadtree, shooter, tennis) for name in module.__all__]
