"""Symmetrization dynamics over finite groups.

The package exports the public names each module declares in its own
``__all__``; that list is the only place a name is made public.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import actions, applications, config, groups, harness, lifted, schedules
from .actions import *
from .applications import *
from .config import *
from .groups import *
from .harness import *
from .lifted import *
from .schedules import *

__all__ = ["__version__"] + [
    name
    for module in (groups, lifted, actions, schedules, applications, config, harness)
    for name in module.__all__
]
