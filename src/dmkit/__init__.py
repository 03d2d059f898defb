"""Stability margins of LTI feedback loops: classical, disk-based, multi-loop.

Exports the __all__ of each module, where each public name is listed once.
"""

__version__ = "0.1.0"

from . import classical, disk, errors, lti, multiloop, specnorm
from .errors import *  # noqa: F401,F403
from .lti import *  # noqa: F401,F403
from .specnorm import *  # noqa: F401,F403
from .classical import *  # noqa: F401,F403
from .disk import *  # noqa: F401,F403
from .multiloop import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name for module in (errors, lti, specnorm, classical, disk, multiloop) for name in module.__all__
]
