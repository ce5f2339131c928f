"""Second-order feedback quantizers: simulation, certified stability
regions, invariance checking, reconstruction accuracy, and threshold
sweeps.  See the subcommand front end in sdlab.cli for file outputs.

Each module's __all__ is the one list of its public names; the package
re-exports them all and its own __all__ is their concatenation.
"""

from . import (certificates, errors, filters, invariance, modulator, pipeline,
               region, serialize, sweeps)
from .certificates import *  # noqa: F403
from .errors import *  # noqa: F403
from .filters import *  # noqa: F403
from .invariance import *  # noqa: F403
from .modulator import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .region import *  # noqa: F403
from .serialize import *  # noqa: F403
from .sweeps import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (errors, modulator, region, certificates, invariance, filters,
            pipeline, sweeps, serialize)

__all__ = ["__version__", *(name for m in _MODULES for name in m.__all__)]
