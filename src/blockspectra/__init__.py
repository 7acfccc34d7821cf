"""Spectra of complements of block graphs and clique trees.

Exact small-graph machinery (edge lists, blocks, isomorphism), dense symmetric
eigensolvers, extremal family constructors, and an empirical verification
harness for the extremal inequalities relating block structure to the
spectral radius and distance spectral radius of graph complements.

The public names are those of the layer modules' `__all__` lists.
"""

from . import families, graphs, spectral, transforms, verify
from .families import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .transforms import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *graphs.__all__,
    *spectral.__all__,
    *families.__all__,
    *transforms.__all__,
    *verify.__all__,
    "__version__",
]
