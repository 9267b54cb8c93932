"""logpool: opinion pooling, epistemic welfare, and weight-change analysis.

A small numerical laboratory for groups of probabilistic agents merged by
logarithmic (geometric) or linear opinion pooling.  The library measures
each agent's epistemic welfare under the pooled view, builds explicit
instances with prescribed welfare structure, factors a given distribution
into pools of distinct agents, certifies stability of welfare properties
under perturbation, and analyzes the first-order effect of shifting pool
weights along the children's log-profiles.

Everything is exact finite arithmetic on small outcome spaces: no sampling,
no asymptotics, every identity checked at explicit tolerances.
"""

__version__ = "0.1.0"

from . import core, errors, pooling, welfare, constructions, factorize, stability, persona, jsonio
from .core import *
from .errors import *
from .pooling import *
from .welfare import *
from .constructions import *
from .factorize import *
from .stability import *
from .persona import *
from .jsonio import *

__all__ = [
    "__version__",
    *core.__all__,
    *errors.__all__,
    *pooling.__all__,
    *welfare.__all__,
    *constructions.__all__,
    *factorize.__all__,
    *stability.__all__,
    *persona.__all__,
    *jsonio.__all__,
]
