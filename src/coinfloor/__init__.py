"""Exact toolkit for the two-coin representability problem and floor-sum
reciprocity: logarithmic floor-sum evaluation, exact counts of representable
numbers below a threshold, gap enumeration with Sylvester-type sums, and
Jacobi symbols computed from floor-sum parity, with every identity wired up
as a machine-checkable property.

The public names are those in the __all__ of each module below."""

from .coinproblem import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .floorsum import *  # noqa: F401,F403
from .jacobi import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"
