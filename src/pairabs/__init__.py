"""Relative single-photon absorption rates for pairs of identical atoms prepared
in (anti)symmetrized two-particle superpositions.

The package has four layers:

* :mod:`pairabs.algebra`: labeled states, exchange statistics and overlap
  tables;
* :mod:`pairabs.scenarios`: the bare overlaps of the swept presets and the
  exclusion family, and the one table builder, which adds all recoil entries;
* :mod:`pairabs.rates`: closed-form norms, absorption matrix elements, the
  relative rate, and null-state (exclusion) detection, for one point or a
  whole sweep grid at once;
* :mod:`pairabs.oracle`: formal two-particle states, their builders and inner
  products, and the plan and evaluator of the brute-force expansion of the
  same amplitude used to cross-check the closed forms.

The package exports exactly the names in the four layers' ``__all__``.  The
``pairabs`` command line (see :mod:`pairabs.cli`) exposes sweeps, figure
datasets, exclusion scans, and the randomized self-verification.
"""

from . import algebra, oracle, rates, scenarios
from .algebra import *  # noqa: F403
from .oracle import *  # noqa: F403
from .rates import *  # noqa: F403
from .scenarios import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += algebra.__all__
__all__ += scenarios.__all__
__all__ += rates.__all__
__all__ += oracle.__all__
