"""Relative single-photon absorption rates for pairs of identical atoms prepared
in (anti)symmetrized two-particle superpositions.

The package has four layers:

* :mod:`pairabs.algebra`: labeled states, overlap tables, formal two-particle
  state sums and their inner products;
* :mod:`pairabs.scenarios`: table builders for the swept presets, the
  exclusion family, and user-supplied overlaps, including all recoil entries;
* :mod:`pairabs.rates`: closed-form norms, absorption matrix elements, the
  relative rate, and null-state (exclusion) detection, for one point or a
  whole sweep grid at once;
* :mod:`pairabs.oracle`: an independent brute-force expansion of the same
  amplitude used to cross-check the closed forms.

The ``pairabs`` command line (see :mod:`pairabs.cli`) exposes sweeps, figure
datasets, exclusion scans, and the randomized self-verification.
"""

from .algebra import (
    CHI,
    E,
    ETA,
    G,
    GramReport,
    CmLabel,
    FormalState,
    Internal,
    MU,
    MissingOverlapError,
    OverlapTable,
    PHI,
    PSI,
    Statistics,
    Term,
    VARPHI,
    ZETA,
    combine,
    inner_product,
    symmetrize,
    validate_gram,
)
from .oracle import (
    apply_absorption,
    build_final,
    build_initial,
    formal_final_norm_sq,
    formal_initial_norm_sq,
    oracle_matrix_element,
)
from .rates import (
    EXCLUSION_EPS,
    ExcludedStateError,
    RateResult,
    bracket_sum,
    exclusion_check,
    exclusion_mask,
    final_norm_sq,
    initial_norm_sq,
    matrix_element,
    matrix_element_product,
    relative_rate,
    relative_rate_grid,
)
from .scenarios import (
    ALL_PAIRS,
    BASE_PAIRS,
    CHOICES,
    Coefficients,
    ExclusionFamily,
    RecoilModel,
    ScenarioSpec,
    alpha_pair,
    build_choice_table,
    build_family_table,
    build_table,
    family_exclusion_coefficient,
    random_realizable_table,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PAIRS",
    "BASE_PAIRS",
    "CHI",
    "CHOICES",
    "E",
    "ETA",
    "EXCLUSION_EPS",
    "Coefficients",
    "CmLabel",
    "ExcludedStateError",
    "ExclusionFamily",
    "FormalState",
    "G",
    "GramReport",
    "Internal",
    "MU",
    "MissingOverlapError",
    "OverlapTable",
    "PHI",
    "PSI",
    "RateResult",
    "RecoilModel",
    "ScenarioSpec",
    "Statistics",
    "Term",
    "VARPHI",
    "ZETA",
    "alpha_pair",
    "apply_absorption",
    "bracket_sum",
    "build_choice_table",
    "build_family_table",
    "build_final",
    "build_initial",
    "build_table",
    "combine",
    "exclusion_check",
    "exclusion_mask",
    "family_exclusion_coefficient",
    "final_norm_sq",
    "formal_final_norm_sq",
    "formal_initial_norm_sq",
    "initial_norm_sq",
    "inner_product",
    "matrix_element",
    "matrix_element_product",
    "oracle_matrix_element",
    "random_realizable_table",
    "relative_rate",
    "relative_rate_grid",
    "symmetrize",
    "validate_gram",
    "__version__",
]
