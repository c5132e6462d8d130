"""reglinked: q-difference equations for partition classes carved out by
finite automata, with exact truncated q-series verification.

The pipeline: describe a partition class by a block alphabet plus regular
forbidden patterns/prefixes, build the minimal DFA of the forbidden
language, read off a coupled q-difference system for the per-state
generating functions, collapse it to a single equation, and verify
Rogers-Ramanujan-type product identities by exact coefficient comparison
against brute-force enumeration, infinite products and double sums.
"""

from .partitions import (
    EMPTY, MultiplicityVector, Partition, check_modulus_conditions,
    from_multiplicities, in_class, oplus, partitions_of, phi_minus, phi_plus,
    satisfies_nandi, satisfies_nandi_mult, to_multiplicities, truncate_gt,
    truncate_le, weight_monomial,
)
from .qalgebra import (
    BiPoly, QSeries, Q, RationalFunction, RfMatrix, X, parse_rational,
    poch_finite, poch_inf, pochhammer_inverse,
)
from .automata import (
    Dfa, EpsNfa, Regex, complement, dfa_from_regex, equivalent, isomorphism,
    min_forbidden_prefixes, minimize, parse_regex, product, restart,
    subset_construction, to_eps_nfa,
)
from .linked import (
    LinkedSpec, LpiData, QDifferenceSystem, build_forbidden_dfa, decode,
    derive_system, encode, load_spec, lpi_to_spec, member, nandi_spec,
    nandi_spec_path, series_from_system, state_for_class,
)
from .murraymiller import (
    QDifferenceEquation, derive_equation, eliminate, normalize_equation,
    reorder, reorder_first, triangularize,
)
from .qseries import (
    XSeries, closed_form_i, double_sum, euler_check, evaluate_x1,
    g_limit_check, nandi_equation, nandi_product, remark_single_sum_check,
    slater_check, solve_equation, transform_chain,
)

__version__ = "0.1.0"
