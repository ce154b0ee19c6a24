"""Weyl group combinatorics for domains of discontinuity.

Finite Weyl groups with their Chevalley-Bruhat order, balanced-ideal
enumeration, named ideal families over symmetric groups, homology of
the associated domains and quotient manifolds, and line-bundle
cohomology by weight combinatorics.
"""

from .bbw import (BBWReport, SheafCaseReport, bbw_cohomology,
                  classify_weight, sheaf_cohomology_cases, weyl_act,
                  weyl_dimension)
from .bruhat import (BruhatOrder, Ideal, IdealClass, ShortSmallReport,
                     build_order, classify, enumerate_balanced,
                     ideal_from_elements, ideal_from_json_dict,
                     ideal_to_json_dict, is_downward_closed, is_small, leq,
                     minimal_generators, orthogonal, principal_ideal,
                     verify_short_small)
from .cartan import (CartanType, RootSystem, build_root_system, parse_type,
                     positive_coroots)
from .errors import (BudgetExceededError, InvalidInputError,
                     VerificationError, WeylkitError)
from .families import (build_symmetric, distinction_witness_mu,
                       incidence_ideal, lower_half_ideal,
                       lower_half_with_selection, middle_level_pairs,
                       perm_length, perm_table, perm_to_element,
                       principal_2n_ideal, rank_leq)
from .parabolic import (ParabolicSubset, build_parabolic, is_right_invariant,
                        quotient_ideal)
from .topology import (DistinctionReport, GradedRanks, HausdorffReport,
                       euler_omega, flag_poincare, hausdorff_bound,
                       homotopy_distinction, incidence_betti, omega_betti,
                       omega2n_closed_form, quotient_homology,
                       splitting_check, thickening_ranks)
from .weyl import WeylGroup, bipartite_w0_word, default_bipartition, generate

__version__ = "0.1.0"

__all__ = [
    "BBWReport", "BruhatOrder", "BudgetExceededError", "CartanType",
    "DistinctionReport", "GradedRanks", "HausdorffReport", "Ideal",
    "IdealClass", "InvalidInputError", "ParabolicSubset", "RootSystem",
    "SheafCaseReport", "ShortSmallReport", "VerificationError",
    "WeylGroup", "WeylkitError", "bbw_cohomology", "bipartite_w0_word",
    "build_order", "build_parabolic", "build_root_system",
    "build_symmetric", "classify", "classify_weight",
    "default_bipartition", "distinction_witness_mu",
    "enumerate_balanced", "euler_omega", "flag_poincare", "generate",
    "hausdorff_bound", "homotopy_distinction", "ideal_from_elements",
    "ideal_from_json_dict", "ideal_to_json_dict", "incidence_betti",
    "incidence_ideal", "is_downward_closed", "is_right_invariant",
    "is_small", "leq", "lower_half_ideal", "lower_half_with_selection",
    "middle_level_pairs", "minimal_generators", "omega2n_closed_form",
    "omega_betti", "orthogonal", "parse_type", "perm_length",
    "perm_table", "perm_to_element", "positive_coroots",
    "principal_2n_ideal", "principal_ideal", "quotient_homology",
    "quotient_ideal", "rank_leq", "sheaf_cohomology_cases",
    "splitting_check", "thickening_ranks", "verify_short_small",
    "weyl_act", "weyl_dimension",
]
