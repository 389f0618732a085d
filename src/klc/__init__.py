"""Exact verification of Kloosterman-moment and ternary-code identities
for the matrix groups SO(3, q), O(3, q) and Sp(2, q) over GF(3^r).

Everything is integer or rational arithmetic; no identity is ever checked
with a tolerance.
"""

from .charsums import (MomentTable, delta_table, delta_table_brute, kloosterman_all,
                       kloosterman_all_brute, kloosterman_gl, kloosterman_gl_brute,
                       moment_table, prop_e_check, salie_check)
from .codes import (WeightDistribution, code_length, dual_codeword, dual_spectrum,
                    dual_weight_formula, dual_weights, pless_check, pless_sum, stirling2,
                    weight_distribution_dp, weight_distribution_macwilliams)
from .eisenstein import CycInt, additive_char, char_sum
from .errors import FieldConfigError, UnsupportedScaleError, VerificationError
from .field import Field, default_modulus, is_irreducible
from .groups import (brute_force_group, enumerate_group, gauss_sum_closed,
                     gauss_sum_enumerated, group_order, iter_group, mat_mul, mat_trace,
                     trace_spectrum, trace_spectrum_closed)
from .moments import RecursionReport, corollary_n, theorem_a1, theorem_a2, theorem_l

__version__ = "0.1.0"

__all__ = [
    "CycInt", "Field", "MomentTable", "RecursionReport", "WeightDistribution",
    "FieldConfigError", "UnsupportedScaleError", "VerificationError",
    "additive_char", "brute_force_group", "char_sum", "code_length",
    "corollary_n", "default_modulus", "delta_table", "delta_table_brute", "dual_codeword",
    "dual_spectrum", "dual_weight_formula", "dual_weights", "enumerate_group",
    "gauss_sum_closed", "gauss_sum_enumerated", "group_order", "is_irreducible",
    "iter_group", "kloosterman_all", "kloosterman_all_brute", "kloosterman_gl",
    "kloosterman_gl_brute", "mat_mul", "mat_trace", "moment_table", "pless_check",
    "pless_sum", "prop_e_check", "salie_check", "stirling2", "theorem_a1", "theorem_a2",
    "theorem_l", "trace_spectrum", "trace_spectrum_closed", "weight_distribution_dp",
    "weight_distribution_macwilliams",
]
