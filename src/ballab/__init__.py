"""Exact balancing-number sequences, identity suites, and bounded power searches."""

__version__ = "0.1.0"

from .bigmath import (
    PowerDecomposition,
    gcd,
    integer_kth_root,
    perfect_power_decompose,
    strip_prime,
    valuation,
)
from .diophantine import (
    EquationTag,
    Parity,
    SearchConfig,
    SolutionRecord,
    oracle_search,
    search_cube_sum,
    search_product_form,
    search_special_form,
    search_square_diff,
    search_sum_power,
)
from .modular import PeriodResult, period, power_residue_sieve, residue_class_mod9, two_adic_law
from .quadring import ALPHA, QuadInt, binet_extract, qpow
from .sequences import (
    SeqTerm,
    SequenceKind,
    balancer,
    term,
    term_range,
)

__all__ = [
    "__version__",
    "ALPHA",
    "EquationTag",
    "Parity",
    "PeriodResult",
    "PowerDecomposition",
    "QuadInt",
    "SearchConfig",
    "SeqTerm",
    "SequenceKind",
    "SolutionRecord",
    "balancer",
    "binet_extract",
    "gcd",
    "integer_kth_root",
    "oracle_search",
    "perfect_power_decompose",
    "period",
    "power_residue_sieve",
    "qpow",
    "residue_class_mod9",
    "search_cube_sum",
    "search_product_form",
    "search_special_form",
    "search_square_diff",
    "search_sum_power",
    "strip_prime",
    "term",
    "term_range",
    "two_adic_law",
    "valuation",
]
