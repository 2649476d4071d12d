"""Iterated Eisenstein tau-integrals, multiple Eisenstein L-series, and verification suites.

The engine evaluates weight-2k Eisenstein cusp parts, their iterated vertical
tail integrals, and the associated nested L-series on the upper half-plane at
configurable precision with certified truncation; it carries the exact-rational
rewrite algebra between the two families (shuffle, stuffle, and both conversion
maps), the base-point-i cocycle coefficients of length <= 2, and verification
suites with independent quadrature and enumeration oracles for every closed
form.
"""

__version__ = "0.1.0"

import sys

from .algebra import (
    CompositeIndex,
    FormalSum,
    Generator,
    lseries_gen,
    make_index,
    parse_formal_sum,
    parse_generator,
    tau_integral_gen,
)
from .config import (
    BudgetError,
    EngineConfig,
    SingularParameterError,
    TruncationBudget,
    configure,
)
from .eisenstein import bernoulli, divisor_sigma, eis_constant, eis_cusp_eval, eis_eval
from .exppoly import ExpPoly, elem_exp_tail
from .integrals import int_eval
from .lseries import l_coeffs_bruteforce, l_coeffs_dp, l_eval
from .mmv import (
    BiPolynomial,
    MonomialCoefficientRequest,
    e0_cocycle_S,
    i_coeff,
    int0_reg,
    r_iter,
    s_coeff,
    t_const_closed,
    t_const_const,
    t_cusp_reg,
    t_mixed_reduce,
    zeta_odd,
)
from .report import VerificationReport, emit
from .rewrite import int_to_l, l_to_int, shuffle_product, stuffle_product
from .verify import SUITES, run_suite


def clear_caches() -> None:
    """Empty the engine's caches; values computed afterwards are bit-identical.

    Every value and table the engine keeps is a bounded `functools.lru_cache`
    on the private function that makes it, keyed on its arguments, mp.prec
    among them wherever the value depends on it; each is found here by its
    `cache_clear`.  The divisor-sum sieve, one table per weight grown in
    place, is cleared under its lock.  mpmath's own caches (Bernoulli numbers,
    zeta values) are not reached.
    """
    from . import eisenstein

    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    with eisenstein._sigma_lock:
        eisenstein._sigma_tables.clear()


__all__ = [
    "BiPolynomial",
    "BudgetError",
    "CompositeIndex",
    "EngineConfig",
    "ExpPoly",
    "FormalSum",
    "Generator",
    "MonomialCoefficientRequest",
    "SUITES",
    "SingularParameterError",
    "TruncationBudget",
    "VerificationReport",
    "__version__",
    "bernoulli",
    "clear_caches",
    "configure",
    "divisor_sigma",
    "e0_cocycle_S",
    "eis_constant",
    "eis_cusp_eval",
    "eis_eval",
    "elem_exp_tail",
    "emit",
    "i_coeff",
    "int0_reg",
    "int_eval",
    "int_to_l",
    "l_coeffs_bruteforce",
    "l_coeffs_dp",
    "l_eval",
    "l_to_int",
    "lseries_gen",
    "make_index",
    "parse_formal_sum",
    "parse_generator",
    "r_iter",
    "run_suite",
    "s_coeff",
    "shuffle_product",
    "stuffle_product",
    "t_const_closed",
    "t_const_const",
    "t_cusp_reg",
    "t_mixed_reduce",
    "tau_integral_gen",
    "zeta_odd",
]
