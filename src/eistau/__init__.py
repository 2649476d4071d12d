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

from .algebra import (
    CompositeIndex,
    FormalSum,
    Generator,
    fs_combine,
    fs_equal,
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

    Clears the memo of base-point integrals (`mmv`, R words keyed on
    mp.prec), the fold cache of `int_eval` and `int_exppoly` and the fold
    majorants (`integrals`; a fold is kept from its word's first evaluation on,
    at the largest n_cut so far), the L-series coefficient tables of `l_eval`
    and `l_coeffs_dp` (`lseries`), the divisor-sum sieve and the Bernoulli
    table (`eisenstein`; the sieve and the table under their locks, the table
    back to b_0 alone), the Chebyshev rules of the quadrature oracles
    (`quadrature`) and the exact conversion tables of the rewrite algebra
    (`rewrite._int_to_l_table` and `rewrite._l_to_int_table`).
    """
    from . import eisenstein, integrals, lseries, mmv, quadrature, rewrite

    mmv._memo.clear()
    integrals._folds.clear()
    integrals.fold_majorant.cache_clear()
    lseries._coeff_cache.clear()
    quadrature._rules.clear()
    rewrite._int_to_l_table.cache_clear()
    rewrite._l_to_int_table.cache_clear()
    with eisenstein._sigma_lock:
        eisenstein._sigma_tables.clear()
    with eisenstein._bernoulli_lock:
        del eisenstein._bernoulli_even[1:]


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
    "fs_combine",
    "fs_equal",
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
