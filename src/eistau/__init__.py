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

    Clears every value memo (`config._MEMOS`, each of at most 4,096 values
    keyed on the arguments, the budget and mp.prec: `lseries._l_memo` of
    `l_eval`, `integrals._int_memo` of `int_eval`, and in `mmv` the R words
    `_memo`, `_t_memo` of `t_cusp_reg` and `_i_memo` of `i_coeff`), the
    table of fold stages (`integrals`; each stage, keyed on its chain and
    mp.prec, carries its majorant and is grown in place to the
    largest n_cut so far; `int_eval` and `int_exppoly` keep every stage of a
    word, the R words of `mmv` all but the outermost), the J tables of
    elementary tail integrals that `word_eval` reads its outermost tail
    integral from (`integrals._tails`, one per tau and mp.prec, at most 8,
    each grown in place in n and in the power of s), the L-series
    coefficient tables of `l_eval` and `l_coeffs_dp` (`lseries`, each with
    its majorant and its series at the last precision), the
    divisor-sum sieve (`eisenstein`, under its lock), the Eisenstein
    constant terms as mpf (`eisenstein._constant_at`, keyed on k and
    mp.prec) and cusp parts (`eisenstein._cusp_at`, keyed on k, tau, the
    budget and mp.prec), the Chebyshev rules of the quadrature oracles
    (`quadrature`) and the exact conversion tables of the rewrite algebra
    (`rewrite._int_to_l_table` and `rewrite._l_to_int_table`, each bounded).
    mpmath's own caches (Bernoulli numbers, zeta values) are not reached.
    """
    from . import config, eisenstein, integrals, lseries, mmv, quadrature, rewrite

    for memo in config._MEMOS:
        memo.clear()
    integrals._stages.clear()
    integrals._tails.cache_clear()
    lseries._coeff_cache.clear()
    quadrature._rules.clear()
    rewrite._int_to_l_table.cache_clear()
    rewrite._l_to_int_table.cache_clear()
    eisenstein._constant_at.cache_clear()
    eisenstein._cusp_at.cache_clear()
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
