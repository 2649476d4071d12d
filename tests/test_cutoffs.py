"""Cutoffs sized in doubles against the mpf sizing they replaced.

Every fold and L-series takes its frequency cutoff N and its fixed-point bits
B from the certificate record of its chain and a few logs in doubles
(`exppoly._certificate`, `_log_majorant`, `_log_lead`).  The reference here
is the sizing that ran in mpf before: the fold majorant's
coefficients c_d (2 pi)^-h as mpf, summed by mp.polyval at 2 pi |tau|, the
L prefactor (2 pi)^-h |tau|^t, each tail bound divided in mpf, and B from
mp.mag of the lead.  Both must give the same (N, B) on a seeded grid, and the
double log C must lie within the rounding bound its docstring states.
"""

import hashlib
import random
import sys
from fractions import Fraction
from math import log, prod

import pytest
from mpmath import mp, mpc, mpf

from eistau import clear_caches, int_eval, l_eval, lseries, make_index
from eistau.config import BudgetError, TruncationBudget
from eistau.eisenstein import CONST, CUSP, _as_mpf, eis_constant, tail_start
from eistau.exppoly import (
    _BITS_STEP,
    _MIN_N_BITS,
    GUARD_BITS,
    LOG_2PI,
    LOG_ULPS,
    _certificate,
    _log2_ceil,
    _log_majorant,
    _majorants,
)
from eistau.integrals import _chain, _cutoff_bits

SETTINGS = [(dps, eps) for dps in (15, 40, 80) for eps in (1e-10, 1e-30, 1e-60)]


def _ref_log(x) -> float:
    """The log that tail_start took of an mpf bound before it took logs."""
    x_f = float(x)
    return log(x_f) if x_f > 1e-300 else float(mp.log(x))


def _ref_bits(power, n, spread, lead, eps) -> int:
    """`exppoly._fixed_bits` on the mpf lead, with mp.mag of lead and eps."""
    spread += (power + 1) * max(n.bit_length(), _MIN_N_BITS)
    need = spread + max(mp.prec + GUARD_BITS, mp.mag(lead) + 25 - mp.mag(eps)) - mp.prec
    return mp.prec + -(-need // _BITS_STEP) * _BITS_STEP


def _ref_scale(chain, tau, einf=Fraction(1)):
    """einf C in mpf: mp.polyval over c_d (2 pi)^-h, highest degree first."""
    (_, c, h), _ = _majorants(chain)
    coeffs = [_as_mpf(x) / (2 * mp.pi) ** h for x in reversed(c)]
    scale = mp.polyval(coeffs, 2 * mp.pi * abs(tau))
    return scale * _as_mpf(einf) if einf != 1 else scale


def _ref_fold(chain, tau, budget, einf=Fraction(1)) -> tuple:
    """(n_cut, B) of a fold as `integrals._cutoff_bits` sized them in mpf."""
    (power, c, _), (d_power, d, _) = _majorants(chain)
    scale = _ref_scale(chain, tau, einf)
    n_cut = tail_start(power, tau.imag, _ref_log(mpf(budget.eps) / (2 * scale)), budget.n_max)
    spread = max(_log2_ceil(x / y) for x, y in zip(d, c))
    return n_cut, _ref_bits(d_power, n_cut, spread, scale, budget.eps)


def _ref_l(index, tau, budget) -> tuple:
    """(N, B) of an L-series as `lseries._l_read` sized them in mpf."""
    (power, (c,), h), (d_power, (d,), _) = _majorants(lseries._chain(index.ks, index.alphas))
    scale = (2 * mp.pi) ** -h
    if index.t:
        scale *= abs(tau) ** index.t
    bound = mpf(budget.eps) / ((1 + scale) * _as_mpf(c))
    n = tail_start(power, tau.imag, _ref_log(bound), budget.n_max)
    lead = prod((index.depth - j) ** a for j, a in enumerate(index.alphas))  # 1 / c(r)
    return n, _ref_bits(d_power, n, _log2_ceil(d * lead), scale / lead, budget.eps)


class _Sized:
    """Stands in for a kept table in `_l_read`: keeps B, grows nothing."""

    def __init__(self, chain, bits):
        self.bits = bits

    def grow(self, n):
        pass


def _l_sized(index, tau, budget) -> tuple:
    table, n = lseries._l_read(index, tau, budget)
    return n, table.bits


def _einf(word) -> Fraction:
    return prod((abs(eis_constant(k)) for kind, k in word if kind == CONST), start=Fraction(1))


def _outcome(size, *args):
    try:
        return size(*args)
    except BudgetError:
        return BudgetError


def _grid(seed=2027, words=300):
    """Seeded words with cusp and const factors (a cusp innermost), depth 1-3,
    k 2-5, alpha 1-8, each with a t 0-2 for its L index, and tau with Re on
    [-40, 40] and Im log-uniform on [0.05, 3]."""
    rng = random.Random(seed)
    for _ in range(words):
        depth = rng.randint(1, 3)
        kinds = [rng.choice((CUSP, CONST)) for _ in range(depth - 1)] + [CUSP]
        word = tuple((kind, rng.randint(2, 5)) for kind in kinds)
        alphas = tuple(rng.randint(1, 8) for _ in range(depth))
        tau = mpc(rng.uniform(-40, 40), 0.05 * 60 ** rng.random())
        yield word, alphas, rng.randint(0, 2), tau


GRID = list(_grid())


def test_cutoffs_equal_the_mpf_sizing_on_the_grid(monkeypatch):
    # every (N, B) of every fold and L index of the grid, at every precision
    # and eps, equals the mpf sizing's, BudgetError included
    monkeypatch.setattr(lseries, "_rows", _Sized)
    cases = raised = 0
    for word, alphas, t, tau in GRID:
        chain, einf = _chain(word, alphas), _einf(word)
        index = make_index([k for _, k in word], list(alphas), t)
        for dps, eps in SETTINGS:
            budget = TruncationBudget(eps)
            mp.dps = dps
            with mp.extradps(15):  # the precision a fold is sized at
                got = _outcome(_cutoff_bits, chain, tau, budget, einf)
                want = _outcome(_ref_fold, chain, tau, budget, einf)
                assert got == want, (word, alphas, tau, dps, eps)
            with mp.extradps(10):  # and an L-series
                got_l = _outcome(_l_sized, index, tau, budget)
                assert got_l == _outcome(_ref_l, index, tau, budget), (index, tau, dps, eps)
            cases += 2
            raised += (got is BudgetError) + (got_l is BudgetError)
    assert cases == 2 * 9 * len(GRID) == 5400 and raised == 0
    assert any(kind == CONST for word, *_ in GRID for kind, _ in word)


def _log_c_check(cert, chain, tau, einf) -> bool:
    """True if the double log (einf C) of `_log_majorant` on the record `cert`
    lies within its docstring bound of log (einf C) at 60 digits, and its
    upper bound above it."""
    log_c, upper = _log_majorant(cert, tau, einf)
    with mp.workdps(60):
        exact = mp.log(_ref_scale(chain, tau, einf))
        x = float(mp.log(2 * mp.pi * abs(tau)))
    p, q = log(einf.numerator), log(einf.denominator)
    top_degree = len(cert.logs) - 1
    beta = LOG_ULPS * (1 + cert.size + top_degree * (1 + abs(x)) + abs(p) + abs(q) + abs(log_c))
    return abs(log_c - exact) <= beta and exact <= upper


def test_double_log_majorant_within_its_stated_bound():
    # over the grid; a planted relative change of 1e-6 in the log of the
    # dominant coefficient (the largest l_d + d log(2 pi |tau|)) must fail
    # every case
    planted_passed = []
    for word, alphas, _, tau in GRID:
        chain, einf = _chain(word, alphas), _einf(word)
        cert = _certificate(chain)
        assert _log_c_check(cert, chain, tau, einf), (word, alphas, tau)
        x = LOG_2PI + log(abs(complex(tau)))
        logs = list(cert.logs)
        d = max(range(len(logs)), key=lambda j: logs[j] + j * x)
        logs[d] *= 1 + 1e-6
        planted = cert._replace(logs=tuple(logs))
        if _log_c_check(planted, chain, tau, einf):
            planted_passed.append((word, alphas, tau))
    assert planted_passed == []


# Values of exponents whose majorant scales pass the double range (C = 1e372 at
# Int(2;300) and 0.1 + 1.2i), cold at 40 digits: sha256 of their raw parts,
# pinned from the mpf sizing.
EXTREME = (("int", (2,), (300,)), ("int", (2, 2, 2), (100, 100, 100)), ("int", (2,), (400,)),
           ("l", (2,), (400,)), ("l", (2, 2, 2), (100, 100, 100)))
EXTREME_TAUS = (("0.1", "1.2"), ("-40", "0.9"))  # parsed at 40 digits
EXTREME_SHA256 = "5fa0d9a1ca8015b493d3df019ff3bff91a8535f70d83acb745bc73c680c68e58"


def _mpc_digest(values) -> str:
    """sha256 of the raw (sign, mantissa, exponent, bitcount) parts of mpc values."""
    h = hashlib.sha256()
    for v in values:
        for part in v._mpc_:
            h.update((",".join(str(int(x)) for x in part) + ";").encode())
    return h.hexdigest()


def test_extreme_exponents_keep_their_bits():
    values = []
    for kind, ks, alphas in EXTREME:
        for tau in EXTREME_TAUS:
            clear_caches()
            evaluate = int_eval if kind == "int" else l_eval
            values.append(evaluate(make_index(list(ks), list(alphas)), mpc(*tau)))
    assert _mpc_digest(values) == EXTREME_SHA256


@pytest.mark.parametrize("ks,alphas", [((2,), (300,)), ((2, 2, 2), (100, 100, 100)),
                                       ((2,), (400,))])
def test_cutoffs_past_the_double_range(ks, alphas):
    # a majorant scale sized as a plain double overflows on these chains
    # (OverflowError at Int(2;300) and Int(2,2,2;100,100,100)); its log does
    # not, and gives the mpf sizing's (N, B), for the L index of the same
    # shape too
    chain = _chain(tuple((CUSP, k) for k in ks), alphas)
    index = make_index(list(ks), list(alphas))
    budget = TruncationBudget()
    for tau in (mpc(*parts) for parts in EXTREME_TAUS):
        with mp.extradps(15):
            assert mp.log(_ref_scale(chain, tau)) > log(sys.float_info.max)
            assert _cutoff_bits(chain, tau, budget) == _ref_fold(chain, tau, budget)
        with mp.extradps(10):
            table, n = lseries._l_read(index, tau, budget)
            assert (n, table.bits) == _ref_l(index, tau, budget)


def test_cutoffs_at_re_tau_past_the_double_range():
    # |tau| beyond the largest double: log |tau| comes from its exponent, and
    # (N, B) are the mpf sizing's
    budget = TruncationBudget()
    chain, index = _chain(((CUSP, 2),), (1,)), make_index([2], [1], 1)
    for tau in (mpc("1e400", 1), mpc("-3e350", "0.7")):
        with mp.extradps(15):
            assert _cutoff_bits(chain, tau, budget) == _ref_fold(chain, tau, budget)
        with mp.extradps(10):
            table, n = lseries._l_read(index, tau, budget)
            assert (n, table.bits) == _ref_l(index, tau, budget)
        assert mp.isfinite(abs(int_eval(make_index([2], [1]), tau, budget)))
