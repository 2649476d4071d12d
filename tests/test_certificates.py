"""Certified truncation bounds checked against the realized error.

Each seeded case is computed at eps 1e-30 and 40 digits, and again at
eps * 1e-10 with 20 more digits; the two must agree to eps.  The cases cover
Re tau in [-40, 40], Im tau in [0.15, 1.5] and weights k <= 5, and R words at
i: const-cusp words with |Einf| > 1 and cusp words up to alpha = 2k-1.
`s_coeff` is left out: it scales R values by (2 pi)^{2k-1} C(2k-2, a-1) and
claims no eps bound of its own.
"""

import random

from mpmath import mp, mpc, mpf

from eistau.algebra import make_index
from eistau.config import BudgetError, TruncationBudget
from eistau.eisenstein import CONST, CUSP, eis_cusp_eval
from eistau.integrals import int_eval
from eistau.lseries import l_eval
from eistau.mmv import r_iter

EPS = 1e-30
N_MAX = 400_000


def _tau(rng):
    tau = mpc(rng.randint(-400, 400) / 10, rng.randint(15, 150) / 100)
    return tau, mp.nstr(tau, 4)


def _word(rng, depth, alpha_lo=1):
    ks = [rng.randint(2, 5) for _ in range(depth)]
    return ks, [rng.randint(alpha_lo, 3) for _ in range(depth)]


def _cases(seed=2019):
    rng = random.Random(seed)
    # the corners of the tau range, then seeded draws
    yield "int_eval (5; 3) at 40+0.15i", lambda b: int_eval(make_index([5], [3]), mpc(40, 0.15), b)
    yield "l_eval (5; 3; t=2) at -40+0.15i", \
        lambda b: l_eval(make_index([5], [3], 2), mpc(-40, 0.15), b)
    yield "eis_cusp_eval 5 at -40+0.15i", lambda b: eis_cusp_eval(5, mpc(-40, 0.15), b)
    for _ in range(48):
        idx, (tau, at) = make_index(*_word(rng, rng.randint(1, 3))), _tau(rng)
        yield f"int_eval {idx} at {at}", lambda b, idx=idx, tau=tau: int_eval(idx, tau, b)
    for _ in range(24):
        idx = make_index(*_word(rng, rng.randint(1, 3)), rng.randint(1, 2))
        tau, at = _tau(rng)
        yield f"l_eval {idx} at {at}", lambda b, idx=idx, tau=tau: l_eval(idx, tau, b)
    for _ in range(12):
        k, (tau, at) = rng.randint(2, 5), _tau(rng)
        yield f"eis_cusp_eval {k} at {at}", lambda b, k=k, tau=tau: eis_cusp_eval(k, tau, b)
    for depth in (1,) * 6 + (2,) * 6:
        # depth-1 words also take exponents <= 0 (the incomplete-gamma sum)
        ks, alphas = _word(rng, depth, -2 if depth == 1 else 1)
        word = [(CUSP, k) for k in ks]
        yield f"r_iter {word} {alphas}", \
            lambda b, word=word, alphas=alphas: r_iter(word, alphas, b)
    # const words whose constant exceeds 1 (|Einf| 13.2 and 140.7), then depth-2
    # cusp words with exponents up to 2k-1, the R words that s_coeff folds
    words = [([(CONST, 10), (CUSP, 2)], [1, 1]), ([(CONST, 11), (CUSP, 3)], [2, 1])]
    for _ in range(8):
        ks = [rng.randint(2, 5) for _ in range(2)]
        words.append(([(CUSP, k) for k in ks], [rng.randint(1, 2 * k - 1) for k in ks]))
    for word, alphas in words:
        yield f"r_iter {word} {alphas}", \
            lambda b, word=word, alphas=alphas: r_iter(word, alphas, b)


def test_certified_bounds_hold_against_realized_error():
    coarse = TruncationBudget(EPS, N_MAX)
    fine = TruncationBudget(EPS * 1e-10, N_MAX)
    ratios, skipped = [], []
    for label, value in _cases():
        try:
            with mp.workdps(40):
                v = value(coarse)
            with mp.workdps(60):
                ratios.append((abs(v - value(fine)) / mpf(EPS), label))
        except BudgetError:
            skipped.append(label)
    worst, where = max(ratios)
    print(f"{len(ratios)} cases, {len(skipped)} BudgetError skips, "
          f"worst |diff|/eps = {mp.nstr(worst, 3)} ({where})")
    assert worst <= 1, f"worst |diff|/eps = {mp.nstr(worst, 3)} at {where}"
    assert len(skipped) <= len(ratios) // 4, skipped
