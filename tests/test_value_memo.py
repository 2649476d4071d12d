"""The value caches of l_eval, int_eval, i_coeff, t_cusp_reg and the R words.

Each evaluator keeps the values it returns, keyed on its normalized arguments,
the budget and `mp.prec`, in a bounded `lru_cache` on the private function
that computes them.  A raise is not kept, and `l_eval`'s small-Im-tau warning
fires on hits too.
"""

import hashlib
import sys
from functools import lru_cache

import pytest
from mpmath import mp, mpc

from eistau import clear_caches, eisenstein, exppoly, integrals, lseries, mmv
from eistau.algebra import CompositeIndex, make_index
from eistau.config import BudgetError, SingularParameterError, TruncationBudget
from eistau.integrals import int_eval
from eistau.lseries import l_eval
from eistau.mmv import MonomialCoefficientRequest, i_coeff, t_cusp_reg
from eistau.verify import run_suite

BUDGET = TruncationBudget(1e-30, 100_000)
LOOSE = TruncationBudget(1e-20, 100_000)
TAU = mpc("0.2", "1.1")

EVALUATORS = {
    "l_eval": lambda budget: l_eval(make_index([2, 3], [1, 2], 1), TAU, budget),
    "int_eval": lambda budget: int_eval(make_index([3, 2], [2, 1]), TAU, budget),
    "i_coeff": lambda budget: i_coeff((2, 3), (1, 2), budget),
    "t_cusp_reg": lambda budget: t_cusp_reg(3, 7, budget),
}
# the function whose cache keeps each evaluator's values
VALUE_CACHES = {"l_eval": lseries._l_value, "int_eval": integrals._int_value,
                "i_coeff": mmv._i_coeff, "t_cusp_reg": mmv._t_cusp_reg, "R words": mmv._r_value}


@pytest.fixture
def reached(monkeypatch):
    """Names of the computing steps reached: a cutoff search, a series read at
    tau, or an R word of `mmv`."""
    calls = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for mod in (eisenstein, integrals, lseries, mmv):
        monkeypatch.setattr(mod, "tail_start", spy("tail_start", mod.tail_start))
    monkeypatch.setattr(exppoly._Rows, "read", spy("_Rows.read", exppoly._Rows.read))
    monkeypatch.setattr(mmv, "_r", spy("_r", mmv._r))
    return calls


@pytest.mark.parametrize("name", EVALUATORS)
def test_second_call_with_the_same_key_computes_nothing(name, reached):
    clear_caches()
    first = EVALUATORS[name](BUDGET)
    assert reached
    reached.clear()
    again = EVALUATORS[name](BUDGET)
    assert reached == []
    assert again._mpc_ == first._mpc_


@pytest.mark.parametrize("name", EVALUATORS)
def test_memo_keys_on_precision_and_budget(name):
    settings = [(dps, budget) for dps in (40, 50, 40) for budget in (BUDGET, LOOSE)]
    clear_caches()
    warm = []
    for dps, budget in settings:
        with mp.workdps(dps):
            warm.append(EVALUATORS[name](budget)._mpc_)
    assert len(set(warm)) == 4  # two precisions by two budgets, each its own value
    for (dps, budget), value in zip(settings, warm):
        clear_caches()
        with mp.workdps(dps):
            assert EVALUATORS[name](budget)._mpc_ == value


def test_l_eval_warns_on_a_hit():
    idx, tau = make_index([2], [1]), mpc("0.1", "0.08")
    with pytest.warns(UserWarning, match="< 0.1") as cold:
        first = l_eval(idx, tau, BUDGET)
    with pytest.warns(UserWarning, match="< 0.1") as hit:
        assert l_eval(idx, tau, BUDGET) is first
    assert cold[0].filename == hit[0].filename == __file__


@pytest.mark.parametrize("name", EVALUATORS)
def test_a_raise_is_not_kept(name):
    tiny = TruncationBudget(1e-30, 3)
    clear_caches()
    for calls in (1, 2):
        with pytest.raises(BudgetError):
            EVALUATORS[name](tiny)
        assert VALUE_CACHES[name].cache_info().misses == calls  # computed afresh
    assert not any(cache.cache_info().currsize for cache in VALUE_CACHES.values())


def test_argument_raises_repeat():
    for _ in range(2):
        with pytest.raises(SingularParameterError):
            t_cusp_reg(3, 6, BUDGET)
        with pytest.raises(ValueError, match="t = 1"):
            int_eval(make_index([2], [1], 1), TAU, BUDGET)
        with pytest.raises(ValueError, match="Im tau"):
            l_eval(make_index([2], [1]), mpc(0, -1), BUDGET)
        with pytest.raises(ValueError, match="alpha = 4"):
            i_coeff((2,), (4,), BUDGET)


def test_keys_are_normalized_to_tuples():
    clear_caches()
    value = i_coeff((2, 3), (1, 2), BUDGET)
    assert i_coeff(MonomialCoefficientRequest([2, 3], [1, 2]), budget=BUDGET) is value
    assert mmv._i_coeff.cache_info().currsize == 1
    value = int_eval(make_index([3, 2], [2, 1]), TAU, BUDGET)
    assert int_eval(CompositeIndex([3, 2], [2, 1]), TAU, BUDGET) is value
    assert integrals._int_value.cache_info().currsize == 1


@pytest.fixture
def two_entry_caches(monkeypatch):
    """The row-table cache and the five value caches cut to two entries."""
    caches = [lru_cache(maxsize=2)(exppoly._rows.__wrapped__)]
    for mod in (exppoly, integrals, lseries):  # every binding of the table factory
        monkeypatch.setattr(mod, "_rows", caches[0])
    for fn in VALUE_CACHES.values():
        caches.append(lru_cache(maxsize=2)(fn.__wrapped__))
        monkeypatch.setattr(sys.modules[fn.__module__], fn.__name__, caches[-1])
    clear_caches()
    return caches


def test_evicted_entries_recompute_the_same_bits(two_entry_caches):
    # an evicted table lives on inside the outer one that holds it, a
    # rebuilt one has the same bits by the truncation prefix, and an evicted
    # value is recomputed from either
    from test_integrals import test_fold_values_bit_identical
    from test_lseries import test_l_values_bit_identical
    from test_verify import SMALL_REPORT_SHA256

    for suite in ("stuffle", "shuffle", "symmetry", "fund"):
        text = run_suite(suite, "small").to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == SMALL_REPORT_SHA256[suite], suite
    test_fold_values_bit_identical()  # PINNED_FOLD_SHA256
    test_l_values_bit_identical()  # PINNED_L_SHA256
    for cache in two_entry_caches:
        info = cache.cache_info()
        assert info.misses > info.maxsize, (cache.__name__, info)  # it evicted
