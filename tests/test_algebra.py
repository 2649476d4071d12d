from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eistau.algebra import (
    CompositeIndex,
    FormalSum,
    lseries_gen,
    make_index,
    parse_formal_sum,
    parse_generator,
    tau_integral_gen,
)


def test_make_index_minimal():
    idx = make_index([2], [1], 0)
    assert idx.ks == (2,) and idx.alphas == (1,) and idx.t == 0
    assert idx.depth == 1 and idx.upper_weight == 2 and idx.lower_weight == 1


def test_make_index_depth_zero():
    idx = make_index([], [], 0)
    assert idx.depth == 0
    assert idx.upper_weight == 0 and idx.lower_weight == 0


@pytest.mark.parametrize(
    "ks,alphas,t",
    [
        ([2], [0], 0),
        ([1], [1], 0),
        ([2], [1], -1),
        ([2, 3], [1], 0),
    ],
)
def test_make_index_rejects(ks, alphas, t):
    with pytest.raises(ValueError):
        make_index(ks, alphas, t)


@pytest.mark.parametrize(
    "ks,alphas,t",
    [
        ((2,), (1,), -1),
        ((2,), (0,), 0),
        ((1,), (1,), 0),
        ((2,), (-1,), 0),
        ((2, 3), (1,), 0),
    ],
)
def test_composite_index_rejects_when_built(ks, alphas, t):
    # l_eval reads its index unchecked, so an invalid one must not be buildable
    with pytest.raises(ValueError):
        CompositeIndex(ks, alphas, t)


def test_make_index_round_trips_fields():
    idx = make_index((2, 5), (4, 1), 2)
    assert list(idx.ks) == [2, 5]
    assert list(idx.alphas) == [4, 1]
    assert idx.t == 2


def test_generator_identity_and_ordering():
    g1 = lseries_gen([2, 3], [1, 2], 0)
    g2 = lseries_gen((2, 3), (1, 2), 0)
    assert g1 == g2 and hash(g1) == hash(g2)
    gi = tau_integral_gen([2, 3], [1, 2], 1)
    assert gi != g1
    assert sorted([gi, g1], key=lambda g: g.sort_key())[0] is gi  # "I" < "L"


def test_fs_combine_cancellation():
    g = lseries_gen([2], [1], 0)
    x = FormalSum.single(g)
    assert (x + x.scale(-1)).is_zero()


def test_fs_combine_identity_and_merge():
    g = lseries_gen([2], [1], 0)
    assert FormalSum() + FormalSum.single(g).scale(1) == FormalSum.single(g)
    two = FormalSum.single(g, 2)
    three = FormalSum.single(g, 3)
    assert two + three.scale(Fraction(1, 3)) == FormalSum.single(g, 3)


def test_fs_equal_exactness():
    g1 = lseries_gen([2], [1], 0)
    g2 = lseries_gen([3], [1], 0)
    half = FormalSum.single(g1, Fraction(1, 2))
    assert half + half == FormalSum.single(g1)
    assert (FormalSum.single(g1) + FormalSum.single(g2)
            == FormalSum.single(g2) + FormalSum.single(g1))
    assert FormalSum.single(g1) != FormalSum.single(g2)


_gen_strategy = st.builds(
    lambda kind, ks, alphas, p: (lseries_gen if kind else tau_integral_gen)(ks, alphas[: len(ks)], p),
    st.booleans(),
    st.lists(st.integers(2, 4), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
    st.integers(0, 2),
)

_fs_strategy = st.lists(
    st.tuples(_gen_strategy, st.fractions(min_value=-3, max_value=3)), max_size=4
).map(lambda pairs: sum((FormalSum.single(g, c) for g, c in pairs), FormalSum()))


@settings(max_examples=60, deadline=None)
@given(_fs_strategy, _fs_strategy, _fs_strategy, st.fractions(min_value=-3, max_value=3))
def test_fs_algebra_laws(a, b, c, scalar):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a + b).scale(scalar) == a.scale(scalar) + b.scale(scalar)


@settings(max_examples=40, deadline=None)
@given(_fs_strategy, _fs_strategy)
def test_filtration_monotone_under_union(a, b):
    la, ua, wa = a.filtration_degrees()
    lb, ub, wb = b.filtration_degrees()
    s = a + b
    ls, us, ws = s.filtration_degrees()
    # cancellation can only lower degrees; without it they are the maxima
    if set(a.terms) | set(b.terms) == set(s.terms):
        assert (ls, us, ws) == (max(la, lb), max(ua, ub), max(wa, wb))
    else:
        assert ls <= max(la, lb) and us <= max(ua, ub) and ws <= max(wa, wb)


def test_generator_text_round_trip():
    for g in (
        lseries_gen([2, 3], [1, 2], 0),
        tau_integral_gen([2, 3], [1, 2], 1),
        lseries_gen([4], [3], 2),
    ):
        assert parse_generator(str(g)) == g


def test_formal_sum_text_round_trip():
    fs = FormalSum.single(lseries_gen([2], [1], 0), Fraction(-3, 2)) + FormalSum.single(
        tau_integral_gen([2, 3], [2, 1], 1), Fraction(5)
    )
    assert parse_formal_sum(str(fs)) == fs
    assert parse_formal_sum(str(FormalSum())) == FormalSum()


def test_parse_generator_rejects_mismatched_power_field():
    with pytest.raises(ValueError):
        parse_generator("L{ks=[2];alphas=[1];taupow=0}")
