from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf

from eistau import clear_caches, rewrite, verify
from eistau.algebra import TAU_INTEGRAL, FormalSum, Generator, lseries_gen, tau_integral_gen
from eistau.config import TruncationBudget
from eistau.integrals import int_eval
from eistau.lseries import l_eval
from eistau.rewrite import (
    convert_sum,
    int_to_l,
    l_to_int,
    numeric_value,
    round_trips,
    shuffle_product,
    shuffle_words,
    stuffle_product,
)

BUDGET = TruncationBudget(1e-30, 100_000)


# -- shuffle ---------------------------------------------------------------------


def test_shuffle_single_letters():
    a, b = (2, 1), (3, 2)
    fs = shuffle_product([a], [b])
    assert fs == FormalSum.single(tau_integral_gen([2, 3], [1, 2])) + FormalSum.single(
        tau_integral_gen([3, 2], [2, 1])
    )


def test_shuffle_unit():
    a = (2, 1)
    assert shuffle_product([a], []) == FormalSum.single(tau_integral_gen([2], [1]))


def test_shuffle_two_one():
    fs = shuffle_product([(2, 1), (3, 1)], [(4, 2)])
    expected = (
        FormalSum.single(tau_integral_gen([2, 3, 4], [1, 1, 2]))
        + FormalSum.single(tau_integral_gen([2, 4, 3], [1, 2, 1]))
        + FormalSum.single(tau_integral_gen([4, 2, 3], [2, 1, 1]))
    )
    assert fs == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_shuffle_word_count(r, s):
    u = tuple((2, i + 1) for i in range(r))
    v = tuple((3, i + 1) for i in range(s))
    words = list(shuffle_words(u, v))
    assert len(words) == comb(r + s, r)


def test_shuffle_multiplicity_accumulates():
    # identical letters: both interleavings coincide, coefficient 2
    fs = shuffle_product([(2, 1)], [(2, 1)])
    assert fs == FormalSum.single(tau_integral_gen([2, 2], [1, 1]), 2)


# -- conversions ------------------------------------------------------------------


def test_int_to_l_depth1_alpha1():
    fs = int_to_l(tau_integral_gen([2], [1]))
    assert fs == FormalSum.single(lseries_gen([2], [1], 0), -1)


def test_int_to_l_depth1_alpha2():
    fs = int_to_l(tau_integral_gen([2], [2]))
    expected = FormalSum.single(lseries_gen([2], [1], 1), -1) + FormalSum.single(
        lseries_gen([2], [2], 0), 1
    )
    assert fs == expected


def test_int_to_l_depth2_collapses():
    fs = int_to_l(tau_integral_gen([2, 2], [1, 1]))
    assert fs == FormalSum.single(lseries_gen([2, 2], [1, 1], 0))


def test_l_to_int_depth1_alpha1():
    fs = l_to_int(lseries_gen([2], [1], 0))
    assert fs == FormalSum.single(tau_integral_gen([2], [1], 0), -1)


def test_l_to_int_depth2_plus_sign():
    fs = l_to_int(lseries_gen([2, 3], [1, 1], 0))
    assert fs == FormalSum.single(tau_integral_gen([2, 3], [1, 1], 0))


def test_round_trip_specific():
    gen = lseries_gen([2], [2], 0)
    assert convert_sum(l_to_int(gen), "int2l") == FormalSum.single(gen)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(0, 2),
    st.booleans(),
)
def test_round_trip_patterns(alphas, t, start_integral):
    make = tau_integral_gen if start_integral else lseries_gen
    assert round_trips(make([2] * len(alphas), alphas, t))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(2, 5), st.integers(1, 4)), min_size=1, max_size=3),
    st.integers(0, 2),
)
def test_round_trip_generators(pairs, t):
    ks = [k for k, _ in pairs]
    alphas = [a for _, a in pairs]
    assert round_trips(tau_integral_gen(ks, alphas, t))
    assert round_trips(lseries_gen(ks, alphas, t))


def _round_trip_grid():
    """Both kinds of every roundtrip-suite generator on the full grid, the depth-3
    shapes at the mixed weights (3,2,4), and depth 4 with alpha <= 2, all at t <= 2."""
    shapes = list(verify._roundtrip_cases("full"))
    shapes += [((3, 2, 4), alphas, t) for alphas in product(range(1, 5), repeat=3)
               for t in range(3)]
    shapes += [((2, 3, 2, 4), alphas, t) for alphas in product((1, 2), repeat=4)
               for t in range(3)]
    return [make(ks, alphas, t) for ks, alphas, t in shapes
            for make in (tau_integral_gen, lseries_gen)]


def _literal_round_trip(g):
    """The round trip through the intermediate formal sum, the one round_trips skips."""
    there, back = ("int2l", "l2int") if g.kind == TAU_INTEGRAL else ("l2int", "int2l")
    return convert_sum(rewrite._convert(((g, 1),), there), back)


def test_round_trip_image_equals_the_literal_composition():
    clear_caches()
    for g in _round_trip_grid():
        image = rewrite._round_trip_sum(g)
        assert image == _literal_round_trip(g) == FormalSum.single(g), g
        assert all(type(c) is Fraction for c in image.terms.values())
        assert round_trips(g)


def _int_to_l_entries(alphas, ratio):
    """The integral -> series table from the module docstring, each factorial
    ratio (A - 1)! / (A - i)! taken from ratio(A, i)."""
    out = []

    def rec(j, carry, ivec, coeff):
        if j < 0:
            out.append((tuple(ivec), carry, coeff))
            return
        a = alphas[j] + carry
        for i in range(1, a + 1):
            rec(j - 1, a - i, [i] + ivec, coeff * (-1) ** i * ratio(a, i))

    rec(len(alphas) - 1, 0, [], 1)
    return 1, tuple(out)


def _l_to_int_entries(alphas, sign):
    """The series -> integral table from the module docstring, each binomial
    C(alpha - 1, i) carrying the sign sign(alpha, i)."""
    out = []

    def rec(j, i_next, rev, coeff):
        if j < 0:
            out.append((tuple(reversed(rev)), i_next, coeff))
            return
        a = alphas[j]
        for i in range(a):
            rec(j - 1, i, rev + [a - i + i_next], coeff * comb(a - 1, i) * sign(a, i))

    rec(len(alphas) - 1, 0, [], (-1) ** sum(alphas))
    return prod(factorial(a - 1) for a in alphas), tuple(out)


def _ratio(a, i):
    return factorial(a - 1) // factorial(a - i)


def _sign(a, i):
    return (-1) ** i


def _planted_ratio(a, i):
    return _ratio(a, i) + ((a, i) == (3, 2))


def _planted_sign(a, i):
    return -_sign(a, i) if (a, i) == (3, 1) else _sign(a, i)


def _generators_without_offset(kind, ks, image, denom, power=0):
    return {Generator(kind, ks, al, p): Fraction(v, denom) for al, p, v in image}


def test_reference_tables_equal_the_engine_tables():
    # the planted controls below change one factor of these copies
    for g in _round_trip_grid():
        assert _int_to_l_entries(g.alphas, _ratio) == rewrite._int_to_l_table(g.alphas)
        assert _l_to_int_entries(g.alphas, _sign) == rewrite._l_to_int_table(g.alphas)


# a planted defect of one table: the direction it breaks, and the broken table
PLANTED_TABLES = {
    "factorial-ratio": ("int2l", lambda alphas: _int_to_l_entries(alphas, _planted_ratio)),
    "binomial-sign": ("l2int", lambda alphas: _l_to_int_entries(alphas, _planted_sign)),
}


@pytest.mark.parametrize("plant", PLANTED_TABLES)
def test_planted_table_defects_fail_the_round_trip(plant, monkeypatch):
    direction, table = PLANTED_TABLES[plant]
    monkeypatch.setitem(rewrite._DIRECTIONS, direction, rewrite._DIRECTIONS[direction][:3] + (table,))
    clear_caches()
    try:
        failed = []
        for g in _round_trip_grid():
            literal = _literal_round_trip(g)
            assert rewrite._round_trip_sum(g) == literal, g
            assert round_trips(g) == (literal == FormalSum.single(g)), g
            if literal != FormalSum.single(g):
                failed.append(g)
        assert failed
    finally:
        monkeypatch.undo()
        clear_caches()  # no planted image stays kept
    assert all(round_trips(g) for g in failed)


def test_dropped_power_offset_fails_the_round_trip(monkeypatch):
    # the literal path builds every power itself and stays exact; the image that
    # round_trips builds at the generator's power is off from it where t > 0
    monkeypatch.setattr(rewrite, "_generators", _generators_without_offset)
    clear_caches()
    for g in _round_trip_grid():
        literal = _literal_round_trip(g)
        assert literal == FormalSum.single(g)
        assert round_trips(g) == (rewrite._round_trip_sum(g) == literal) == (g.power == 0), g


def test_round_trips_builds_no_intermediate_sum(monkeypatch):
    # only the image and FormalSum.single(gen) are built, and no generator of
    # the other family: the composition runs on the integer core
    built_sums, built_kinds = [], []
    init = FormalSum.__init__

    def counting_init(self, terms=None):
        built_sums.append(terms)
        init(self, terms)

    def counting_generator(kind, *args):
        built_kinds.append(kind)
        return Generator(kind, *args)

    monkeypatch.setattr(FormalSum, "__init__", counting_init)
    monkeypatch.setattr(rewrite, "Generator", counting_generator)
    gens = [tau_integral_gen([2, 3, 2], [3, 1, 4], 2), lseries_gen([3, 2], [4, 2], 1)]
    for cold in (True, False):
        if cold:
            clear_caches()
        for g in gens:
            built_sums.clear()
            built_kinds.clear()
            assert round_trips(g)
            assert len(built_sums) == 2 and built_kinds == [g.kind]


def _reference_int_to_l(g):
    """Integral -> series, term by term from the module docstring's formula."""
    out = []

    def rec(j, carry, ivec, coeff):
        if j < 0:
            out.append((lseries_gen(g.ks, ivec, g.power + carry), coeff))
            return
        a = g.alphas[j] + carry  # A_j
        for i in range(1, a + 1):
            ratio = Fraction(factorial(a - 1), factorial(a - i))
            rec(j - 1, a - i, [i] + ivec, coeff * (-1) ** i * ratio)

    rec(g.depth - 1, 0, [], Fraction(1))
    return out


def _reference_l_to_int(g):
    """Series -> integral, term by term from the module docstring's formula."""
    alphas = g.alphas
    pre = Fraction((-1) ** sum(alphas), prod(factorial(a - 1) for a in alphas))
    out = []
    for ivec in product(*(range(a) for a in alphas)):
        coeff = pre * (-1) ** sum(ivec) * prod(comb(a - 1, i) for a, i in zip(alphas, ivec))
        nxt = ivec[1:] + (0,)
        new_alphas = [a - i + n for a, i, n in zip(alphas, ivec, nxt)]
        out.append((tau_integral_gen(g.ks, new_alphas, g.power + ivec[0]), coeff))
    return out


def _reference_convert(fs, direction):
    expand = _reference_int_to_l if direction == "int2l" else _reference_l_to_int
    acc = {}
    for g, c in fs.terms.items():
        for h, d in expand(g):
            acc[h] = acc.get(h, Fraction(0)) + c * d
    return {h: v for h, v in acc.items() if v}


_TERMS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(2, 4), st.integers(1, 4)), min_size=1, max_size=3),
        st.integers(0, 2),
        st.integers(-12, 12).filter(bool),
        st.integers(1, 9),
    ),
    min_size=1,
    max_size=4,
)


def _draw_sum(make_gen, terms):
    return FormalSum._accumulate(
        (make_gen([k for k, _ in word], [a for _, a in word], p), Fraction(num, den))
        for word, p, num, den in terms
    )


@settings(max_examples=40, deadline=None)
@given(_TERMS, _TERMS)
def test_convert_sum_matches_fraction_reference(int_terms, l_terms):
    sums = {"int2l": _draw_sum(tau_integral_gen, int_terms),
            "l2int": _draw_sum(lseries_gen, l_terms)}
    for direction, fs in sums.items():
        other = "l2int" if direction == "int2l" else "int2l"
        # the other family's sum, mapped over: its expansion cancels back to it
        image = FormalSum(_reference_convert(sums[other], other))
        for src in (fs, image + fs):
            got = convert_sum(src, direction)
            assert got.terms == _reference_convert(src, direction)
            assert all(type(c) is Fraction and c for c in got.terms.values())
        assert convert_sum(image, direction) == sums[other]
        assert convert_sum(fs - fs, direction).is_zero()


def test_conversions_reject_wrong_kind_and_depth_zero():
    cases = [(int_to_l, "int2l", lseries_gen([2], [1], 0), tau_integral_gen([], [], 0)),
             (l_to_int, "l2int", tau_integral_gen([2], [1], 0), lseries_gen([], [], 0))]
    for conv, direction, wrong_kind, unit in cases:
        for bad in (wrong_kind, unit):
            with pytest.raises(ValueError):
                conv(bad)
            with pytest.raises(ValueError):
                convert_sum(FormalSum.single(bad), direction)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            round_trips(unit)
    with pytest.raises(ValueError, match="int_to_l expects a tau-integral generator"):
        int_to_l(lseries_gen([2], [1], 0))
    with pytest.raises(ValueError, match="l_to_int expects an L-series generator"):
        l_to_int(tau_integral_gen([2], [1], 0))
    with pytest.raises(ValueError, match="depth must be >= 1"):
        int_to_l(tau_integral_gen([], [], 0))


@pytest.mark.parametrize(
    "gen",
    [
        tau_integral_gen([2], [2]),
        tau_integral_gen([2, 3], [2, 1]),
        tau_integral_gen([2, 2], [1, 2], 1),
    ],
)
def test_int_to_l_numeric_faithfulness(gen):
    for tau in (mpc(0, 1), mpc(0, 2), mpc("0.3333333333333333333333333333333333", "1")):
        lhs = tau**gen.power * int_eval(gen.index(), tau, BUDGET)
        rhs = numeric_value(int_to_l(gen), tau, BUDGET)
        assert abs(lhs - rhs) < mpf("1e-12")


@pytest.mark.parametrize(
    "gen",
    [
        lseries_gen([2], [2], 0),
        lseries_gen([2, 3], [2, 3], 1),
        lseries_gen([3, 2], [1, 2], 0),
    ],
)
def test_l_to_int_numeric_faithfulness(gen):
    for tau in (mpc(0, 1), mpc(0, 2), mpc("0.3333333333333333333333333333333333", "1")):
        lhs = l_eval(gen.index(), tau, BUDGET)
        rhs = numeric_value(l_to_int(gen), tau, BUDGET)
        assert abs(lhs - rhs) < mpf("1e-12")


# -- stuffle ---------------------------------------------------------------------


def test_stuffle_depth11():
    fs = stuffle_product(lseries_gen([2], [1], 0), lseries_gen([3], [1], 0))
    assert fs == FormalSum.single(lseries_gen([2, 3], [1, 1], 0)) + FormalSum.single(
        lseries_gen([3, 2], [1, 1], 0)
    )


def test_stuffle_depth11_weights12():
    fs = stuffle_product(lseries_gen([2], [1], 0), lseries_gen([3], [2], 0))
    expected = (
        FormalSum.single(lseries_gen([2, 3], [1, 2], 0))
        + FormalSum.single(lseries_gen([2, 3], [2, 1], 0))
        + FormalSum.single(lseries_gen([3, 2], [2, 1], 0))
    )
    assert fs == expected


def test_stuffle_rejects_nonzero_t():
    with pytest.raises(ValueError):
        stuffle_product(lseries_gen([2], [1], 1), lseries_gen([3], [1], 0))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.integers(2, 4), st.integers(1, 3)), min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(2, 4), st.integers(1, 3)), min_size=1, max_size=2),
)
def test_stuffle_weight_bookkeeping(left, right):
    g1 = lseries_gen([k for k, _ in left], [a for _, a in left], 0)
    g2 = lseries_gen([k for k, _ in right], [a for _, a in right], 0)
    fs = stuffle_product(g1, g2)
    target_lower = g1.lower_weight + g2.lower_weight
    target_upper = g1.upper_weight + g2.upper_weight
    target_depth = g1.depth + g2.depth
    for g, _ in fs:
        assert g.lower_weight == target_lower
        assert g.upper_weight == target_upper
        assert g.depth == target_depth
    # distinct-letter interleaving count
    if set(g1.ks).isdisjoint(set(g2.ks)):
        patterns = {g.ks for g, _ in fs}
        assert len(patterns) == comb(g1.depth + g2.depth, g1.depth)


@pytest.mark.parametrize(
    "left,right",
    [
        (((2,), (1,)), ((3,), (2,))),
        (((2,), (2,)), ((2, 3), (1, 1))),
        (((2, 2), (1, 1)), ((3, 3), (1, 2))),
    ],
)
def test_stuffle_numeric_closure(left, right):
    g1 = lseries_gen(left[0], left[1], 0)
    g2 = lseries_gen(right[0], right[1], 0)
    tau = mpc(0, 1)
    lhs = l_eval(g1.index(), tau, BUDGET) * l_eval(g2.index(), tau, BUDGET)
    rhs = numeric_value(stuffle_product(g1, g2), tau, BUDGET)
    assert abs(lhs - rhs) < mpf("1e-15")
