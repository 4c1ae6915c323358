import ast
import sys
from math import comb, factorial
from pathlib import Path

from hypothesis import given, settings, strategies as st
import pytest

import kostka
from kostka.polynomials import (
    ONE,
    NotDivisible,
    TPoly,
    ZERO,
    exact_divide,
    not_divisible_count,
    t_binomial,
    t_factorial,
    t_integer,
    t_quotient,
)


def tpolys(max_exp=8, max_coeff=9, max_terms=6):
    return st.dictionaries(
        st.integers(0, max_exp), st.integers(-max_coeff, max_coeff), max_size=max_terms
    ).map(TPoly)


# coefficients past one slot width and at its edges, so sums and products must widen
wide_coeffs = st.one_of(
    st.integers(-2**200, 2**200),
    st.sampled_from([2**62, 2**63 - 1, -2**63, 2**63, 2**127 - 1, -2**127]),
)
wide_tpolys = st.dictionaries(st.integers(0, 12), wide_coeffs, max_size=8).map(TPoly)


def dict_sum(a, b, sign=1):
    """Coefficientwise reference for the packed a + sign * b."""
    d = dict(a.items())
    for e, c in b.items():
        d[e] = d.get(e, 0) + sign * c
    return {e: c for e, c in d.items() if c}


# --- representation ---

def test_construction_drops_zero_coefficients():
    assert TPoly({0: 1, 3: 0}) == TPoly({0: 1})
    assert not TPoly({})
    assert TPoly([(1, 1), (1, -1)]) == ZERO


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        TPoly({-1: 1})
    with pytest.raises(ValueError):
        TPoly.term(1, -2)
    with pytest.raises(ValueError):
        ONE.shift(-1)


def test_degree_and_coeff():
    p = TPoly({1: 1, 3: 5})
    assert p.degree() == 3
    assert p.coeff(3) == 5
    assert p.coeff(2) == 0
    assert ZERO.degree() == -1
    assert p.leading_term() == (3, 5)
    assert ZERO.leading_term() == (-1, 0)


# --- arithmetic ---

def test_add_sub_mul_basics():
    a = TPoly({0: 1, 1: 1})            # 1 + t
    b = TPoly({1: 1, 2: 1})            # t + t^2
    assert a + b == TPoly({0: 1, 1: 2, 2: 1})
    assert a * ZERO == ZERO
    assert a * TPoly({0: 1, 1: 1, 2: 1}) == TPoly({0: 1, 1: 2, 2: 2, 3: 1})
    assert (a - a) == ZERO
    assert -a == TPoly({0: -1, 1: -1})


@settings(max_examples=1000)
@given(tpolys(), tpolys(), tpolys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=500)
@given(wide_tpolys, wide_tpolys, st.integers(0, 70))
def test_packed_sums_match_the_coefficientwise_reference(a, b, e):
    assert dict((a + b).items()) == dict_sum(a, b)
    assert dict((a - b.shift(e)).items()) == dict_sum(a, b.shift(e), -1)
    # the top slot is read from the packed form, whatever the signs below it
    for p in (a + b, a - b.shift(e)):
        assert p.leading_term() == (p.items()[-1] if p else (-1, 0))
    assert (a + b) - b == a
    assert not a or a.shift(e + 1) != a


def test_slot_overflow_widens_only_when_the_true_maximum_needs_it():
    half = 2**62
    a = TPoly({0: half, 1: half})
    assert (a + a)._w == 128
    assert (a + a).items() == [(0, 2**63), (1, 2**63)]
    b = TPoly({0: -half, 2: half})  # the bound overflows, the sum does not
    assert (a + b)._w == 64
    assert a + b == TPoly({1: half, 2: half})


@given(wide_tpolys)
def test_self_difference_is_zero(a):
    diff = a - a
    assert not diff
    assert diff == ZERO and hash(diff) == hash(ZERO)
    assert diff.items() == [] and diff.degree() == -1


@given(tpolys().filter(bool), st.integers(2**70, 2**200))
def test_equality_and_hash_agree_across_widths(p, big):
    wide = TPoly.term(big, 3)
    same = p._repack(wide._w)          # p's value, packed at the wide width
    assert same._w > p._w == 64
    assert same == p and p == same
    assert hash(same) == hash(p)
    assert same.items() == p.items()
    assert same.leading_term() == p.leading_term() == p.items()[-1]
    assert (same + wide) != p
    # the round trip is not always wide: when big sits in the top bit of its
    # slot, the difference's bound overflows and it re-packs at the smallest width
    back = (p + wide) - wide
    assert back == p and hash(back) == hash(p)


def test_shift():
    assert TPoly({0: 1, 1: 1}).shift(2) == TPoly({2: 1, 3: 1})
    assert ZERO.shift(5) == ZERO
    inner = TPoly({1: 1, 2: 1, 3: 2, 4: 1, 5: 1})
    assert inner.shift(2) == TPoly({3: 1, 4: 1, 5: 2, 6: 1, 7: 1})


def test_evaluate():
    assert TPoly({1: 1, 2: 2, 3: 1}).evaluate(1) == 4
    assert TPoly({0: 7, 5: 3}).evaluate(0) == 7
    assert TPoly({2: 3}).evaluate(-2) == 12


# --- t-analogs ---

def test_t_integer():
    assert t_integer(0) == ONE
    assert t_integer(1) == ONE
    assert t_integer(3) == TPoly({0: 1, 1: 1, 2: 1})


def test_t_factorial():
    assert t_factorial(0) == ONE
    assert t_factorial(2) == TPoly({0: 1, 1: 1})
    assert t_factorial(3) == TPoly({0: 1, 1: 2, 2: 2, 3: 1})
    for n in range(1, 30):
        assert t_factorial(n) == t_factorial(n - 1) * t_integer(n)


def test_t_factorial_is_not_recursive():
    # a cold [150]! with only 50 interpreter frames to spare
    t_factorial.cache_clear()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        value = t_factorial(150)
    finally:
        sys.setrecursionlimit(limit)
    assert value.degree() == 150 * 149 // 2
    assert value.evaluate(1) == factorial(150)


def test_t_binomial_edges_and_values():
    for n in range(8):
        assert t_binomial(n, 0) == ONE
        assert t_binomial(n, n) == ONE
    assert t_binomial(3, 1) == t_integer(3)
    assert t_binomial(4, 2) == TPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert t_binomial(2, 5) == ZERO


def test_t_binomial_symmetry():
    for n in range(21):
        for k in range(n + 1):
            assert t_binomial(n, k) == t_binomial(n, n - k)


def test_t_binomial_counts_at_one():
    for n in range(16):
        for k in range(n + 1):
            assert t_binomial(n, k).evaluate(1) == comb(n, k)


def test_t_binomial_pascal_recurrence():
    # [n+1, k] = t^k [n, k] + [n, k-1]
    for n in range(20):
        for k in range(1, n + 1):
            assert t_binomial(n + 1, k) == t_binomial(n, k).shift(k) + t_binomial(n, k - 1)


def test_t_binomial_telescoped_recurrence():
    # [n, k] = sum_j t^(n-k-j) [n-1-j, k-1] for j = 0..n-k
    for n in range(1, 16):
        for k in range(1, n + 1):
            total = ZERO
            for j in range(n - k + 1):
                total = total + t_binomial(n - 1 - j, k - 1).shift(n - k - j)
            assert t_binomial(n, k) == total


def test_t_binomial_matches_factorial_division():
    for n in range(17):
        for k in range(n + 1):
            expected = exact_divide(t_factorial(n), t_factorial(k) * t_factorial(n - k))
            assert t_binomial(n, k) == expected


# --- exact division ---

def test_exact_divide_fixtures():
    assert exact_divide(t_factorial(3), t_integer(3)) == TPoly({0: 1, 1: 1})
    p = TPoly({0: 3, 2: 5})
    assert exact_divide(p, ONE) == p
    assert exact_divide(t_factorial(4), t_factorial(2) * t_factorial(2)) == t_binomial(4, 2)
    assert exact_divide(ZERO, t_integer(2)) == ZERO


def test_exact_divide_signals_not_divisible():
    before = not_divisible_count()
    with pytest.raises(NotDivisible):
        exact_divide(TPoly({0: 1, 2: 1}), TPoly({0: 1, 1: 1}))
    with pytest.raises(NotDivisible):
        exact_divide(TPoly({1: 1}), TPoly({1: 2}))
    assert not_divisible_count() == before + 2
    with pytest.raises(ZeroDivisionError):
        exact_divide(ONE, ZERO)


def test_t_quotient_cancels_and_divides():
    assert t_quotient([], []) == ONE
    assert t_quotient([3, 5], [5, 3]) == ONE
    assert t_quotient([6], [2]) == TPoly({0: 1, 2: 1, 4: 1})
    assert t_quotient([2, 3], [1, 1]) == t_integer(2) * t_integer(3)
    with pytest.raises(ValueError):
        t_quotient([0], [])


def test_t_quotient_signals_not_divisible():
    before = not_divisible_count()
    with pytest.raises(NotDivisible):
        t_quotient([2], [3])
    assert not_divisible_count() == before + 1
    with pytest.raises(NotDivisible):
        t_quotient([6], [2, 3])  # each factor divides, the product does not
    assert not_divisible_count() == before + 2


@settings(max_examples=300)
@given(tpolys() | wide_tpolys, tpolys() | wide_tpolys)
def test_exact_divide_inverts_multiplication(a, b):
    if not b:
        return
    assert exact_divide(a * b, b) == a


def test_hook_product_divides_weight_factorial():
    # the column closed form relies on this exactness
    from kostka.partitions import hook_lengths, partitions_of

    for n in range(11):
        for p in partitions_of(n):
            denom = ONE
            for h in hook_lengths(p):
                denom = denom * t_integer(h)
            exact_divide(t_factorial(n), denom)  # must not raise


# --- rendering and JSON ---

def test_plain_str():
    assert TPoly({1: 1, 2: 2, 3: 1}).plain_str() == "t + 2t^2 + t^3"
    assert ZERO.plain_str() == "0"
    assert ONE.plain_str() == "1"
    assert TPoly({0: 1, 1: -1, 2: -1, 3: 1}).plain_str() == "1 - t - t^2 + t^3"
    assert TPoly({0: -2, 1: 3}).plain_str() == "-2 + 3t"


def test_latex_str():
    assert TPoly({3: 1, 4: 1, 5: 2, 6: 1, 7: 1}).latex_str() == "t^{3}+t^{4}+2t^{5}+t^{6}+t^{7}"
    assert TPoly({0: 1, 1: 1}).latex_str() == "1+t"
    assert ZERO.latex_str() == "0"


def test_json_round_trip():
    p = TPoly({1: 1, 2: 2, 39: 2027})
    obj = p.to_json_obj()
    assert obj == [[1, "1"], [2, "2"], [39, "2027"]]
    assert TPoly.from_json_obj(obj) == p
    assert TPoly.from_json_obj([]) == ZERO


@given(tpolys() | wide_tpolys)
def test_json_round_trip_random(p):
    assert TPoly.from_json_obj(p.to_json_obj()) == p


@pytest.mark.parametrize(
    "obj",
    [
        {"1": "1"},
        [[1, 1]],
        [["1", "1"]],
        [[-1, "1"]],
        [[2, "1"], [1, "1"]],
        [[1, "0"]],
        [[1, "one"]],
        [[1]],
    ],
)
def test_from_json_obj_rejects_bad_input(obj):
    with pytest.raises(ValueError):
        TPoly.from_json_obj(obj)


def test_only_the_polynomial_layer_packs_integers():
    # one module owns the layout of coefficients in the slots of an integer
    for path in sorted(Path(kostka.__file__).parent.glob("*.py")):
        if path.name != "polynomials.py":
            tree = ast.parse(path.read_text())
            used = {n.func.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
            assert not used & {"to_bytes", "from_bytes"}, path.name
