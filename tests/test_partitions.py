from hypothesis import given, strategies as st
import pytest

from kostka.partitions import (
    PartitionParseError,
    branch_shape,
    conjugate,
    dominates,
    format_partition,
    hook_lengths,
    horizontal_strip_additions,
    parse_partition,
    partitions_of,
    tail,
    weight,
    weighted_size,
)


def partitions_st(max_part=8, max_len=6):
    return st.lists(st.integers(1, max_part), max_size=max_len).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )


# --- construction and text form ---

def test_parse_plain_and_shorthand():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("2^2,1^2") == (2, 2, 1, 1)
    assert parse_partition("3,1^12") == (3,) + (1,) * 12
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert parse_partition(" 3 , 2 ") == (3, 2)


def test_parse_errors_name_the_token():
    with pytest.raises(PartitionParseError, match="'x'"):
        parse_partition("3,x,1")
    with pytest.raises(PartitionParseError, match="'3'"):
        parse_partition("1,3")
    with pytest.raises(PartitionParseError, match="'0'"):
        parse_partition("2,0")
    with pytest.raises(PartitionParseError, match="'2\\^'"):
        parse_partition("2^")


def test_format_partition():
    assert format_partition((3, 2, 1)) == "3,2,1"
    assert format_partition(()) == "-"


@given(partitions_st())
def test_parse_format_round_trip(p):
    assert parse_partition(format_partition(p)) == p


# --- statistics ---

def test_weight():
    assert weight(()) == 0
    assert weight((3, 2, 1)) == 6
    assert weight((6, 4, 3, 2)) == 15


def test_weighted_size():
    assert weighted_size(()) == 0
    assert weighted_size((2, 2, 1, 1)) == 7
    assert weighted_size((3, 1, 1, 1, 1)) == 10


def test_conjugate():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 1, 1)) == (3, 1, 1, 1)


def test_conjugate_involution_small_weights():
    for n in range(13):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_hook_lengths():
    assert hook_lengths(()) == []
    assert sorted(hook_lengths((1,))) == [1]
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert sorted(hook_lengths((3, 1))) == [1, 1, 2, 4]


@given(partitions_st())
def test_hook_lengths_cardinality(p):
    assert len(hook_lengths(p)) == weight(p)


# --- dominance ---

def test_dominates_examples():
    assert dominates((3, 2, 1), (2, 2, 1, 1))
    assert not dominates((2, 2, 1, 1), (3, 2, 1))
    assert dominates((3, 2, 1), (3, 2, 1))
    assert not dominates((3, 2), (3, 2, 1))  # weight mismatch


@pytest.mark.parametrize("n", [6, 10])
def test_dominates_is_a_partial_order(n):
    ps = list(partitions_of(n))
    below = {a: [b for b in ps if dominates(a, b)] for a in ps}
    for a in ps:
        assert a in below[a]  # reflexive
        for b in below[a]:
            if a in below[b]:
                assert a == b  # antisymmetric
            for c in below[b]:
                assert c in below[a]  # transitive


def padded_dominates(a, b):
    """Reference: equal weights and every zero-padded prefix sum of a >= that of b."""
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return sum(a) == sum(b) and all(sum(a[:i]) >= sum(b[:i]) for i in range(1, n + 1))


equal_weight_pairs = st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.sampled_from(list(partitions_of(n))),
                        st.sampled_from(list(partitions_of(n))))
)


@given(st.one_of(equal_weight_pairs, st.tuples(partitions_st(), partitions_st())))
def test_dominates_matches_the_padded_prefix_sums(pair):
    a, b = pair
    assert dominates(a, b) == padded_dominates(a, b)


# --- structural operators ---

def test_branch_shape():
    assert branch_shape((3, 2, 1), 1) == (2, 1)
    assert branch_shape((3, 2, 1), 3) == (4, 3)
    assert branch_shape((6, 4, 3, 2), 2) == (7, 3, 2)
    with pytest.raises(IndexError):
        branch_shape((3, 2, 1), 0)
    with pytest.raises(IndexError):
        branch_shape((3, 2, 1), 4)


@given(partitions_st(), st.integers(1, 6))
def test_branch_shape_is_valid_and_weight_shifts(p, i):
    if not 1 <= i <= len(p):
        return
    q = branch_shape(p, i)
    assert parse_partition(format_partition(q)) == q  # valid partition
    assert weight(q) == weight(p) - p[i - 1] + (i - 1)


def test_tail():
    assert tail((2, 1, 1, 1, 1), 0) == (2, 1, 1, 1, 1)
    assert tail((2, 1, 1, 1, 1), 1) == (1, 1, 1, 1)
    assert tail((3, 2, 1), 3) == ()
    with pytest.raises(IndexError):
        tail((3, 2, 1), 4)


@given(partitions_st())
def test_tail_difference_identity(p):
    # dropping one more leading part lowers the weighted size by the tail weight
    for i in range(len(p)):
        a, b = tail(p, i), tail(p, i + 1)
        assert weighted_size(a) - weighted_size(b) == weight(b)


# --- horizontal strips ---

def brute_strips(p, m):
    """Independent filter: partitions of weight(p)+m interlacing with p."""
    found = []
    for tau in partitions_of(weight(p) + m):
        padded = tau + (0,) * (len(p) + 1)
        q = p + (0,) * (len(tau) + 1)
        if all(padded[j] >= q[j] for j in range(len(p))) and all(
            q[j] >= padded[j + 1] for j in range(max(len(p), len(tau)))
        ):
            found.append(tau)
    return sorted(found, reverse=True)


def test_horizontal_strips_fixed_cases():
    assert horizontal_strip_additions((2, 1), 0) == [(2, 1)]
    assert horizontal_strip_additions((1, 1), 2) == [(3, 1), (2, 1, 1)]
    assert horizontal_strip_additions((3, 2), 3) == [
        (6, 2), (5, 3), (5, 2, 1), (4, 3, 1), (4, 2, 2), (3, 3, 2),
    ]
    assert horizontal_strip_additions((), 2) == [(2,)]
    with pytest.raises(ValueError):
        horizontal_strip_additions((2, 1), -1)


def test_horizontal_strips_edge_cases():
    assert horizontal_strip_additions((), 0) == [()]
    # more boxes than the first row: the second row is capped by p_1
    assert horizontal_strip_additions((2,), 5) == [(7,), (6, 1), (5, 2)]
    assert horizontal_strip_additions((3,), 2) == [(5,), (4, 1), (3, 2)]
    for k in range(1, 6):
        column = (1,) * k
        assert horizontal_strip_additions(column, 0) == [column]
        for m in range(1, 5):
            assert horizontal_strip_additions(column, m) == [(1 + m,) + column[1:], (m,) + column]


@given(partitions_st(max_part=5, max_len=4), st.integers(0, 5))
def test_horizontal_strips_match_brute_force(p, m):
    got = horizontal_strip_additions(p, m)
    assert got == brute_strips(p, m)
    assert len(set(got)) == len(got)
    for tau in got:
        assert weight(tau) == weight(p) + m
        padded = tau + (0,) * (len(p) + 1)
        assert all(padded[j] >= p[j] >= padded[j + 1] for j in range(len(p)))


# --- enumeration ---

def test_partitions_of_counts():
    assert list(partitions_of(0)) == [()]
    assert len(list(partitions_of(4))) == 5
    assert len(list(partitions_of(6))) == 11
    assert len(list(partitions_of(8))) == 22
    with pytest.raises(ValueError):
        list(partitions_of(-1))


def test_partitions_of_order_and_validity():
    for n in range(1, 10):
        ps = list(partitions_of(n))
        assert ps[0] == (n,)
        assert ps[-1] == (1,) * n
        assert len(set(ps)) == len(ps)
        assert ps == sorted(ps, reverse=True)
        for p in ps:
            assert parse_partition(format_partition(p)) == p
            assert weight(p) == n
