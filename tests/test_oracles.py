import ast
import inspect
from bisect import bisect_right

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import kostka.oracles
import kostka.partitions
import kostka.polynomials
from kostka.core import KostkaCache, kostka as engine, kostka_column, recursion_children
from kostka.oracles import (
    ContentMismatch,
    charge,
    charge_by_tableaux,
    charge_polynomials,
    enumerate_ssyt,
    is_semistandard,
    kostka_number,
    kostka_via_charge,
    reading_word,
)
from kostka.partitions import dominates, partitions_of, weight
from kostka.polynomials import ONE, ZERO, TPoly


# --- references: the cell-by-cell enumeration and dict-based charge they replaced ---

def reference_enumerate_ssyt(shape, content):
    """Row-by-row backtracking over cells, in row-major lexicographic order."""
    if weight(shape) != weight(content) or not dominates(shape, content):
        return []
    letters = len(content)
    remaining = list(content)
    rows = [[0] * r for r in shape]
    nrows = len(shape)
    out = []

    def fill(r, c):
        if r == nrows:
            out.append(tuple(map(tuple, rows)))
            return
        if c + 1 < shape[r]:
            nr, nc = r, c + 1
        else:
            nr, nc = r + 1, 0
        lo = rows[r][c - 1] if c else 1
        if r:
            above = rows[r - 1][c] + 1
            if above > lo:
                lo = above
        for v in range(lo, letters + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                rows[r][c] = v
                fill(nr, nc)
                remaining[v - 1] += 1

    fill(0, 0)
    return out


def reference_charge(word, content):
    """Charge by standard subwords, with picks kept in a dict per subword."""
    counts = {}
    for v in word:
        counts[v] = counts.get(v, 0) + 1
    expected = {i: m for i, m in enumerate(content, 1)}
    if counts != expected:
        raise ContentMismatch(f"word multiplicities {counts} != content {expected}")
    positions = {}
    for i, v in enumerate(word):
        positions.setdefault(v, []).append(i)
    total = 0
    while positions.get(1):
        cur = positions[1].pop(0)
        pos_of = {1: cur}
        v = 2
        while positions.get(v):
            plist = positions[v]
            j = bisect_right(plist, cur)
            cur = plist.pop(j) if j < len(plist) else plist.pop(0)
            pos_of[v] = cur
            v += 1
        idx = 0
        for r in range(2, v):
            if pos_of[r] < pos_of[r - 1]:
                idx += 1
            total += idx
    return total


def tableau_shape(rows):
    return tuple(map(len, rows))


def tableau_content(rows):
    """Multiplicities of the letters 1..max, as a tuple."""
    letters = [v for row in rows for v in row]
    return tuple(letters.count(v) for v in range(1, max(letters, default=0) + 1))


def all_pairs(max_n):
    for n in range(max_n + 1):
        ps = list(partitions_of(n))
        for shape in ps:
            for content in ps:
                yield shape, content


def test_enumeration_and_charge_match_the_references():
    for shape, content in all_pairs(8):
        found = enumerate_ssyt(shape, content)
        assert found == reference_enumerate_ssyt(shape, content), (shape, content)
        coeffs = {}
        for t in found:
            e = reference_charge(reading_word(t), content)
            coeffs[e] = coeffs.get(e, 0) + 1
        assert charge_by_tableaux(shape, content) == TPoly(coeffs), (shape, content)
        assert kostka_via_charge(shape, content) == TPoly(coeffs), (shape, content)


@st.composite
def words(draw):
    """A partition content and a shuffled word of it, sometimes spoiled."""
    content = tuple(sorted(draw(st.lists(st.integers(1, 4), max_size=6)), reverse=True))
    word = [v for v, m in enumerate(content, 1) for _ in range(m)]
    spoil = draw(st.sampled_from(["none", "zero", "above", "extra", "missing"]))
    if spoil == "zero":
        word.append(0)
    elif spoil == "above":
        word.append(len(content) + draw(st.integers(1, 3)))
    elif spoil == "extra" and content:
        word.append(draw(st.integers(1, len(content))))
    elif spoil == "missing" and word:
        word.pop(draw(st.integers(0, len(word) - 1)))
    return tuple(draw(st.permutations(word))), content


@settings(max_examples=300)
@given(words())
def test_charge_matches_the_reference(case):
    word, content = case
    try:
        expected = reference_charge(word, content)
    except ContentMismatch:
        with pytest.raises(ContentMismatch):
            charge(word, content)
    else:
        assert charge(word, content) == expected


def test_oracles_define_no_recursive_function():
    # the partitions the oracles are checked over are generated without recursion too
    for module in (kostka.oracles, kostka.partitions):
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {n.func.id for n in ast.walk(node)
                          if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                assert node.name not in called, (module.__name__, node.name)


def test_oracles_stay_independent_of_the_iteration():
    tree = ast.parse(inspect.getsource(kostka.oracles))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # resolve `from .x import y` and `from . import x` inside the kostka package
            base = "kostka" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            modules.add(module)
            if node.module is None:
                modules.update(f"{module}.{alias.name}" for alias in node.names)
        if isinstance(node, ast.alias):
            names.update(filter(None, [node.name, node.asname]))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not {m for m in modules if m == "kostka.core" or m.startswith("kostka.core.")}
    assert not names & {"horizontal_strip_additions", "recursion_children",
                        "kostka_column", "t_quotient"}


@st.composite
def pairs_beyond_the_references(draw):
    """A dominating pair with 9 <= n <= 14 and at most 2,000 tableaux."""
    parts = list(partitions_of(draw(st.integers(9, 14))))
    a, b = draw(st.sampled_from(parts)), draw(st.sampled_from(parts))
    # dominance implies the lexicographic order, so the larger is the only candidate shape
    shape, content = max(a, b), min(a, b)
    assume(dominates(shape, content) and kostka_number(shape, content) <= 2000)
    return shape, content


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pairs_beyond_the_references())
def test_enumeration_and_charge_match_the_engine_beyond_the_references(pair):
    shape, content = pair
    value = engine(shape, content)
    found = enumerate_ssyt(shape, content)
    assert len(found) == len(set(found)) == value.evaluate(1)
    assert kostka_via_charge(shape, content) == value
    for t in found:
        assert is_semistandard(t)
        assert tableau_shape(t) == shape and tableau_content(t) == content


# --- enumeration ---

def test_enumerate_small_fixtures():
    two = enumerate_ssyt((2, 1), (1, 1, 1))
    assert two == [((1, 2), (3,)), ((1, 3), (2,))]
    for n in range(1, 6):
        assert enumerate_ssyt((n,), (n,)) == [((1,) * n,)]
    assert enumerate_ssyt((), ()) == [()]


def test_enumerate_empty_on_invalid_pairs():
    assert enumerate_ssyt((2, 1), (3, 1)) == []          # dominance fails
    assert enumerate_ssyt((2, 1), (2, 2)) == []          # weight mismatch
    assert enumerate_ssyt((1, 1), (2,)) == []


def test_enumerate_is_valid_unique_and_sorted():
    for n in range(7):
        ps = list(partitions_of(n))
        for shape in ps:
            for content in ps:
                found = enumerate_ssyt(shape, content)
                assert len(set(found)) == len(found)
                assert found == sorted(found)
                for t in found:
                    assert type(t) is tuple and all(type(row) is tuple for row in t)
                    assert all(type(v) is int for row in t for v in row)
                    assert is_semistandard(t)
                    assert tableau_shape(t) == shape
                    assert tableau_content(t) == content


# --- reading word ---

def test_reading_word():
    assert reading_word(((1, 2), (3,))) == (2, 1, 3)
    assert reading_word(((1, 3), (2,))) == (3, 1, 2)
    assert reading_word(((1, 1, 2),)) == (2, 1, 1)
    assert reading_word(()) == ()


# --- charge ---

def test_charge_fixed_values():
    assert charge((2, 1, 3), (1, 1, 1)) == 2
    assert charge((3, 1, 2), (1, 1, 1)) == 1
    assert charge((1,) * 4, (4,)) == 0
    assert charge((), ()) == 0


def test_charge_rejects_content_mismatch():
    with pytest.raises(ContentMismatch):
        charge((1, 1, 2), (1, 1, 1))
    with pytest.raises(ContentMismatch):
        charge((1, 3), (1, 1))


def test_charge_extreme_words():
    for n in range(1, 8):
        col = (1,) * n
        row_tab = enumerate_ssyt((n,), col)
        col_tab = enumerate_ssyt(col, col)
        assert len(row_tab) == len(col_tab) == 1
        assert charge(reading_word(row_tab[0]), col) == n * (n - 1) // 2
        assert charge(reading_word(col_tab[0]), col) == 0


def test_charge_bounded_for_standard_words():
    n = 5
    col = (1,) * n
    for shape in partitions_of(n):
        for t in enumerate_ssyt(shape, col):
            assert 0 <= charge(reading_word(t), col) <= n * (n - 1) // 2


# --- generating function ---

def test_kostka_via_charge_fixtures():
    assert kostka_via_charge((2, 1), (1, 1, 1)) == TPoly({1: 1, 2: 1})
    assert kostka_via_charge((3, 2, 1), (2, 2, 1, 1)) == TPoly({1: 1, 2: 2, 3: 1})
    for n in range(1, 7):
        assert kostka_via_charge((n,), (1,) * n) == TPoly({n * (n - 1) // 2: 1})
    assert kostka_via_charge((), ()) == ONE


def test_charge_polynomials_give_the_column_of_each_content():
    for n in range(11):
        ps = list(partitions_of(n))
        for content in ps:
            column = charge_polynomials(content)
            assert set(column) == {s for s in ps if dominates(s, content)}, content
            for shape, value in column.items():
                assert value.evaluate(1) == kostka_number(shape, content), (shape, content)
                if n <= 8:
                    assert value == charge_by_tableaux(shape, content), (shape, content)


def test_charge_polynomials_within_a_shape():
    content = (2, 2, 1, 1)
    column = charge_polynomials(content)
    for shape in partitions_of(6):
        bounded = charge_polynomials(content, within=shape)
        assert bounded == ({shape: column[shape]} if shape in column else {}), shape
    # a larger bound keeps the shapes of the content's weight inside it
    assert charge_polynomials(content, within=(4, 3)) == {s: column[s] for s in [(4, 2), (3, 3)]}
    assert charge_polynomials((), within=(2, 1)) == charge_polynomials(()) == {(): ONE}
    assert kostka_via_charge((2, 1), (2, 2)) == kostka_via_charge((2, 2), (3, 1)) == ZERO


def test_charge_oracle_agrees_with_the_engine_on_68_million_tableaux():
    shape, content = (6, 5, 4, 3, 2, 1), (2,) * 4 + (1,) * 13
    value = kostka_via_charge(shape, content)
    assert value.evaluate(1) == kostka_number(shape, content) == 68_796_416
    assert value == engine(shape, content)


def test_charge_oracle_agrees_with_the_engine_past_64_bit_counts():
    # 10,9,8,7,6 / 1^40: a 66-bit count with 59-bit coefficients, so merged
    # states re-pack inside the oracle; 9,8,7,6,5,4,2 / 1^41: 69-bit coefficients,
    # which need 128-bit slots
    for shape, bits, top in [((10, 9, 8, 7, 6), 66, 59), ((9, 8, 7, 6, 5, 4, 2), 75, 69)]:
        content = (1,) * weight(shape)
        value = kostka_via_charge(shape, content)
        assert value.evaluate(1).bit_length() == bits, shape
        assert max(c for _, c in value.items()).bit_length() == top, shape
        assert value == engine(shape, content) == kostka_column(shape), shape


def test_charge_oracle_agrees_with_the_engine_past_64_bits_inside_a_deep_walk(monkeypatch):
    # above, a content of 1s makes every child a column leaf, so only the
    # root frame's sum crosses the 64-bit slot edge; here frames below the
    # root cross it too, where signed branches cancel.  The root's children
    # are computed first on a shared memo, so their slow-path sums count apart
    shape, content = (8, 8, 6, 6, 4, 4, 2, 2), (2,) * 4 + (1,) * 32
    exact_sum = kostka.polynomials._exact_sum
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return exact_sum(*args)

    monkeypatch.setattr(kostka.polynomials, "_exact_sum", counting)
    cache = KostkaCache()
    for _, _, taus in recursion_children(shape, content[0]):
        for tau in taus:
            engine(tau, content[1:], cache)
    assert calls[0], "no slow-path sum below the root"
    assert engine(shape, content, cache) == kostka_via_charge(shape, content)


@pytest.mark.slow
def test_charge_oracle_agrees_with_the_engine_on_the_n_42_edge_pair():
    # 13,693 slow-path sums and a 64-bit result, at 5-7 s for the engine
    shape, content = (9, 8, 7, 6, 5, 4, 3), (2,) * 8 + (1,) * 26
    assert engine(shape, content) == kostka_via_charge(shape, content)


# --- peel count ---

def test_kostka_number_fixtures():
    assert kostka_number((3, 2, 1), (2, 2, 1, 1)) == 4
    assert kostka_number((6, 4, 3, 2), (3,) + (1,) * 12) == 35035
    for shape in partitions_of(5):
        assert kostka_number(shape, (5,)) == (1 if shape == (5,) else 0)
    assert kostka_number((2, 2), (2, 1)) == 0


def test_kostka_number_matches_enumeration():
    for n in range(9):
        ps = list(partitions_of(n))
        for shape in ps:
            for content in ps:
                assert kostka_number(shape, content) == len(enumerate_ssyt(shape, content))


def test_kostka_number_vanishes_with_dominance():
    for n in range(9):
        ps = list(partitions_of(n))
        for shape in ps:
            for content in ps:
                assert (kostka_number(shape, content) > 0) == dominates(shape, content)


def test_kostka_number_shares_only_the_counts_it_is_passed():
    counts = {}
    assert kostka_number((3, 2, 1), (2, 2, 1, 1), counts) == 4
    assert counts[(3, 2, 1), (2, 2, 1, 1)] == 4
    filled = dict(counts)
    assert kostka_number((3, 2, 1), (2, 2, 1, 1), counts) == 4
    assert kostka_number((3, 2), (2, 2, 1), counts) == 2
    assert counts.items() >= filled.items()
    # a count already in the table is read, not recomputed
    counts[(4, 2), (3, 3)] = 99
    assert kostka_number((4, 2), (3, 3), counts) == 99
    # the default fills a table of its own, and the module keeps none
    assert kostka_number((4, 2), (3, 3)) == 1

    def tables():
        return {k: len(v) for k, v in vars(kostka.oracles).items() if isinstance(v, dict)}

    before = tables()
    assert kostka_number((6, 4, 3, 2), (3,) + (1,) * 12) == 35035
    assert tables() == before
    assert not any(hasattr(v, "cache_clear") for v in vars(kostka.oracles).values())
