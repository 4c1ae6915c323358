import errno
import json
import os
import sys
import tracemalloc
from math import factorial, prod

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import kostka.core as engine
from kostka.cli import FAST_PATHS
from kostka.core import (
    ALL_FAST_PATHS,
    CacheConflictError,
    CacheFormatError,
    KostkaCache,
    PreconditionViolated,
    kostka,
    kostka_column,
    kostka_hook,
    kostka_one_row,
    prefix_reduce,
    recursion_children,
)
from kostka.oracles import charge_polynomials, kostka_via_charge
from kostka.partitions import (
    branch_shape,
    conjugate,
    dominates,
    format_partition,
    hook_lengths,
    horizontal_strip_additions,
    parse_partition,
    partitions_of,
    weight,
    weighted_size,
)
from kostka.polynomials import ONE, TPoly, ZERO, exact_divide, t_factorial, t_integer


def peak_bytes(fn):
    """Peak traced allocation while fn runs, its result still held."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


# --- general recursion against frozen values ---

def test_kostka_fixed_values():
    assert kostka((3, 2, 1), (2, 2, 1, 1)) == TPoly({1: 1, 2: 2, 3: 1})
    assert kostka((4, 1, 1), (2, 1, 1, 1, 1)) == TPoly({3: 1, 4: 1, 5: 2, 6: 1, 7: 1})
    assert kostka((2, 2, 1), (2, 1, 1, 1)) == TPoly({1: 1, 2: 1})
    assert kostka((3, 1), (2, 1, 1)) == TPoly({1: 1, 2: 1})
    assert kostka((2, 2), (2, 1, 1)) == TPoly({1: 1})
    assert kostka((2, 1, 1), (2, 1, 1)) == ONE


def test_kostka_trivial_cases():
    assert kostka((), ()) == ONE
    for n in range(1, 6):
        assert kostka((n,), (n,)) == ONE
    assert kostka((2, 1), (3,)) == ZERO            # dominance fails
    assert kostka((3, 1), (3,)) == ZERO            # weight mismatch
    assert kostka((), (1,)) == ZERO


def test_kostka_single_content_row_is_a_delta():
    for n in range(1, 8):
        for shape in partitions_of(n):
            expected = ONE if shape == (n,) else ZERO
            assert kostka(shape, (n,)) == expected


def test_kostka_uses_and_fills_cache():
    cache = KostkaCache()
    first = kostka((4, 2, 1), (2, 2, 1, 1, 1), cache)
    assert len(cache) > 0
    misses = cache.misses
    again = kostka((4, 2, 1), (2, 2, 1, 1, 1), cache)
    assert again == first
    assert cache.misses == misses  # answered from the memo table


def test_kostka_without_cache_memoizes_like_a_fresh_cache(monkeypatch):
    calls = []

    def counted(shape, head):
        calls.append((shape, head))
        return recursion_children(shape, head)

    monkeypatch.setattr(engine, "recursion_children", counted)
    shape, content = (6, 4, 3, 2), (3,) + (1,) * 12
    uncached = kostka(shape, content)
    uncached_calls = len(calls)
    calls.clear()
    cache = KostkaCache()
    assert kostka(shape, content, cache) == uncached
    # every entry below the root with single-column content is a leaf, memoized
    # by the column closed form without being expanded
    leaves = [(s, c) for (s, c), _ in cache.items() if c[0] == 1 and (s, c) != (shape, content)]
    assert leaves
    assert len(calls) == uncached_calls == len(cache) - len(leaves)
    for s, c in leaves:
        assert cache.get(s, c) == kostka_column(s)


def test_memo_keys_of_one_walk_share_each_content():
    cache = KostkaCache()
    kostka((6, 4, 3, 2), (3, 3, 2, 2, 2, 1, 1, 1), cache)
    contents = [c for (_, c), _ in cache.items()]
    assert len({id(c) for c in contents}) == len(set(contents)) < len(contents)
    # across walks too: one cache shared by every dominating pair with n <= 10
    # holds one tuple object per distinct content
    for n in range(1, 11):
        ps = list(partitions_of(n))
        for s in ps:
            for c in ps:
                if dominates(s, c):
                    kostka(s, c, cache)
    contents = [c for (_, c), _ in cache.items()]
    assert len({id(c) for c in contents}) == len(set(contents)) < len(contents)


def test_headline_pair_memoizes_each_column_leaf_once(monkeypatch):
    # a leaf memoized while its parent's children are being looked up must be
    # a hit for every later sibling that meets it
    calls = []
    real = engine.kostka_column

    def counted(shape):
        calls.append(shape)
        return real(shape)

    monkeypatch.setattr(engine, "kostka_column", counted)
    cache = KostkaCache()
    kostka((6, 4, 3, 2), (3,) + (1,) * 12, cache)
    assert (len(cache), cache.hits, cache.misses) == (12, 1, 12)
    assert len(calls) == len(set(calls)) == 11


def test_content_longer_than_the_recursion_limit_computes():
    # one frame per content part, far past the interpreter's recursion limit
    k = 3000
    assert k > sys.getrecursionlimit()
    assert kostka((2 * k,), (2,) * k) == ONE.shift(k * (k - 1))


def test_single_column_content_is_one_leaf_below_the_root():
    # the root's only child is a column leaf, so no memo key holds a long suffix
    assert kostka((5000,), (1,) * 5000) == ONE.shift(12497500)
    assert peak_bytes(lambda: kostka((5000,), (1,) * 5000)) < 8 * 2**20


def test_cache_counts_every_child_lookup():
    cache = KostkaCache()
    kostka((5, 3, 3, 1), (2, 2, 2, 2, 2, 2), cache)  # meets some vanishing pairs twice
    # one lookup for the root, then one per child of each computed pair;
    # a child that reduces to the empty pair is answered without a lookup
    lookups = 1 + sum(
        1
        for (shape, content), _ in cache.items()
        for _, _, taus in recursion_children(shape, content[0])
        for tau in taus
        if prefix_reduce(tau, content[1:]) != ((), ())
    )
    assert cache.hits + cache.misses == lookups


def test_headline_shape_matches_the_column_form_and_charge():
    # the headline pair itself is checked against charge by acceptance criterion 3
    shape = (6, 4, 3, 2)
    assert kostka(shape, (1,) * 15) == kostka_column(shape)
    for content in ((3, 3, 3, 2, 2, 2), (4, 3, 3, 2, 1, 1, 1)):
        assert kostka(shape, content) == kostka_via_charge(shape, content)


# --- prefix reduction ---

def test_prefix_reduce():
    assert prefix_reduce((3, 2, 1), (3, 2, 1)) == ((), ())
    assert prefix_reduce((3, 2, 1), (3, 1, 1, 1)) == ((2, 1), (1, 1, 1))
    assert prefix_reduce((3, 1), (2, 1, 1)) == ((3, 1), (2, 1, 1))


def test_prefix_reduce_preserves_value():
    assert kostka((3, 2, 1), (3, 1, 1, 1)) == kostka((2, 1), (1, 1, 1)) == TPoly({1: 1, 2: 1})
    cache = KostkaCache()
    for n in range(7):
        ps = list(partitions_of(n))
        for s in ps:
            for c in ps:
                rs, rc = prefix_reduce(s, c)
                assert kostka(s, c, cache) == kostka(rs, rc, cache)


# --- closed forms ---

def test_kostka_one_row():
    assert kostka_one_row((1, 1, 1)) == TPoly({3: 1})
    assert kostka_one_row((5,)) == ONE
    assert kostka_one_row(()) == ONE
    assert kostka_one_row((2, 2, 1, 1)) == TPoly({7: 1})


def test_sparse_high_powers_stay_small():
    # a single power of t is one slot at its valuation, whatever the exponent
    big = ONE.shift(604450)
    assert peak_bytes(lambda: ONE.shift(604450)) < 64 * 1024
    assert peak_bytes(lambda: big.shift(604450)) < 64 * 1024
    assert peak_bytes(lambda: kostka_one_row((1,) * 1100)) < 64 * 1024
    assert kostka_one_row((1,) * 1100) == big


def test_kostka_hook_values():
    # k = 0 degenerates to the one-row power of t
    assert kostka_hook(4, 0, (2, 1, 1)) == kostka_one_row((2, 1, 1))
    assert kostka_hook(4, 1, (2, 1, 1)) == TPoly({1: 1, 2: 1})
    assert kostka_hook(4, 2, (1, 1, 1, 1)) == TPoly({1: 1, 2: 1, 3: 1})
    assert kostka_hook(4, 2, (1, 1, 1, 1)) == kostka_via_charge((2, 1, 1), (1, 1, 1, 1))
    # full column against full column: a single tableau of charge zero
    assert kostka_hook(4, 3, (1, 1, 1, 1)) == ONE


def test_kostka_hook_preconditions():
    with pytest.raises(PreconditionViolated):
        kostka_hook(4, 4, (1, 1, 1, 1))          # k > n - 1
    with pytest.raises(PreconditionViolated):
        kostka_hook(4, 1, (2, 1))                # weight mismatch
    with pytest.raises(PreconditionViolated):
        kostka_hook(4, 1, (4,))                  # content not dominated by (3,1)


def test_kostka_column_values():
    assert kostka_column(()) == ONE
    assert kostka_column((2, 1)) == TPoly({1: 1, 2: 1})
    assert kostka_column((3, 1)) == TPoly({3: 1, 4: 1, 5: 1})
    assert kostka_column((2, 1, 1)) == TPoly({1: 1, 2: 1, 3: 1})
    # one-row shape: agrees with the one-row formula on single-column content
    for n in range(1, 8):
        assert kostka_column((n,)) == kostka_one_row((1,) * n) == TPoly({n * (n - 1) // 2: 1})


def test_kostka_column_matches_factorial_division():
    # the reference divides [n]! by the hook t-integers with long division
    for n in range(13):
        for shape in partitions_of(n):
            denom = ONE
            for h in hook_lengths(shape):
                denom = denom * t_integer(h)
            expected = exact_divide(t_factorial(n), denom).shift(weighted_size(conjugate(shape)))
            assert kostka_column(shape) == expected, shape


# --- dispatch ---

def test_kostka_is_flag_independent():
    pairs = [
        ((6, 4, 3, 2), (3,) + (1,) * 12),
        ((3, 2, 1), (2, 2, 1, 1)),
        ((5,), (2, 2, 1)),
        ((3, 1, 1), (1, 1, 1, 1, 1)),
        ((2, 2), (2, 2)),
        ((2, 1), (3,)),
    ]
    for shape, content in pairs:
        none = kostka(shape, content, KostkaCache(), fast_paths=frozenset())
        every = kostka(shape, content, KostkaCache(), fast_paths=ALL_FAST_PATHS)
        assert none == every
        for name in ALL_FAST_PATHS:
            only = kostka(shape, content, KostkaCache(), fast_paths=frozenset({name}))
            assert only == none


def test_kostka_dispatch_audit():
    audit = {}
    kostka((4,), (2, 1, 1), fast_paths=ALL_FAST_PATHS, audit=audit)
    assert audit["path"] == "one-row"
    kostka((3, 1), (1, 1, 1, 1), fast_paths=ALL_FAST_PATHS, audit=audit)
    assert audit["path"] == "column"
    kostka((3, 1, 1), (2, 2, 1), fast_paths=ALL_FAST_PATHS, audit=audit)
    assert audit["path"] == "hook"
    kostka((3, 2, 1), (2, 2, 1, 1), fast_paths=ALL_FAST_PATHS, audit=audit)
    assert audit["path"] == "recursion"
    kostka((2, 1), (3,), fast_paths=ALL_FAST_PATHS, audit=audit)
    assert audit["path"] == "vanishing"
    kostka((2, 2), (2, 2), fast_paths=ALL_FAST_PATHS, audit=audit)
    assert audit["path"] == "empty"
    # one-row flag applies to the prefix-reduced pair
    assert kostka((4,), (2, 1, 1), fast_paths=frozenset({"one-row"})) == TPoly({3: 1})
    # the default takes no fast path
    assert kostka((3, 1, 1), (2, 2, 1), audit=audit) == kostka_hook(5, 2, (2, 2, 1))
    assert audit["path"] == "recursion"
    # a pair that does not dominate, before or after prefix reduction, is not looked up
    cache = KostkaCache()
    assert kostka((2, 1), (3,), cache, audit=audit) == ZERO
    assert audit["path"] == "vanishing"
    assert kostka((3, 1, 1), (3, 2), cache) == ZERO
    assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


def _reference_dispatch(shape, content, fast_paths, cache):
    """Route and value with the original full-scan predicates."""
    s, c = prefix_reduce(shape, content)
    if not dominates(s, c):
        return "vanishing", ZERO
    if not c:
        return "empty", ONE
    if len(s) == 1 and "one-row" in fast_paths:
        return "one-row", kostka_one_row(c)
    if all(x == 1 for x in c) and "column" in fast_paths:
        return "column", kostka_column(s)
    if len(s) >= 2 and all(x == 1 for x in s[1:]) and "hook" in fast_paths:
        return "hook", kostka_hook(weight(s), len(s) - 1, c)
    return "recursion", kostka(s, c, cache)


def test_kostka_routes_like_the_full_scan_predicates():
    # every pair with n <= 9, dominating or not, under every --fast-paths value
    pairs = [(s, c) for n in range(1, 10) for s in partitions_of(n) for c in partitions_of(n)]
    for name, fast_paths in FAST_PATHS.items():
        cache, reference_cache = KostkaCache(), KostkaCache()
        for shape, content in pairs:
            audit = {}
            value = kostka(shape, content, cache, fast_paths, audit)
            path, expected = _reference_dispatch(shape, content, fast_paths, reference_cache)
            assert (audit["path"], value) == (path, expected), (name, shape, content)


# --- branch structure ---

def test_recursion_children_depend_only_on_the_content_head():
    shape = (6, 4, 3, 2)
    children = recursion_children(shape, 3)
    assert [(i, size) for i, size, _ in children] == [(1, 3), (2, 0)]
    # branch 1 grows eleven shapes by a 3-strip, branch 2 exactly one by a 0-strip
    assert len(children[0][2]) == 11
    assert children[1][2] == ((7, 3, 2),)
    assert (7, 3, 2) in children[0][2]


def test_recursion_children_cannot_be_altered_for_a_later_call():
    recursion_children.cache_clear()
    shape, head = (6, 4, 3, 2), 3
    first = recursion_children(shape, head)
    assert recursion_children(shape, head) is first  # served from the cache
    with pytest.raises((TypeError, AttributeError)):
        first[0][2].append((1,))
    with pytest.raises(TypeError):
        first[0] = (1, 0, ())
    expected = tuple(
        (i, size, tuple(horizontal_strip_additions(branch_shape(shape, i), size)))
        for i, size in ((1, 3), (2, 0))
    )
    assert recursion_children(shape, head) == expected


def test_recursion_has_at_most_length_many_branches():
    for n in range(1, 9):
        for shape in partitions_of(n):
            for head in range(1, n + 1):
                assert len(recursion_children(shape, head)) <= len(shape)


def test_truncating_branches_at_the_content_head_is_wrong():
    # keeping only the first content[0] branches loses a live branch here
    shape, content = (3, 2), (1, 1, 1, 1, 1)
    head, rest = content[0], content[1:]
    truncated = ZERO
    for i, size, taus in recursion_children(shape, head):
        if i > head:
            continue
        branch = ZERO
        for tau in taus:
            branch = branch + kostka(tau, rest)
        branch = branch.shift(size)
        truncated = truncated + branch if i % 2 else truncated - branch
    full = kostka(shape, content)
    assert full == kostka_via_charge(shape, content)
    assert truncated != full


# --- structural invariants on small sweeps ---

def test_vanishing_and_positivity_small():
    cache = KostkaCache()
    for n in range(7):
        ps = list(partitions_of(n))
        for s in ps:
            for c in ps:
                value = kostka(s, c, cache)
                assert bool(value) == dominates(s, c)
                assert all(coeff > 0 for _, coeff in value.items())


def test_monic_of_degree_weighted_size_gap():
    # monic, with top power weighted_size(content) - weighted_size(shape)
    cache = KostkaCache()
    for n in range(2, 8):
        ps = list(partitions_of(n))
        for s in ps:
            for c in ps:
                if dominates(s, c):
                    value = kostka(s, c, cache)
                    top = weighted_size(c) - weighted_size(s)
                    assert value.leading_term()[0] == top
                    assert value.coeff(top) == 1


def padded(p, m, k):
    """p with zeros up to m parts, and then k added to every part."""
    return tuple(x + k for x in p + (0,) * (m - len(p)))


def test_column_padding_leaves_every_small_value_unchanged():
    # K[shape, content] = K[shape + k^m, content + k^m] for m >= len(content):
    # a check that needs no oracle.  The engine does not use it, and the padded
    # content has no part 1, so its walk runs on where the base pair's walk
    # stopped at column leaves
    cache = KostkaCache()
    padded_pairs = 0
    for n in range(1, 11):
        ps = list(partitions_of(n))
        for c in ps:
            for s in ps:
                if not dominates(s, c):
                    continue
                value = kostka(s, c, cache)
                for k in (1, 2):
                    for m in range(len(c), len(c) + 3):
                        pair = padded(s, m, k), padded(c, m, k)
                        assert kostka(*pair, cache) == value, (s, c, k, m)
                        padded_pairs += 1
    assert padded_pairs == 10_314


SMALL_PARTITIONS = {n: list(partitions_of(n)) for n in range(1, 19)}


@st.composite
def padded_pair(draw):
    """A dominating pair with n <= 18, a width k in {1, 2} and a height m of
    len(content) to len(content) + 2 to pad it by."""
    ps = SMALL_PARTITIONS[draw(st.integers(1, 18))]
    content = draw(st.sampled_from(ps))
    shape = draw(st.sampled_from([s for s in ps if dominates(s, content)]))
    m = draw(st.integers(len(content), len(content) + 2))
    return shape, content, draw(st.integers(1, 2)), m


@settings(deadline=None)
@given(padded_pair())
def test_column_padding_leaves_the_value_unchanged(pair):
    shape, content, k, m = pair
    assert kostka(padded(shape, m, k), padded(content, m, k)) == kostka(shape, content)


@pytest.mark.parametrize("n", [14, 16, pytest.param(18, marks=pytest.mark.slow),
                               pytest.param(20, marks=pytest.mark.slow)])
def test_table_identities_and_charge_columns(n):
    # K(0) is the identity matrix, sum_shape f^shape K[shape, content](1)
    # counts the words of the content: n! / prod content_i!, and each column
    # of the table is the charge oracle's
    ps = list(partitions_of(n))
    cache = KostkaCache()
    table = {(s, c): kostka(s, c, cache) for s in ps for c in ps if dominates(s, c)}
    for (s, c), value in table.items():
        assert value.coeff(0) == (1 if s == c else 0), (s, c)
    f = {s: factorial(n) // prod(hook_lengths(s)) for s in ps}
    for c in ps:
        words = sum(f[s] * table[s, c].evaluate(1) for s in ps if (s, c) in table)
        assert words == factorial(n) // prod(map(factorial, c)), c
        column = {s: table[s, c] for s in ps if (s, c) in table}
        assert column == charge_polynomials(c), c


# --- random pairs beyond the oracle sweep, through one shared memo ---

PARTITIONS = {n: list(partitions_of(n)) for n in range(13, 25)}


@st.composite
def dominating_pairs(draw):
    """A pair with 13 <= n <= 24 whose shape dominates its content, behind
    a common prefix of parts at least as long as the shape's first row.
    One draw in five makes a hook shape, and one in five a column content."""
    n = draw(st.integers(13, 24))
    a, b = draw(st.sampled_from(PARTITIONS[n])), draw(st.sampled_from(PARTITIONS[n]))
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, n - 1))
        a = (n - k,) + (1,) * k
    if draw(st.integers(0, 4)) == 0:
        b = (1,) * n
    # dominance implies the lexicographic order, so the larger is the only candidate shape
    shape, content = max(a, b), min(a, b)
    assume(dominates(shape, content))
    prefix = sorted(draw(st.lists(st.integers(shape[0], shape[0] + 2), max_size=2)), reverse=True)
    return tuple(prefix) + shape, tuple(prefix) + content


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(dominating_pairs(), min_size=1, max_size=4))
def test_random_pairs_through_one_shared_cache(pairs):
    shared = KostkaCache()
    for shape, content in pairs:
        value = kostka(shape, content, shared)
        s, c = prefix_reduce(shape, content)
        assert value == kostka(s, c, KostkaCache()), (shape, content)
        if not s:
            assert value == ONE
            continue
        if len(s) == 1:
            assert value == kostka_one_row(c), (shape, content)
        elif s[1] == 1:
            assert value == kostka_hook(weight(s), len(s) - 1, c), (shape, content)
        if c[0] == 1:
            assert value == kostka_column(s), (shape, content)


# --- cache behavior ---

def test_cache_statistics_and_write_once():
    cache = KostkaCache()
    assert cache.get((2, 1), (1, 1, 1)) is None
    assert cache.misses == 1
    cache.put((2, 1), (1, 1, 1), TPoly({1: 1, 2: 1}))
    assert cache.get((2, 1), (1, 1, 1)) == TPoly({1: 1, 2: 1})
    assert cache.hits == 1
    cache.put((2, 1), (1, 1, 1), TPoly({1: 1, 2: 1}))  # same value is fine
    assert len(cache) == 1  # so `_save_cache` can tell an unchanged memo by its size
    with pytest.raises(CacheConflictError):
        cache.put((2, 1), (1, 1, 1), TPoly({5: 1}))


def test_cache_save_load_round_trip(tmp_path):
    cache = KostkaCache()
    kostka((4, 2, 1), (2, 2, 1, 1, 1), cache)
    path = tmp_path / "memo.tsv"
    cache.save(str(path))
    loaded = KostkaCache.load(str(path))
    assert loaded.items() == cache.items()
    assert len(loaded) == len(cache) == len(path.read_text().splitlines())
    # file layout: shape TAB content TAB dense text, the valuation and then
    # every coefficient up to the degree
    first = path.read_text().splitlines()[0].split("\t")
    assert len(first) == 3
    value = cache.get(parse_partition(first[0]), parse_partition(first[1]))
    low = value.items()[0][0]
    assert first[2] == f"{low}:" + ",".join(str(value.coeff(e))
                                            for e in range(low, value.leading_term()[0] + 1))


def test_cache_round_trips_coefficients_past_64_bits(tmp_path):
    wide = TPoly({1: 2**70, 2: 3 * 2**80})
    cache = KostkaCache()
    cache.put((2, 1), (1, 1, 1), wide)
    path = tmp_path / "memo.tsv"
    cache.save(str(path))
    loaded = KostkaCache.load(str(path))
    assert loaded.items() == cache.items()
    assert loaded.get((2, 1), (1, 1, 1)).items() == [(1, 2**70), (2, 3 * 2**80)]
    # a corrupt line after the wide one is still named by its line and key
    with open(path, "a") as fh:
        fh.write('3,1\t2,1,1\t[[1,"x"]]\n')
    with pytest.raises(CacheFormatError) as err:
        KostkaCache.load(str(path))
    assert str(err.value) == f"{path}: line 2: key 3,1 / 2,1,1: bad coefficient string 'x'"


def test_cache_load_reads_crlf_lines_and_skips_blank_ones(tmp_path):
    cache = KostkaCache()
    kostka((4, 2, 1), (2, 2, 1, 1, 1), cache)
    path = tmp_path / "memo.tsv"
    cache.save(str(path))
    lines = path.read_bytes().splitlines()
    assert len(lines) > 2
    path.write_bytes(b"\r\n".join(lines[:2] + [b""] + lines[2:]) + b"\r\n")
    assert KostkaCache.load(str(path)).items() == cache.items()


def test_interrupted_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "memo.tsv"
    small = KostkaCache()
    kostka((3, 2, 1), (2, 2, 1, 1), small)
    small.save(str(path))
    before = path.read_bytes()
    bigger = KostkaCache.load(str(path))
    kostka((5, 3, 2, 1), (2, 2, 2, 1, 1, 1, 1, 1), bigger)
    written = []
    to_dense_text = TPoly.to_dense_text

    def fail_midway(self):
        written.append(self)
        if len(written) == 5:
            raise OSError("disk full")
        return to_dense_text(self)

    monkeypatch.setattr(TPoly, "to_dense_text", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        bigger.save(str(path))
    assert len(written) == 5 < len(bigger)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["memo.tsv"]


def test_a_save_that_cannot_open_its_file_reports_that_error(tmp_path):
    cache = KostkaCache()
    kostka((3, 2, 1), (2, 2, 1, 1), cache)
    with pytest.raises(OSError) as err:
        cache.save(str(tmp_path / ("m" * 300 + ".tsv")))
    assert err.value.errno == errno.ENAMETOOLONG
    # a failed cleanup would raise its own error, with the save's as its context
    assert err.value.__context__ is None
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("3,2,1\t2,2,1,1", "3 tab-separated fields"),
        ("3,x\t2,2\t[[0,\"1\"]]", "'x'"),
        ("3,2,1\t2,2,1,1\t[[0,1]]", "2,2,1,1"),
        ("3,2,1\t2,2,1,1\tnot json", "2,2,1,1"),
        ("2,2,1,1\t3,2,1\t[[1,\"1\"]]", "non-dominating"),
        ("2,1\t3\t[[0,\"1\"]]", "non-dominating"),
        # a float exponent against a huge one overflows the span's subtraction
        ("2,1\t1,1,1\t[[1.5,\"1\"],[1" + "0" * 400 + ",\"1\"]]", "bad exponent 1.5"),
        # a zero or negative child would make every parent that sums it wrong
        ("2,1\t1,1,1\t[]", "key 2,1 / 1,1,1: zero value for dominating pair"),
        ("2,1\t1,1,1\t[[1,\"-1\"],[2,\"1\"]]", "key 2,1 / 1,1,1: negative coefficient"),
        ("2,1\t1,1,1\t[[1,\"1\"],[2,\"-1\"]]", "key 2,1 / 1,1,1: negative coefficient"),
    ],
)
def test_cache_load_rejects_corrupt_lines(tmp_path, line, fragment):
    path = tmp_path / "bad.tsv"
    path.write_text(line + "\n")
    with pytest.raises(CacheFormatError, match="line 1") as err:
        KostkaCache.load(str(path))
    assert str(err.value).startswith(f"{path}: line 1: ")
    assert fragment in str(err.value)


def test_cache_load_names_the_file_and_line_of_a_conflicting_record(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text('2,1\t1,1,1\t[[1,"1"],[2,"1"]]\n2,1\t1,1,1\t[[1,"1"]]\n')
    with pytest.raises(CacheFormatError) as err:
        KostkaCache.load(str(path))
    assert str(err.value).startswith(f"{path}: line 2: conflicting values for key 2,1 / 1,1,1")

def test_cache_load_accepts_zero_for_non_dominating_pair(tmp_path):
    path = tmp_path / "ok.tsv"
    path.write_text("2,1\t3\t[]\n")
    loaded = KostkaCache.load(str(path))
    assert loaded.get((2, 1), (3,)) == ZERO


def test_a_save_fits_wherever_its_target_name_does(tmp_path):
    # the temporary file's name does not grow with the target's
    cache = KostkaCache()
    kostka((3, 2, 1), (2, 2, 1, 1), cache)
    path = tmp_path / ("m" * 255)
    cache.save(str(path))
    assert KostkaCache.load(str(path)).items() == cache.items()
    assert os.listdir(tmp_path) == [path.name]
    # and the file gets the mode a plainly created one gets
    (tmp_path / "plain").touch()
    assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode


def _write_json_memo(cache, path):
    """The file a save wrote before values were dense: polynomial JSON fields."""
    path.write_text("".join(
        f"{format_partition(s)}\t{format_partition(c)}\t{json.dumps(v.to_json_obj())}\n"
        for (s, c), v in cache.items()))


def test_a_json_memo_loads_like_its_dense_resave(tmp_path):
    cache = KostkaCache()
    parts = list(partitions_of(9))
    for s in parts:
        for c in parts:
            kostka(s, c, cache)
    json_path, dense_path = tmp_path / "json.tsv", tmp_path / "dense.tsv"
    _write_json_memo(cache, json_path)
    loaded = KostkaCache.load(str(json_path))
    assert loaded.items() == cache.items()
    loaded.save(str(dense_path))
    assert KostkaCache.load(str(dense_path)).items() == cache.items()
    assert dense_path.stat().st_size < json_path.stat().st_size / 2
    # one file may hold both encodings, as after a JSON memo gained entries
    json_lines = json_path.read_text().splitlines(keepends=True)
    dense_lines = dense_path.read_text().splitlines(keepends=True)
    assert len(json_lines) == len(dense_lines) == len(cache)
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("".join(json_lines[::2] + dense_lines[1::2]))
    assert KostkaCache.load(str(mixed)).items() == cache.items()


@pytest.mark.parametrize(
    "line, problem",
    [
        ("2,1\t1,1,1\t1:1,+1", "bad dense polynomial text '1:1,+1'"),
        ("2,1\t1,1,1\t1:1,,1", "bad dense polynomial text '1:1,,1'"),
        ("2,1\t1,1,1\t1:1_0", "bad dense polynomial text '1:1_0'"),
        ("2,1\t1,1,1\t1: 1", "bad dense polynomial text '1: 1'"),
        ("2,1\t1,1,1\tx:1", "bad dense polynomial text 'x:1'"),
        ("2,1\t1,1,1\t1:0,1", "bad dense polynomial text '1:0,1'"),
        ("2,1\t1,1,1\t1:1,0", "bad dense polynomial text '1:1,0'"),
        ("2,1\t1,1,1\tnot json", "bad dense polynomial text 'not json'"),
        # the dominance and span refusals, as for JSON values
        ("2,2,1,1\t3,2,1\t1:1", "nonzero value for non-dominating pair"),
        ("2,2,1,1\t3,2,1\tgarbage", "nonzero value for non-dominating pair"),
        ("2,1\t1,1,1\t1:1,0,0,1", "exponents span 3, more than n(content) - n(shape) = 2"),
        # the load's own rules on values the decoder accepts
        ("2,1\t1,1,1\t", "zero value for dominating pair"),
        ("2,1\t1,1,1\t1:-1,1", "negative coefficient"),
    ],
)
def test_cache_load_rejects_bad_dense_fields(tmp_path, line, problem):
    path = tmp_path / "bad.tsv"
    path.write_text('3\t2,1\t2:1\n' + line + "\n")
    key = " / ".join(line.split("\t")[:2])
    with pytest.raises(CacheFormatError) as err:
        KostkaCache.load(str(path))
    assert str(err.value) == f"{path}: line 2: key {key}: {problem}"


def test_dense_value_is_refused_by_its_span_before_it_is_expanded(tmp_path):
    # a million coefficients for a pair whose values have one
    path = tmp_path / "wide.tsv"
    path.write_text("1\t1\t0:" + "1," * 10**6 + "1\n")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(CacheFormatError, match="exponents span 1000000, more than"):
            KostkaCache.load(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the line's own copies, never a list of its coefficients (about 30 times its size)
    assert peak < 6 * size


def test_cache_load_accepts_an_empty_field_as_zero(tmp_path):
    path = tmp_path / "ok.tsv"
    path.write_text("2,1\t3\t\n3\t2,1\t2:1\n")
    loaded = KostkaCache.load(str(path))
    assert loaded.get((2, 1), (3,)) == ZERO and loaded.get((3,), (2, 1)) == TPoly({2: 1})
    loaded.save(str(path))
    assert path.read_text() == "2,1\t3\t\n3\t2,1\t2:1\n"
