"""Independent verification oracles.

Three routes to the same numbers, none sharing logic with the polynomial
iteration they check: explicit tableau enumeration, the charge statistic,
and a strip-peeling count that never materializes a tableau.

Both the enumeration and the count peel one letter's horizontal strip at a
time with `_strip_removals`, the enumeration keeping only the inner shapes
that dominate the content left to place.  The charge generating functions
run the other way: `charge_polynomials` adds one letter's strip at a time
with `_strip_additions` and carries `charge`'s standard subwords along, so
equal partial states merge, each holding its counts by charge as a `TPoly`,
and no tableau or reading word is built; one call gives the whole column of
a content.  `charge_by_tableaux` keeps the textbook route, `charge` of each
tableau's `reading_word`, to check it against.  Every oracle loops over
explicit lists, so none meets a recursion limit.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, zip_longest
from operator import add

from .partitions import Partition, conjugate, dominates, weight
from .polynomials import ONE, ZERO, TPoly


class ContentMismatch(ValueError):
    """Word letter multiplicities disagree with the stated content."""


def is_semistandard(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Rows weakly increase, columns strictly increase, row lengths weakly decrease."""
    for r, row in enumerate(rows):
        if any(row[c] < row[c - 1] for c in range(1, len(row))):
            return False
        if r:
            if len(row) > len(rows[r - 1]):
                return False
            if any(row[c] <= rows[r - 1][c] for c in range(len(row))):
                return False
    return True


def enumerate_ssyt(shape: Partition, content: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All semistandard tableaux of the given shape and content.

    The cells holding letters 1..v form a shape, and the v's form a
    horizontal strip on top of the shape of 1..v-1.  A top-down pass peels
    the strips of v = k..1 from `shape` with `_strip_removals`, the routine
    `kostka_number` counts with, and keeps an inner shape only when it
    dominates the content prefix it must hold, which is exactly when it has
    a filling, so no branch dead-ends.  A bottom-up pass then builds the
    fillings of each kept shape once, extending every filling of an inner
    shape by its strip.  Each tableau is a tuple of its rows, top to bottom,
    and they come out in row-major lexicographic order.
    Empty when the weights differ or the shape does not dominate the content.
    """
    if weight(shape) != weight(content) or not dominates(shape, content):
        return []
    nrows = len(shape)
    strips = []  # for v = k..1: {shape of 1..v: [(shape of 1..v-1, strip of v's)]}
    level = {shape}
    for v in range(len(content), 0, -1):
        below = {}
        for outer in level:
            pairs = below[outer] = []
            for inner in _strip_removals(outer, content[v - 1]):
                if dominates(inner, content[:v - 1]):
                    # outer_j - inner_j v's in row j, padded to all rows of `shape`
                    strip = [(v,) * (o - i) for o, i in zip_longest(outer, inner, fillvalue=0)]
                    pairs.append((inner, tuple(strip) + ((),) * (nrows - len(outer))))
        strips.append(below)
        level = {inner for pairs in below.values() for inner, _ in pairs}
    fillings: dict[Partition, list] = {(): [((),) * nrows]}
    for below in reversed(strips):
        fillings = {outer: [tuple(map(add, rows, ext))
                            for inner, ext in pairs for rows in fillings[inner]]
                    for outer, pairs in below.items()}
    return sorted(fillings[shape])


def reading_word(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Rows top to bottom, each read right to left."""
    out: list[int] = []
    for row in rows:
        out.extend(reversed(row))
    return tuple(out)


def charge(word: tuple[int, ...], content: Partition) -> int:
    """Charge of a word whose letter multiplicities form the given partition.

    Repeatedly extract a standard subword: take the leftmost 1, then for
    each next letter the leftmost occurrence strictly right of the previous
    pick, wrapping cyclically to the leftmost occurrence overall when none
    exists; stop at the first absent letter and delete the picks.  Each
    extracted subword, read in original left-to-right order, contributes
    the sum of its letter indices: letter 1 has index 0 and the index grows
    by one exactly when a letter sits left of its predecessor, that is, when
    its pick wrapped around.
    """
    k = len(content)
    # positions[v]: where letter v occurs, left to right; positions[k + 1] stays empty
    positions: list[list[int]] = [[] for _ in range(k + 2)]
    if word and not (1 <= min(word) and max(word) <= k):
        raise ContentMismatch(f"word letters {min(word)}..{max(word)} outside 1..{k}")
    for i, v in enumerate(word):
        positions[v].append(i)
    counts = list(map(len, positions[1:k + 1]))
    if counts != list(content):
        raise ContentMismatch(f"word multiplicities {counts} != content {list(content)}")

    total = 0
    for cur in positions[1]:
        idx = 0
        v = 2
        while plist := positions[v]:
            j = bisect_right(plist, cur)
            if j < len(plist):
                cur = plist.pop(j)
            else:
                cur = plist.pop(0)
                idx += 1
            total += idx
            v += 1
    return total


def charge_by_tableaux(shape: Partition, content: Partition) -> TPoly:
    """Sum of t^charge of the reading word over `enumerate_ssyt`, tableau by tableau.

    The textbook route, which `charge_polynomials` must agree with.
    """
    coeffs: dict[int, int] = {}
    for t in enumerate_ssyt(shape, content):
        e = charge(reading_word(t), content)
        coeffs[e] = coeffs.get(e, 0) + 1
    return TPoly(coeffs)


def kostka_via_charge(shape: Partition, content: Partition) -> TPoly:
    """Charge generating function over all tableaux of the pair.

    Read from `charge_polynomials` bounded by the shape.
    """
    if not dominates(shape, content):
        return ZERO
    return charge_polynomials(content, within=shape).get(shape, ZERO)


def charge_polynomials(content: Partition,
                       within: Partition | None = None) -> dict[Partition, TPoly]:
    """Sum of t^charge over the tableaux of each shape of the content's weight.

    Keyed by the shapes that have tableaux of this content (those that
    dominate it), only those inside `within` when it is given.  No tableau is
    built: letters are placed one horizontal strip at a time, and `charge`'s
    standard subwords are followed through the placement.  Cell (r, c) is
    read at key r*W - c, an increasing function of its place in the reading
    word, so after letters 1..v a state is the shape holding them plus the
    keys of the v-picks of subwords 1..content[v-1].  Letter v+1's subwords,
    in order, each take the smallest free key of its strip above their
    v-pick; one that finds none wraps to the smallest free key, and every
    letter left in it, v+1 up to its last letter, gains one index, so the
    index need not be kept.  Equal states merge, so the work follows the
    number of states, not of tableaux.  Each state's counts by charge are a
    `TPoly`: the index gains of its picks' wraps shift it once, equal states
    add, and each shape's value is the sum over its states.
    """
    width = weight(content) + 1  # above every column index, so no key is -width or lower
    last = conjugate(content)  # last[j]: the last letter of subword j + 1
    # before letter 1 every subword's pick sits left of the word, so subword j
    # takes the j-th smallest key of the first strip without wrapping
    states = {(): {(-width,) * (content[0] if content else 0): ONE}}
    for v, m in enumerate(content):
        wraps = [x - v for x in last[:m]]
        placed: dict[Partition, dict] = {}
        for shape, subwords in states.items():
            for outer, keys in _strip_additions(shape, m, within, width):
                merged = placed.setdefault(outer, {})
                for picks, counts in subwords.items():
                    free = list(keys)
                    gain = 0
                    for j, hi in enumerate(range(m, 0, -1)):
                        # free[:hi] are the unpicked keys, ascending; picks move to the end
                        i = bisect_right(free, picks[j], 0, hi)
                        if i == hi:
                            i = 0
                            gain += wraps[j]
                        free.append(free.pop(i))
                    state = tuple(free)
                    counts = counts.shift(gain)
                    acc = merged.get(state)
                    merged[state] = counts if acc is None else acc + counts
        states = placed
    return {shape: sum(subwords.values(), ZERO) for shape, subwords in states.items()}


def kostka_number(shape: Partition, content: Partition) -> int:
    """Tableau count by peeling one letter at a time; no tableau is built.

    The count of (shape, content) is the sum of the counts of (inner, content
    minus its last part) over the inner shapes that a horizontal strip of
    the last letter leaves.  A depth-first walk on an explicit stack fills
    in the counts, which `_peel_counts` shares across calls.
    """
    if weight(shape) != weight(content):
        return 0
    counts = _peel_counts()
    root = (shape, content)
    stack: list[tuple[tuple[Partition, Partition], list | None]] = [(root, None)]
    while stack:
        key, inners = stack.pop()
        if inners is not None:
            counts[key] = sum(map(counts.__getitem__, inners))
        elif key not in counts:
            s, c = key
            rest = c[:-1]
            inners = [(inner, rest) for inner in _strip_removals(s, c[-1])]
            stack.append((key, inners))
            stack += [(k, None) for k in inners if k not in counts]
    return counts[root]


@lru_cache(maxsize=1)
def _peel_counts() -> dict[tuple[Partition, Partition], int]:
    # one dict for the process; cache_clear() starts a new one.  Weights stay
    # equal while peeling, so an empty content is reached only with an empty shape
    return {((), ()): 1}


def _strip_removals(shape: Partition, m: int) -> list[Partition]:
    # all sigma with shape/sigma a horizontal m-strip: shape_j >= sigma_j >= shape_{j+1}.
    # Only the last row of each run of equal parts can lose boxes, and it must
    # leave at most `below` boxes to remove, as the rows under it hold no more
    ways = [((), m)]  # (rows of sigma so far, boxes still to remove)
    start = 0
    for j, x in enumerate(shape):
        below = shape[j + 1] if j + 1 < len(shape) else 0
        if below == x:
            continue
        run = shape[start:j]
        start = j + 1
        # y boxes stay in row j: y >= below, 0 <= left - (x - y) <= below; spelled
        # as conditional expressions because this is the hot loop
        ways = [(rows + run + (y,), left - x + y)
                for rows, left in ways
                for y in range(x - left if x - left > below else below,
                               x - left + below + 1 if left > below else x + 1)]
    return [rows[:-1] if rows and not rows[-1] else rows for rows, left in ways if not left]


def _strip_additions(shape: Partition, m: int, within: Partition | None,
                     width: int) -> list[tuple[Partition, tuple[int, ...]]]:
    # all (outer, keys) with outer/shape a horizontal m-strip inside `within`, and
    # keys those of the added cells, ascending.  Only the first row of each run of
    # equal parts, and the new row under the shape, can grow: row j by at most
    # shape[j-1] - shape[j], so the loop runs over distinct parts, not rows
    starts = [shape.index(x) for x in sorted(set(shape), reverse=True)] + [len(shape)]
    rows = shape + (0,)
    room = [rows[j - 1] - rows[j] if j else m for j in starts]
    if within is not None:
        room = [min(r, (within[j] if j < len(within) else 0) - rows[j])
                for r, j in zip(room, starts)]
    rest = list(accumulate(reversed(room)))[::-1] + [0]  # rest[i]: room in runs i..
    ways = [((), m, ())]  # (rows of outer so far, boxes still to add, keys so far)
    for i, j in enumerate(starts):
        x = rows[j]
        run = shape[j + 1:starts[i + 1]] if j < len(shape) else ()
        key = j * width - x  # key of cell (j, x); the next cells of row j count down
        ways = [(outer + ((x + a,) if x + a else ()) + run, left - a,
                 keys + tuple(range(key - a + 1, key + 1)))
                for outer, left, keys in ways
                for a in range(max(0, left - rest[i + 1]), min(room[i], left) + 1)]
    return [(outer, keys) for outer, _, keys in ways]
