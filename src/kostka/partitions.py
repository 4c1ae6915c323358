"""Integer partitions: statistics, dominance order, conjugation, strip enumeration.

Partitions are plain tuples of weakly decreasing positive ints with no trailing
zeros, so they hash and compare structurally and can key memo tables directly.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import accumulate
from operator import ge

Partition = tuple[int, ...]


class PartitionParseError(ValueError):
    """A partition string could not be parsed; the message names the bad token."""


_TOKEN = re.compile(r"([0-9]+)(?:\^([0-9]+))?\Z")


def parse_partition(text: str) -> Partition:
    """Parse "3,2,1" or exponential shorthand "2^2,1^2"; "-" or "" is empty."""
    s = text.strip()
    if s in ("", "-"):
        return ()
    parts: list[int] = []
    prev: int | None = None
    for raw in s.split(","):
        tok = raw.strip()
        m = _TOKEN.match(tok)
        if m is None:
            raise PartitionParseError(f"bad partition token {tok!r}")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) is not None else 1
        if value == 0:
            raise PartitionParseError(f"zero part in token {tok!r}")
        if count == 0:
            continue
        if prev is not None and value > prev:
            raise PartitionParseError(f"parts not weakly decreasing at token {tok!r}")
        parts.extend((value,) * count)
        prev = value
    return tuple(parts)


def format_partition(p: Partition) -> str:
    """Comma-separated parts; the empty partition renders as "-"."""
    return ",".join(map(str, p)) if p else "-"


def weight(p: Partition) -> int:
    """Sum of the parts."""
    return sum(p)


def weighted_size(p: Partition) -> int:
    """Sum of (i - 1) * p_i over 1-based rows i."""
    return sum(i * x for i, x in enumerate(p))


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram along the main diagonal."""
    if not p:
        return ()
    cols = [0] * p[0]
    for x in p:
        for j in range(x):
            cols[j] += 1
    return tuple(cols)


def dominates(a: Partition, b: Partition) -> bool:
    """Dominance order at equal weight: every prefix sum of a is >= that of b.

    At equal weights a longer a never dominates (its prefix sum falls short
    where b's reaches the weight), and past the end of a shorter a its prefix
    sums equal the weight, so only the first len(a) prefix sums are compared.
    """
    return len(a) <= len(b) and sum(a) == sum(b) and all(map(ge, accumulate(a), accumulate(b)))


def hook_lengths(p: Partition) -> list[int]:
    """Hook length of every cell: arm plus leg plus one, row-major order."""
    conj = conjugate(p)
    out = []
    for i, row in enumerate(p, 1):
        for j in range(1, row + 1):
            out.append(row + conj[j - 1] - i - j + 1)
    return out


def branch_shape(p: Partition, i: int) -> Partition:
    """Drop the i-th part (1-based) and add one box to each earlier part.

    Always a valid partition: p[i-2] + 1 > p[i-1] >= p[i].
    """
    if not 1 <= i <= len(p):
        raise IndexError(f"part index {i} out of range for length {len(p)}")
    return tuple(x + 1 for x in p[: i - 1]) + p[i:]


def tail(p: Partition, i: int) -> Partition:
    """The partition left after removing the first i parts."""
    if not 0 <= i <= len(p):
        raise IndexError(f"tail index {i} out of range for length {len(p)}")
    return p[i:]


def horizontal_strip_additions(p: Partition, m: int) -> list[Partition]:
    """All shapes obtained from p by adding m boxes, no two in the same column.

    Equivalently all tau with tau_j >= p_j >= tau_{j+1} and weight(p) + m.
    Returned in decreasing lexicographic order; m = 0 yields exactly [p].
    Built row by row; a choice for row j that leaves more than p_j boxes is
    dropped at once, because the rows below can take at most p_j more.
    """
    if m < 0:
        raise ValueError("strip size must be nonnegative")
    rows: list[tuple[Partition, int]] = [((), m)]  # (rows chosen so far, boxes left)
    cap = m + (p[0] if p else 0)
    for x in p:
        # row j takes v = x + d boxes, d <= left and v <= p_{j-1}, and leaves
        # left - d <= x: v runs from min(cap, x + left) down to max(x, left),
        # spelled as conditional expressions because this is the hot loop
        rows = [(head + (v,), left + x - v)
                for head, left in rows
                for v in range(x + left if x + left < cap else cap,
                               (left if left > x else x) - 1, -1)]
        cap = x
    return [head + (left,) if left else head for head, left in rows]


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, each once, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        # the successor lowers the last part above 1 by one and refills the
        # boxes after it greedily with parts no larger
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        x = parts.pop() - 1
        q, r = divmod(x + 1 + ones, x)
        parts += [x] * q
        if r:
            parts.append(r)
