"""Kostka-Foulkes polynomials.

The general routine iterates on the content partition: consuming its first
part splits the computation into at most length(shape) signed branches, one
per row of the shape.  Branch i drops row i, adds a box to each earlier row,
and then grows the result by a horizontal strip whose size equals the power
of t carried by the branch (Pieri rule); branches whose size would be
negative vanish.  Intermediate signed sums may go negative, but every value
returned for a valid pair is a polynomial with nonnegative coefficients.

Closed forms cover one-row shapes, hook shapes and single-column contents.
`kostka` first chops off a common leading run of equal parts in shape and
content (`prefix_reduce`), which never changes the value, then takes a
closed form its caller allows or runs the general iteration.  Inside the
iteration, every subproblem below the root with single-column content is
finished by the column closed form.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os

from .partitions import (
    Partition,
    branch_shape,
    conjugate,
    dominates,
    format_partition,
    hook_lengths,
    horizontal_strip_additions,
    parse_partition,
    weight,
    weighted_size,
)
from .polynomials import ONE, TPoly, ZERO, t_binomial, t_quotient


class PreconditionViolated(ValueError):
    """A closed-form formula was invoked outside its domain."""


class CacheConflictError(RuntimeError):
    """A cache key was written twice with different values."""


class CacheFormatError(ValueError):
    """A persisted cache file is corrupt, naming the file, the line and the key; or a
    value served from the memo breaks an invariant, naming the key."""


FAST_PATH_NAMES = ("one-row", "hook", "column")
ALL_FAST_PATHS = frozenset(FAST_PATH_NAMES)

KostkaKey = tuple[Partition, Partition]


class KostkaCache:
    """Memo table of prefix-reduced pairs, one column per content.

    `_columns` maps each content to a column {shape: value}, so a content
    is held once however many entries share it, and a lookup inside a column
    hashes the shape alone.  Entries are write-once: a second put with a
    different value is an invariant violation.  Correctness never depends on
    a hit.
    """

    def __init__(self) -> None:
        self._columns: dict[Partition, dict[Partition, TPoly]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(map(len, self._columns.values()))

    def get(self, shape: Partition, content: Partition) -> TPoly | None:
        column = self._columns.get(content)
        value = None if column is None else column.get(shape)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, shape: Partition, content: Partition, value: TPoly) -> None:
        column = self._columns.get(content)
        if column is None:
            column = self._columns[content] = {}
        old = column.get(shape)
        if old is not None and old != value:
            raise CacheConflictError(
                f"conflicting values for key {format_partition(shape)} / {format_partition(content)}"
            )
        column[shape] = value

    def items(self) -> list[tuple[KostkaKey, TPoly]]:
        """Every entry, sorted by (shape, content)."""
        return sorted(
            ((shape, content), value)
            for content, column in self._columns.items()
            for shape, value in column.items()
        )

    def save(self, path: str) -> None:
        """One record per line: shape TAB content TAB the value's dense text.

        The records go to a temporary file beside `path`, which then replaces
        it, so a crash leaves the old file whole.  `path` is written as given:
        a symbolic link there is replaced, so a caller that keeps a link passes
        the file it resolves to.
        """
        tmp, fd = _create_beside(path)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                for (shape, content), value in self.items():
                    fh.write(f"{format_partition(shape)}\t{format_partition(content)}\t"
                             f"{value.to_dense_text()}\n")
                # the records reach the disk before the name points at them
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            # the error that stopped the save is the one to report, not the cleanup's
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "KostkaCache":
        """Read a persisted cache, validating every record.

        A value field starting with "[" is polynomial JSON, the format of
        earlier saves; any other field is dense text.  Rejects malformed
        lines, any value that is zero for a key whose shape dominates its
        content or nonzero for one whose shape does not, any value whose
        exponents span more than n(content) - n(shape), and any negative
        coefficient, naming the file, the line and the offending key.  The
        dominance and span refusals come before the value is expanded, so a
        short line cannot make the load allocate far more than a correct
        value needs.
        """
        cache = cls()
        # the same partitions key many lines: each text is parsed once, and
        # its partition and weighted size are shared by every line naming it
        parsed: dict[str, tuple[Partition, int]] = {}

        def parse(text: str) -> tuple[Partition, int]:
            p = parsed.get(text)
            if p is None:
                part = parse_partition(text)
                p = parsed[text] = (part, weighted_size(part))
            return p

        def error(line_no: int, problem: str) -> CacheFormatError:
            return CacheFormatError(f"{path}: line {line_no}: {problem}")

        with open(path, "rb") as fh:
            for line_no, data in enumerate(fh, 1):
                try:
                    line = data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(line_no, f"not UTF-8 text ({exc.reason})") from None
                line = line.removesuffix("\n").removesuffix("\r")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise error(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
                key_text = f"{fields[0]} / {fields[1]}"
                text = fields[2]
                try:
                    shape, n_shape = parse(fields[0])
                    content, n_content = parse(fields[1])
                    if text.startswith("["):
                        # polynomial JSON; deep nesting raises RecursionError
                        decode, obj = TPoly.from_json_obj, json.loads(text)
                        nonzero = isinstance(obj, list) and len(obj) > 0
                        try:
                            span = obj[-1][0] - obj[0][0] if nonzero else 0
                        except (TypeError, LookupError, OverflowError):
                            span = 0  # malformed entries: from_json_obj names the fault
                    else:
                        # "v:c0,...,cd" spans d, one per comma
                        decode, obj = TPoly.from_dense_text, text
                        nonzero, span = len(text) > 0, text.count(",")
                    if nonzero:
                        if not dominates(shape, content):
                            raise ValueError("nonzero value for non-dominating pair")
                        if span > n_content - n_shape:
                            raise ValueError(f"exponents span {span}, more than "
                                             f"n(content) - n(shape) = {n_content - n_shape}")
                    elif dominates(shape, content):
                        raise ValueError("zero value for dominating pair")
                    value = decode(obj)
                    # after a successful decode, a "-" in dense text leads a coefficient
                    if "-" in text and (obj is text or any(c < 0 for _, c in value.items())):
                        raise ValueError("negative coefficient")
                except (ValueError, TypeError, RecursionError) as exc:
                    raise error(line_no, f"key {key_text}: {exc}") from exc
                try:
                    cache.put(shape, content, value)
                except CacheConflictError as exc:
                    raise error(line_no, str(exc)) from exc
        return cache


def _create_beside(path: str) -> tuple[str, int]:
    """A new file in the directory of `path`, open for writing: its name and descriptor.

    The name is short and random, so it fits wherever `path` does, and the
    file takes the mode a plain `open` would give it.
    """
    directory = os.path.dirname(path)
    while True:
        tmp = os.path.join(directory, f".{os.urandom(6).hex()}.kostka.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue


def prefix_reduce(shape: Partition, content: Partition) -> tuple[Partition, Partition]:
    """Strip the longest common run of leading equal parts; the value is unchanged."""
    r = 0
    for a, b in zip(shape, content):
        if a != b:
            break
        r += 1
    return shape[r:], content[r:]


Branch = tuple[int, int, tuple[Partition, ...]]


@functools.lru_cache(maxsize=2)
def recursion_children(shape: Partition, head: int) -> tuple[Branch, ...]:
    """Signed branches taken when a leading content part `head` is consumed.

    Returns (i, size, taus) triples: the 1-based branch index (sign is
    (-1)**(i-1)), the strip size (also the power of t the branch carries),
    and the shapes reached by adding a horizontal strip of that size to
    branch i of the shape.  Branches with negative size are dropped, so the
    branch structure depends on the content only through its first part.

    The result is immutable, and the two most recent ones are kept: `table`
    and `verify` visit their roots shape by shape, and with two entries each
    (shape, head) they meet is enumerated once (2,105 keys for the 25,402
    expanded frames of a cold `table --n 16`).
    """
    out = []
    for i in range(1, len(shape) + 1):
        size = shape[i - 1] - head - i + 1
        if size >= 0:
            out.append((i, size, tuple(horizontal_strip_additions(branch_shape(shape, i), size))))
    return tuple(out)


def kostka(
    shape: Partition,
    content: Partition,
    cache: KostkaCache | None = None,
    fast_paths: frozenset[str] = frozenset(),
    audit: dict | None = None,
) -> TPoly:
    """Kostka-Foulkes polynomial of the pair.

    Zero unless the weights agree and shape dominates content; one when both
    are empty.  Otherwise a closed form named in `fast_paths` that applies,
    else the signed strip iteration, which memoizes every computed pair in
    `cache`, or in a private table for this call when none is given.  The
    value never depends on `fast_paths`; `audit`, when given, records which
    route produced it under "path".
    """
    s, c = prefix_reduce(shape, content)
    if not dominates(s, c):
        path, value = "vanishing", ZERO
    elif not c:
        path, value = "empty", ONE
    # the flag first, then an O(1) shape test: parts are weakly decreasing,
    # so a content starting with 1 is all ones, and s[1] == 1 makes a hook
    elif "one-row" in fast_paths and len(s) == 1:
        path, value = "one-row", kostka_one_row(c)
    elif "column" in fast_paths and c[0] == 1:
        path, value = "column", kostka_column(s)
    elif "hook" in fast_paths and len(s) >= 2 and s[1] == 1:
        path, value = "hook", kostka_hook(weight(s), len(s) - 1, c)
    else:
        path = "recursion"
        if cache is None:
            cache = KostkaCache()
        value = cache.get(s, c)
        if value is None:
            value = _iterate((s, c), cache)
    if audit is not None:
        audit["path"] = path
    return value


def _iterate(root: KostkaKey, cache: KostkaCache) -> TPoly:
    """Value of a prefix-reduced dominating pair that is not yet memoized.

    A post-order walk on an explicit stack, so a long content costs no
    interpreter recursion.  A frame is [key, branches]: branches is None until
    the frame is expanded, then (i, size, children) triples in which a child
    is its value when the memo already had it, or its key while it still has
    to be computed on a frame above.  A missing child with single-column
    content is a leaf: `kostka_column` computes it and it is memoized at
    once, never pushed.  The root is always iterated.  A vanishing child costs
    a dominance test each time it is met and is never memoized.  Every child
    lookup is counted in the cache's hits or misses; a leaf is one miss.
    An expansion fetches the column of the content's tail once, creating it
    if missing, so a leaf memoized there is seen by every later sibling; a
    child is looked up in it by its shape alone, unless prefix reduction
    changes its content.
    """
    columns = cache._columns
    hits = misses = 0
    stack: list[list] = [[root, None]]
    while stack:
        frame = stack[-1]
        key, branches = frame
        if branches is None:
            shape, content = key
            if shape in columns.get(content, ()):  # pushed twice, and computed since
                stack.pop()
                continue
            rest = content[1:]
            column = columns.get(rest)
            if column is None:
                column = columns[rest] = {}
            branches = frame[1] = []
            for i, size, taus in recursion_children(shape, content[0]):
                children: list = []
                for tau in taus:
                    if tau == rest:
                        children.append(ONE)
                        continue
                    # prefix_reduce inline: tau and rest have equal weights and
                    # differ, so they differ at an index inside both
                    if tau[0] != rest[0]:
                        child_shape, child_content, child_column = tau, rest, column
                    else:
                        r = 1
                        while tau[r] == rest[r]:
                            r += 1
                        child_shape, child_content = tau[r:], rest[r:]
                        child_column = columns.get(child_content)
                    value = None if child_column is None else child_column.get(child_shape)
                    if value is not None:
                        hits += 1
                        children.append(value)
                        continue
                    misses += 1
                    if child_content[0] == 1:
                        # a content starting with 1 is all ones: a column leaf
                        value = kostka_column(child_shape)
                        cache.put(child_shape, child_content, value)
                        children.append(value)
                        continue
                    if not dominates(child_shape, child_content):
                        continue
                    child = (child_shape, child_content)
                    children.append(child)
                    stack.append([child, None])
                branches.append((i, size, children))
            continue
        total = ZERO
        for i, size, children in branches:
            branch = ZERO
            for child in children:
                branch = branch + (columns[child[1]][child[0]] if type(child) is tuple else child)
            branch = branch.shift(size)
            total = total + branch if i % 2 else total - branch
        stack.pop()
        cache.put(key[0], key[1], total)
    cache.hits += hits
    cache.misses += misses
    return columns[root[1]][root[0]]


def kostka_one_row(content: Partition) -> TPoly:
    """Closed form for a one-row shape: a single power of t."""
    return ONE.shift(weighted_size(content))


def kostka_hook(n: int, k: int, content: Partition) -> TPoly:
    """Closed form for the hook shape (n-k, 1^k): a shifted Gaussian binomial."""
    if n <= 0 or not 0 <= k <= n - 1:
        raise PreconditionViolated(f"invalid hook: n={n}, k={k}")
    if weight(content) != n:
        raise PreconditionViolated(f"content weight {weight(content)} != {n}")
    hook = (n - k,) + (1,) * k
    if not dominates(hook, content):
        raise PreconditionViolated(
            f"content {format_partition(content)} not dominated by hook {format_partition(hook)}"
        )
    l = len(content)
    e = weighted_size(content) - k * l + k * (k + 1) // 2
    return t_binomial(l - 1, k).shift(e)


def kostka_column(shape: Partition) -> TPoly:
    """Closed form for single-column content: t^n(shape') [n]! / prod [h].

    Written as prod (1 - t^a), a = 1..n, over prod (1 - t^h), h the hook
    lengths; the quotient is provably exact, so NotDivisible escaping here
    means a bug.
    """
    n = weight(shape)
    return t_quotient(range(1, n + 1), hook_lengths(shape)).shift(weighted_size(conjugate(shape)))
