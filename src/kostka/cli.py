"""Command-line front end: compute, table, verify, bench.

Exit codes: 0 success, 1 usage or parse error or a memo file that cannot be
read or written, 2 verification mismatch (including a corrupt cache file and
a served value that no Kostka-Foulkes polynomial has).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from collections.abc import Iterable, Iterator

from .core import (
    ALL_FAST_PATHS,
    FAST_PATH_NAMES,
    CacheFormatError,
    KostkaCache,
    kostka,
)
from .oracles import (
    charge_by_tableaux,
    charge_polynomials,
    enumerate_ssyt,
    kostka_number,
    kostka_via_charge,
)
from .partitions import (
    Partition,
    PartitionParseError,
    dominates,
    format_partition,
    parse_partition,
    partitions_of,
    weighted_size,
)
from .polynomials import ZERO, TPoly

FORMATS = ("plain", "json", "csv", "latex")
FAST_PATHS = {"none": frozenset(), "all": ALL_FAST_PATHS,
              **{name: frozenset({name}) for name in FAST_PATH_NAMES}}
DEFAULT_ORACLE_CEILING = 10_000_000
TABLEAU_CHECK_MAX_N = 6  # verify charges each tableau up to this n
THREADS_HELP = "accepted for compatibility; evaluation is always serial"


class UsageError(Exception):
    pass


class CachePathError(Exception):
    """The memo file cannot be read or written at its path; the message says why."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for mismatches
    def error(self, message):
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:  # "--flag=--" would skip the type
            raise UsageError(f"argument {action.option_strings[0]}: expected a value, got '--'")
        return super()._get_values(action, arg_strings)


def _at_least(low: int):
    """An argparse type: an integer >= low in ASCII digits; the message names the bad token."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.removeprefix("-").isdigit()) or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _partition(text: str) -> Partition:
    try:
        return parse_partition(text)
    except PartitionParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="kostka", description="Exact Kostka-Foulkes polynomial computations.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one polynomial for a shape/content pair")
    pc.add_argument("--shape", type=_partition, required=True,
                    help='shape partition, e.g. "3,2,1"')
    pc.add_argument("--content", type=_partition, required=True,
                    help='content partition, e.g. "2^2,1^2"')
    pc.add_argument("--format", choices=FORMATS, default="plain")
    pc.add_argument("--fast-paths", choices=FAST_PATHS, default="none")
    pc.add_argument("--cache", metavar="FILE", help="persisted memo table to load and update")
    pc.add_argument("--dump-tableaux", action="store_true",
                    help="also print every tableau of the pair as a JSON line")

    pt = sub.add_parser("table", help="all pairs of partitions of n with shape >= content")
    pt.add_argument("--n", type=_at_least(1), required=True)
    pt.add_argument("--format", choices=FORMATS, default="csv")
    pt.add_argument("--fast-paths", choices=FAST_PATHS, default="none")
    pt.add_argument("--threads", type=_at_least(1), default=1, help=THREADS_HELP)
    pt.add_argument("--cache", metavar="FILE")

    pv = sub.add_parser("verify", help="sweep recursion against all oracles up to max n")
    pv.add_argument("--max-n", type=_at_least(0), required=True)
    pv.add_argument("--threads", type=_at_least(1), default=1, help=THREADS_HELP)
    pv.add_argument("--cache", metavar="FILE")

    pb = sub.add_parser("bench", help="time the recursion against the charge oracle")
    pb.add_argument("--shape", type=_partition, required=True)
    pb.add_argument("--content", type=_partition, required=True)
    pb.add_argument("--fast-paths", choices=FAST_PATHS, default="none")
    pb.add_argument("--oracle-ceiling", type=_at_least(0), default=DEFAULT_ORACLE_CEILING,
                    help="skip the charge oracle above this tableau count")
    pb.add_argument("--cache", metavar="FILE")

    return parser


def _load_cache(path: str | None) -> tuple[KostkaCache, str | None, int | None]:
    """The memo persisted at `path`, the file its save writes, and its size when it existed.

    `path` is resolved through its symbolic links once, and a path that cannot
    hold a memo file is refused here, before any computation, so a path that
    is plainly wrong costs no work.  Faults only the file system reports reach
    the load or the save.  The load reads `path` as typed, so its errors name it.
    """
    if not path:
        return KostkaCache(), None, None
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        parent = os.path.dirname(target)
        if not os.path.isdir(parent):
            raise CachePathError(f"directory {parent!r} does not exist") from None
        return KostkaCache(), target, None
    except OSError as exc:
        # realpath keeps a looping link, and a file used as a directory, for stat to name
        raise CachePathError(exc.strerror or exc) from exc
    if stat.S_ISDIR(mode):
        raise CachePathError("is a directory")
    # a FIFO would block the load, and a save replaces a device with a file
    if not stat.S_ISREG(mode):
        raise CachePathError("is not a regular file")
    try:
        cache = KostkaCache.load(path)
    except OSError as exc:
        raise CachePathError(exc.strerror or exc) from exc
    return cache, target, len(cache)


def _compute_pairs(
    path: str | None,
    pairs: Iterable[tuple[Partition, Partition]],
    fast_paths: frozenset[str] = frozenset(),
) -> tuple[list[TPoly], KostkaCache]:
    """The values of all pairs in order, served from the memo at `path`, and the memo.

    A value that no Kostka-Foulkes polynomial has is refused as soon as it is
    computed, before anything is saved or printed: a dominating pair's value
    is monic of degree n(content) - n(shape).  The load bounds only the span
    of a memo value's exponents, because `verify` must still meet a wrong
    value and report it, so a wrong memo line can reach here.  Entries are
    write-once and never dropped, so an unchanged size means unchanged
    entries, and the memo is saved only when its size changed (a memo read
    from JSON values is rewritten as dense text only once it gains entries).
    """
    cache, target, loaded = _load_cache(path)
    size = functools.cache(weighted_size)  # a table meets each partition many times
    values = []
    for s, c in pairs:
        v = kostka(s, c, cache, fast_paths)
        problem = None
        if v:
            degree, top = v.leading_term()
            expected = size(c) - size(s)
            if degree != expected:
                problem = f"has degree {degree}, not n(content) - n(shape) = {expected}"
            elif top != 1:
                problem = f"has top coefficient {top}, not 1"
        elif dominates(s, c):
            problem = "is zero for a dominating pair"
        if problem:
            raise CacheFormatError(
                f"key {format_partition(s)} / {format_partition(c)}: served value {problem}")
        values.append(v)
    if target and len(cache) != loaded:
        try:
            cache.save(target)
        except OSError as exc:
            raise CachePathError(exc.strerror or exc) from exc
    return values, cache


def _render_poly(value: TPoly, fmt: str) -> str:
    if fmt == "latex":
        return value.latex_str()
    if fmt == "json":
        return json.dumps(value.to_json_obj())
    return value.plain_str()


_ROWS = {"plain": lambda s, c, p: f"{s}\t{c}\t{p}\n",
         "csv": lambda s, c, p: f"{s},{c},{p}\n",
         "latex": lambda s, c, p: f"{s} & {c} & {p} \\\\\n",
         "json": lambda s, c, p: f'{{"shape": {s}, "content": {c}, "polynomial": {p}}}\n'}


def _print_rows(rows: Iterable[tuple[Partition, Partition, TPoly]],
                partitions: Iterable[Partition], fmt: str) -> None:
    """One (shape, content, polynomial) line per row; CSV comes with a header.

    `partitions` holds every shape and content of the rows, and each is
    named once, as a table meets every partition of n many times.  The rows
    are read once, each as it is written.
    """
    # CSV quotes exactly the partitions with commas, as no other field holds one
    names = {p: json.dumps(p) if fmt == "json" else format_partition(p) for p in partitions}
    if fmt == "csv":
        names = {p: f'"{text}"' if len(p) > 1 else text for p, text in names.items()}
        sys.stdout.write("shape,content,polynomial\n")
    row = _ROWS[fmt]
    sys.stdout.writelines(row(names[s], names[c], _render_poly(v, fmt)) for s, c, v in rows)


def cmd_compute(args: argparse.Namespace) -> int:
    (value,), _ = _compute_pairs(args.cache, [(args.shape, args.content)],
                                 FAST_PATHS[args.fast_paths])
    if args.format == "csv":
        _print_rows([(args.shape, args.content, value)], (args.shape, args.content), "csv")
    else:
        print(_render_poly(value, args.format))
    if args.dump_tableaux:
        for rows in enumerate_ssyt(args.shape, args.content):
            obj = {"shape": [len(r) for r in rows], "rows": [list(r) for r in rows]}
            print(json.dumps(obj))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    # dominance implies the lexicographic order, in which the shapes decrease,
    # so a row pairs a shape with itself or a later one, and `kostka` zeroes the rest
    shapes = list(partitions_of(args.n))

    def pairs() -> Iterator[tuple[Partition, Partition]]:
        return ((s, c) for i, s in enumerate(shapes) for c in shapes[i:])

    # only the values outlive the step, so the memo is freed once it is saved,
    # and each value is dropped as its row is written
    values = _compute_pairs(args.cache, pairs(), FAST_PATHS[args.fast_paths])[0]
    values.reverse()
    _print_rows(((s, c, v) for s, c in pairs() if (v := values.pop())), shapes, args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cache = _load_cache(args.cache)[0]
    counts: dict[tuple[Partition, Partition], int] = {}  # one tableau-count table for the sweep
    mismatches: list[tuple[Partition, Partition, str, str, str]] = []
    route: dict = {}

    def record(s, c, got, expected, oracle):
        mismatches.append((s, c, str(got), str(expected), oracle))

    pairs_checked = 0
    for n in range(1, args.max_n + 1):
        parts = list(partitions_of(n))
        pairs = [(s, c) for s in parts for c in parts]
        values = [kostka(s, c, cache) for s, c in pairs]  # unchecked: wrong values are reported
        columns = {c: charge_polynomials(c) for c in parts}  # keyed by the dominating shapes
        for (s, c), r in zip(pairs, values):
            pairs_checked += 1
            chg = columns[c].get(s, ZERO)
            if r != chg:
                record(s, c, r, chg, "charge")
            if n <= TABLEAU_CHECK_MAX_N:
                # the column programme against the textbook route, not the engine
                words = charge_by_tableaux(s, c)
                if chg != words:
                    record(s, c, chg, words, "charge-tableaux")
            count = kostka_number(s, c, counts)
            if r.evaluate(1) != count:
                record(s, c, r.evaluate(1), count, "ssyt-count")
            # each closed form that `kostka` serves, on the route it takes
            value = kostka(s, c, cache, ALL_FAST_PATHS, route)
            if route["path"] in ALL_FAST_PATHS and value != chg:
                record(s, c, value, chg, route["path"])
    for s, c, got, expected, oracle in mismatches:
        print(f"mismatch: shape={format_partition(s)} content={format_partition(c)} "
              f"got={got} expected={expected} oracle={oracle}")
    print(f"{len(mismatches)} mismatches / {pairs_checked} pairs")
    return 2 if mismatches else 0


def cmd_bench(args: argparse.Namespace) -> int:
    shape, content = args.shape, args.content
    fast_paths = FAST_PATHS[args.fast_paths]
    t0 = time.perf_counter()
    (value,), cache = _compute_pairs(args.cache, [(shape, content)])
    recursion_s = time.perf_counter() - t0
    print(f"shape: {format_partition(shape)}")
    print(f"content: {format_partition(content)}")
    print(f"recursion: {recursion_s * 1000:.3f} ms "
          f"({len(cache)} cache entries, {cache.hits} hits, {cache.misses} misses)")

    status = 0
    if fast_paths:
        audit: dict = {}
        t0 = time.perf_counter()
        fast_value = kostka(shape, content, None, fast_paths, audit)
        fast_s = time.perf_counter() - t0
        print(f"dispatch: {audit['path']} path in {fast_s * 1000:.3f} ms")
        if fast_value != value:
            print(f"mismatch: fast path {audit['path']} disagrees with recursion")
            status = 2

    count = kostka_number(shape, content)
    if count > args.oracle_ceiling:
        print(f"charge oracle skipped: {count} tableaux exceeds ceiling {args.oracle_ceiling}")
    else:
        t0 = time.perf_counter()
        charge_value = kostka_via_charge(shape, content)
        charge_s = time.perf_counter() - t0
        print(f"charge oracle: {count} tableaux in {charge_s * 1000:.3f} ms")
        if charge_value != value:
            print("mismatch: charge oracle disagrees with recursion")
            status = 2
        elif charge_s >= recursion_s:
            ratio = charge_s / max(recursion_s, 1e-9)
            print(f"speedup: recursion {ratio:.1f}x faster than charge oracle")
        else:
            ratio = recursion_s / max(charge_s, 1e-9)
            print(f"speedup: charge oracle {ratio:.1f}x faster than recursion")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"kostka: error: {exc}", file=sys.stderr)
        return 1
    # the environment variable wins over the flag
    env_cache = os.environ.get("KOSTKA_CACHE")
    source = "KOSTKA_CACHE" if env_cache else "--cache"
    args.cache = env_cache or args.cache
    command = {"compute": cmd_compute, "table": cmd_table, "verify": cmd_verify,
               "bench": cmd_bench}[args.command]
    try:
        status = command(args)
        # flushed here, so a reader that closes stdout early is met in this try
        sys.stdout.flush()
        return status
    except CachePathError as exc:
        print(f"kostka: error: {source} {args.cache!r}: {exc}", file=sys.stderr)
        return 1
    except CacheFormatError as exc:
        print(f"kostka: cache error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # point stdout at devnull, so the flush at shutdown stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
