"""Command-line front end: compute, table, verify, bench.

Exit codes: 0 success, 1 usage or parse error, 2 verification mismatch
(including a corrupt cache file).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .core import (
    ALL_FAST_PATHS,
    CacheFormatError,
    KostkaCache,
    kostka,
    kostka_auto,
    kostka_column,
    kostka_hook,
    kostka_one_row,
)
from .oracles import enumerate_ssyt, kostka_number, kostka_via_charge
from .partitions import (
    Partition,
    PartitionParseError,
    dominates,
    format_partition,
    parse_partition,
    partitions_of,
)
from .polynomials import TPoly

FORMATS = ("plain", "json", "csv", "latex")
FAST_PATH_CHOICES = ("none", "all", "one-row", "hook", "column")
DEFAULT_ORACLE_CEILING = 10_000_000


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    shape: Partition | None = None
    content: Partition | None = None
    n: int | None = None
    max_n: int | None = None
    format: str = "plain"
    fast_paths: frozenset[str] = field(default_factory=frozenset)
    cache_path: str | None = None
    threads: int = 1
    dump_tableaux: bool = False
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for mismatches
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="kostka", description="Exact Kostka-Foulkes polynomial computations.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one polynomial for a shape/content pair")
    pc.add_argument("--shape", required=True, help='shape partition, e.g. "3,2,1"')
    pc.add_argument("--content", required=True, help='content partition, e.g. "2^2,1^2"')
    pc.add_argument("--format", choices=FORMATS, default="plain")
    pc.add_argument("--fast-paths", choices=FAST_PATH_CHOICES, default="none")
    pc.add_argument("--cache", metavar="FILE", help="persisted memo table to load and update")
    pc.add_argument("--dump-tableaux", action="store_true",
                    help="also print every tableau of the pair as a JSON line")

    pt = sub.add_parser("table", help="all pairs of partitions of n with shape >= content")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--format", choices=FORMATS, default="csv")
    pt.add_argument("--fast-paths", choices=FAST_PATH_CHOICES, default="none")
    pt.add_argument("--threads", type=int, default=1)
    pt.add_argument("--cache", metavar="FILE")

    pv = sub.add_parser("verify", help="sweep recursion against all oracles up to max n")
    pv.add_argument("--max-n", type=int, required=True)
    pv.add_argument("--threads", type=int, default=1)
    pv.add_argument("--cache", metavar="FILE")

    pb = sub.add_parser("bench", help="time the recursion against the charge oracle")
    pb.add_argument("--shape", required=True)
    pb.add_argument("--content", required=True)
    pb.add_argument("--fast-paths", choices=FAST_PATH_CHOICES, default="none")
    pb.add_argument("--oracle-ceiling", type=int, default=DEFAULT_ORACLE_CEILING,
                    help="skip the charge oracle above this tableau count")
    pb.add_argument("--cache", metavar="FILE")

    return parser


def _fast_path_set(name: str) -> frozenset[str]:
    if name == "none":
        return frozenset()
    if name == "all":
        return ALL_FAST_PATHS
    return frozenset({name})


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if hasattr(args, "shape"):
        cfg.shape = parse_partition(args.shape)
    if hasattr(args, "content"):
        cfg.content = parse_partition(args.content)
    if hasattr(args, "n"):
        if args.n < 1:
            raise UsageError("--n must be a positive integer")
        cfg.n = args.n
    if hasattr(args, "max_n"):
        if args.max_n < 0:
            raise UsageError("--max-n must be nonnegative")
        cfg.max_n = args.max_n
    if hasattr(args, "format"):
        cfg.format = args.format
    if hasattr(args, "fast_paths"):
        cfg.fast_paths = _fast_path_set(args.fast_paths)
    if hasattr(args, "threads"):
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        cfg.threads = args.threads
    if hasattr(args, "dump_tableaux"):
        cfg.dump_tableaux = args.dump_tableaux
    if hasattr(args, "oracle_ceiling"):
        if args.oracle_ceiling < 0:
            raise UsageError("--oracle-ceiling must be nonnegative")
        cfg.oracle_ceiling = args.oracle_ceiling
    # the environment variable wins over the flag
    cfg.cache_path = os.environ.get("KOSTKA_CACHE") or getattr(args, "cache", None)
    return cfg


def _load_cache(path: str | None) -> tuple[KostkaCache, int | None]:
    """The memo persisted at `path`, and its size when the file existed."""
    if path and os.path.exists(path):
        cache = KostkaCache.load(path)
        return cache, len(cache)
    return KostkaCache(), None


def _save_cache(cache: KostkaCache, path: str | None, loaded: int | None) -> None:
    """Persist the memo unless it holds just what its existing file held.

    Entries are write-once and never dropped, so an unchanged size means
    unchanged entries, and rewriting the file would reproduce its bytes.
    """
    if path and len(cache) != loaded:
        cache.save(path)


def _compute_pairs(
    pairs: list[tuple[Partition, Partition]],
    threads: int,
    base: KostkaCache,
    fast_paths: frozenset[str] = frozenset(),
) -> list[TPoly]:
    """Evaluate all pairs in order; shards across per-worker cache clones.

    Workers get disjoint pair ranges and private caches seeded from `base`;
    the clones are merged back afterward, so the output and the final cache
    are independent of the thread count.
    """
    if threads <= 1 or len(pairs) <= 1:
        return [kostka_auto(s, c, base, fast_paths) for s, c in pairs]
    shards = [pairs[t::threads] for t in range(threads)]
    seeds = [base.clone() for _ in shards]

    def work(task):
        shard, local = task
        return [kostka_auto(s, c, local, fast_paths) for s, c in shard]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        shard_values = list(pool.map(work, zip(shards, seeds)))
    for local in seeds:
        base.merge(local)
    values: list[TPoly] = [None] * len(pairs)  # type: ignore[list-item]
    for t, vals in enumerate(shard_values):
        for k, v in enumerate(vals):
            values[t + k * threads] = v
    return values


def _render_poly(value: TPoly, fmt: str) -> str:
    if fmt == "latex":
        return value.latex_str()
    if fmt == "json":
        return json.dumps(value.to_json_obj())
    return value.plain_str()


def cmd_compute(cfg: RunConfig) -> int:
    cache, loaded = _load_cache(cfg.cache_path)
    value = kostka_auto(cfg.shape, cfg.content, cache, cfg.fast_paths)
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "content", "polynomial"])
        writer.writerow([format_partition(cfg.shape), format_partition(cfg.content),
                         value.plain_str()])
        sys.stdout.write(buf.getvalue())
    else:
        print(_render_poly(value, cfg.format))
    if cfg.dump_tableaux:
        for t in enumerate_ssyt(cfg.shape, cfg.content):
            print(json.dumps(t.to_json_obj()))
    _save_cache(cache, cfg.cache_path, loaded)
    return 0


def cmd_table(cfg: RunConfig) -> int:
    shapes = list(partitions_of(cfg.n))
    pairs = [(s, c) for s in shapes for c in shapes if dominates(s, c)]
    cache, loaded = _load_cache(cfg.cache_path)
    values = _compute_pairs(pairs, cfg.threads, cache, cfg.fast_paths)
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "content", "polynomial"])
        for (s, c), v in zip(pairs, values):
            writer.writerow([format_partition(s), format_partition(c), v.plain_str()])
        sys.stdout.write(buf.getvalue())
    elif cfg.format == "json":
        for (s, c), v in zip(pairs, values):
            print(json.dumps({"shape": list(s), "content": list(c),
                              "polynomial": v.to_json_obj()}))
    elif cfg.format == "latex":
        for (s, c), v in zip(pairs, values):
            print(f"{format_partition(s)} & {format_partition(c)} & {v.latex_str()} \\\\")
    else:
        for (s, c), v in zip(pairs, values):
            print(f"{format_partition(s)}\t{format_partition(c)}\t{v.plain_str()}")
    _save_cache(cache, cfg.cache_path, loaded)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    cache, _ = _load_cache(cfg.cache_path)
    mismatches: list[tuple[Partition, Partition, str, str, str]] = []

    def record(s, c, got, expected, oracle):
        mismatches.append((s, c, str(got), str(expected), oracle))

    pairs_checked = 0
    for n in range(1, cfg.max_n + 1):
        parts = list(partitions_of(n))
        pairs = [(s, c) for s in parts for c in parts]
        values = _compute_pairs(pairs, cfg.threads, cache)
        for (s, c), r in zip(pairs, values):
            pairs_checked += 1
            chg = kostka_via_charge(s, c)
            if r != chg:
                record(s, c, r, chg, "charge")
            count = kostka_number(s, c)
            if r.evaluate(1) != count:
                record(s, c, r.evaluate(1), count, "ssyt-count")
            if len(s) == 1:
                f = kostka_one_row(c)
                if r != f:
                    record(s, c, r, f, "one-row")
            if len(s) >= 2 and all(x == 1 for x in s[1:]) and dominates(s, c):
                f = kostka_hook(n, len(s) - 1, c)
                if r != f:
                    record(s, c, r, f, "hook")
            if all(x == 1 for x in c) and dominates(s, c):
                f = kostka_column(s)
                if r != f:
                    record(s, c, r, f, "column")
    for s, c, got, expected, oracle in mismatches:
        print(f"mismatch: shape={format_partition(s)} content={format_partition(c)} "
              f"got={got} expected={expected} oracle={oracle}")
    print(f"{len(mismatches)} mismatches / {pairs_checked} pairs")
    return 2 if mismatches else 0


def cmd_bench(cfg: RunConfig) -> int:
    cache, loaded = _load_cache(cfg.cache_path)
    print(f"shape: {format_partition(cfg.shape)}")
    print(f"content: {format_partition(cfg.content)}")

    t0 = time.perf_counter()
    value = kostka(cfg.shape, cfg.content, cache)
    recursion_s = time.perf_counter() - t0
    print(f"recursion: {recursion_s * 1000:.3f} ms "
          f"({len(cache)} cache entries, {cache.hits} hits, {cache.misses} misses)")

    status = 0
    if cfg.fast_paths:
        audit: dict = {}
        t0 = time.perf_counter()
        fast_value = kostka_auto(cfg.shape, cfg.content, None, cfg.fast_paths, audit)
        fast_s = time.perf_counter() - t0
        print(f"dispatch: {audit['path']} path in {fast_s * 1000:.3f} ms")
        if fast_value != value:
            print(f"mismatch: fast path {audit['path']} disagrees with recursion")
            status = 2

    count = kostka_number(cfg.shape, cfg.content)
    if count > cfg.oracle_ceiling:
        print(f"charge oracle skipped: {count} tableaux exceeds ceiling {cfg.oracle_ceiling}")
    else:
        t0 = time.perf_counter()
        charge_value = kostka_via_charge(cfg.shape, cfg.content)
        charge_s = time.perf_counter() - t0
        print(f"charge oracle: {count} tableaux in {charge_s * 1000:.3f} ms")
        if charge_value != value:
            print("mismatch: charge oracle disagrees with recursion")
            status = 2
        else:
            ratio = charge_s / max(recursion_s, 1e-9)
            print(f"speedup: recursion {ratio:.1f}x faster than charge oracle")

    _save_cache(cache, cfg.cache_path, loaded)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
    except UsageError as exc:
        print(f"kostka: error: {exc}", file=sys.stderr)
        return 1
    except PartitionParseError as exc:
        print(f"kostka: error: {exc}", file=sys.stderr)
        return 1
    try:
        if cfg.command == "compute":
            return cmd_compute(cfg)
        if cfg.command == "table":
            return cmd_table(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_bench(cfg)
    except CacheFormatError as exc:
        print(f"kostka: cache error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
