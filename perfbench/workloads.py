"""The two benchmark workloads, their inputs and their output checks.

Every workload is a closed loop with one client: a pass runs its requests in
order, each through ``kostka.cli.main`` in this process, and a request starts
only after the previous one returned and was checked.  Checks sit outside
the timed interval and are independent of the strip iteration: they use the
tableau-count oracle, the closed forms, frozen fixtures and digests of output
that the CLI promises to keep byte-identical.
"""

from __future__ import annotations

import bisect
import csv
import gc
import hashlib
import io
import json
import random
import re
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

TABLE_ARGV = ["table", "--n", "16", "--threads", "2"]
TABLE_ROWS = 22025
# sha256 of `kostka table --n 16` (CSV), byte-identical for every --threads value
TABLE_SHA256 = "d4de9300ece0609a1afee6b751abe946a5f2223b617794addbb01b8fbd23183f"
VERIFY_ARGV = ["verify", "--max-n", "10"]
VERIFY_LAST_LINE = "0 mismatches / 3582 pairs"
VERIFY_PAIRS = 3582

# K[(6,4,3,2), (3,1^12)](t), exponent -> coefficient (the published table)
HEADLINE = {
    16: 1, 17: 3, 18: 7, 19: 15, 20: 28, 21: 48, 22: 79, 23: 122, 24: 180,
    25: 256, 26: 351, 27: 465, 28: 600, 29: 751, 30: 917, 31: 1093, 32: 1273,
    33: 1447, 34: 1613, 35: 1758, 36: 1878, 37: 1965, 38: 2017, 39: 2027,
    40: 2001, 41: 1933, 42: 1832, 43: 1701, 44: 1549, 45: 1378, 46: 1203,
    47: 1025, 48: 855, 49: 695, 50: 552, 51: 425, 52: 320, 53: 232, 54: 163,
    55: 110, 56: 72, 57: 44, 58: 26, 59: 14, 60: 7, 61: 3, 62: 1,
}
EXIT_MISMATCH = 2  # the CLI found a value that disagrees with an oracle or a cache check
DEEP = 1100  # one-row shape against a single column: K = t^{n(1^1100)}

Partition = tuple[int, ...]


# ------------------------------------------------- partitions, without kostka


def partitions_of(n: int, max_part: int | None = None) -> list[Partition]:
    """Partitions of n in decreasing lexicographic order."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [(first,) + rest for first in range(top, 0, -1)
            for rest in partitions_of(n - first, first)]


def dominates(a: Partition, b: Partition) -> bool:
    if sum(a) != sum(b):
        return False
    pa = pb = 0
    for i in range(max(len(a), len(b))):
        pa += a[i] if i < len(a) else 0
        pb += b[i] if i < len(b) else 0
        if pa < pb:
            return False
    return True


def n_stat(p: Partition) -> int:
    """n(p) = sum of (i - 1) * p_i; K[shape, content] has degree n(content) - n(shape)."""
    return sum(i * x for i, x in enumerate(p))


def text(p: Partition) -> str:
    return ",".join(map(str, p)) if p else "-"


def parse(s: str) -> Partition:
    return () if s == "-" else tuple(int(x) for x in s.split(","))


def strips(p: Partition, m: int) -> list[Partition]:
    """Shapes tau containing p with tau / p a horizontal strip of m boxes."""
    out: list[Partition] = []

    def fill(j: int, left: int, rows: tuple) -> None:
        if j == len(p):
            if left <= (p[-1] if p else left):
                out.append(rows + ((left,) if left else ()))
            return
        hi = p[j] + left if j == 0 else min(p[j - 1], p[j] + left)
        for v in range(hi, p[j] - 1, -1):
            fill(j + 1, left - (v - p[j]), rows + (v,))

    fill(0, m, ())
    return out


class _PastLimit(Exception):
    pass


def lookups(shape: Partition, content: Partition, limit: int) -> int:
    """How many subproblems the memoized strip iteration visits for the pair.

    Counted by a walk of the iteration's state space that computes no
    polynomial, so the count does not change when the program does.  Stops
    once the count passes `limit`.
    """
    seen = set()
    calls = 0

    def visit(s: Partition, c: Partition) -> None:
        nonlocal calls
        calls += 1
        if calls > limit:
            raise _PastLimit
        r = 0
        while r < min(len(s), len(c)) and s[r] == c[r]:
            r += 1
        s, c = s[r:], c[r:]
        if not c or (s, c) in seen or not dominates(s, c):
            return
        seen.add((s, c))
        for i in range(1, len(s) + 1):
            size = s[i - 1] - c[0] - i + 1
            if size >= 0:
                for tau in strips(tuple(x + 1 for x in s[:i - 1]) + s[i:], size):
                    visit(tau, c[1:])

    try:
        visit(shape, content)
    except _PastLimit:
        pass
    return calls


# Pairs the iteration solves in 2000-4000 subproblem visits, about 20-55 ms
# each on a 2-core x86 container.  A cost band rather than the whole range
# (0.4-700 ms) keeps the mix's latency quantiles from moving with the seed.
LOOKUP_BAND = (2000, 4000)
# Deciles of visits x content length over the 3556 candidate pairs inside
# LOOKUP_BAND; that product tracks a pair's time closer than the visits
# alone.  A mix takes the same number of pairs from every decile, so its
# total cost and quantiles hardly move with the seed.
COST_DECILES = (28469, 32636, 36048, 39267, 42660, 46394, 50650, 56052, 63539)


def pairs_mix(seed: int, per_decile: int = 4) -> list[tuple[Partition, Partition]]:
    """The generated part of `pairs`: a pure function of the seed.

    n in 20..22, shapes of 2-6 rows that are not hooks, contents 2^a 1^b with
    shape dominating content, a visit count inside LOOKUP_BAND, and
    `per_decile` pairs from each decile of COST_DECILES, in the order drawn.
    """
    candidates = [(shape, (2,) * twos + (1,) * (n - 2 * twos))
                  for n in (20, 21, 22) for shape in partitions_of(n)
                  if 2 <= len(shape) <= 6 and shape[1] >= 2
                  for twos in range(n // 2 + 1)]
    candidates = [(s, c) for s, c in candidates if dominates(s, c)]
    rng = random.Random(seed)
    lo, hi = LOOKUP_BAND
    taken = [0] * (len(COST_DECILES) + 1)
    picks = []
    for k in rng.sample(range(len(candidates)), len(candidates)):
        shape, content = candidates[k]
        visits = lookups(shape, content, hi)
        if not lo <= visits <= hi:
            continue
        decile = bisect.bisect(COST_DECILES, visits * len(content))
        if taken[decile] < per_decile:
            taken[decile] += 1
            picks.append(candidates[k])
            if len(picks) == per_decile * len(taken):
                break
    return picks


# ------------------------------------------------------- polynomial outputs


_TERM = re.compile(r"(\d*)(t(?:\^(\d+))?)?")


def parse_plain(s: str) -> dict[int, int]:
    """Inverse of TPoly.plain_str: "t + 2t^2 + t^3" -> {1: 1, 2: 2, 3: 1}."""
    s = s.strip()
    if s == "0":
        return {}
    out: dict[int, int] = {}
    for tok in s.replace(" - ", " + -").split(" + "):
        sign = -1 if tok.startswith("-") else 1
        m = _TERM.fullmatch(tok.lstrip("-"))
        if m is None or not (m.group(1) or m.group(2)):
            raise ValueError(f"bad polynomial term {tok!r}")
        e = 0 if not m.group(2) else int(m.group(3) or 1)
        out[e] = out.get(e, 0) + sign * int(m.group(1) or 1)
    return out


def parse_json_poly(s: str) -> dict[int, int]:
    return {e: int(c) for e, c in json.loads(s)}


def invariant_failure(coeffs: dict[int, int], shape: Partition, content: Partition,
                      count: int) -> str | None:
    """Macdonald III.6: monic of degree n(content) - n(shape), positive, K(1) = #SSYT."""
    if not coeffs:
        return "zero polynomial for a dominating pair"
    degree = n_stat(content) - n_stat(shape)
    if max(coeffs) != degree:
        return f"degree {max(coeffs)} != {degree}"
    if coeffs[degree] != 1:
        return f"leading coefficient {coeffs[degree]} != 1"
    if min(coeffs.values()) <= 0:
        return "nonpositive coefficient"
    if sum(coeffs.values()) != count:
        return f"value at t=1 is {sum(coeffs.values())}, tableau count {count}"
    return None


# ------------------------------------------------------------ running


@dataclass
class Outcome:
    status: int | None  # exit code; None when main raised
    error: str | None  # exception type when main raised
    stdout: str
    stderr: str
    seconds: float
    failure: str | None = None  # why the request counts as failed
    wrong: bool = False  # completed but with a wrong output


@dataclass
class Request:
    argv: list[str]
    check: Callable[[Outcome], str | None]  # a wrong-output reason, or None
    pairs: int = 1  # polynomials produced or checked on success
    restore: tuple[Path, Path] | None = None  # (source, target) file copied first, untimed


@dataclass
class Plan:
    requests: list[Request]
    # untimed checks too costly for every pass; run once on the warm-up pass
    deep_check: Callable[[list[Outcome]], list[str]] = lambda outcomes: []
    inputs: dict = field(default_factory=dict)
    setup_failures: list[str] = field(default_factory=list)


def clear_memos(kostka: dict[str, Any]) -> None:
    """Clear every module-level lru_cache, so a request starts like a new process."""
    for module in kostka.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_request(kostka: dict[str, Any], req: Request) -> Outcome:
    clear_memos(kostka)
    if req.restore is not None:
        shutil.copyfile(*req.restore)
    out, err = io.StringIO(), io.StringIO()
    status = error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            status = kostka["cli"].main(list(req.argv))
        except Exception as exc:  # a crash is a measured outcome, not a harness error
            error = type(exc).__name__
        seconds = time.perf_counter() - t0
    o = Outcome(status, error, out.getvalue(), err.getvalue(), seconds)
    if error is not None:
        o.failure = f"raised {error}"
    elif status != 0:
        o.failure = f"exit {status}: {(o.stderr or o.stdout).strip()[-200:]}"
        o.wrong = status == EXIT_MISMATCH
    else:
        reason = req.check(o)
        if reason is not None:
            o.failure, o.wrong = f"wrong output: {reason}", True
    return o


def run_pass(kostka: dict[str, Any], plan: Plan,
             after: Callable[[], None] | None = None) -> list[Outcome]:
    # the harness's own objects stay out of the collector's way
    gc.collect()
    gc.freeze()
    outcomes = []
    for req in plan.requests:
        outcomes.append(run_request(kostka, req))
        if after is not None:
            after()
    return outcomes


# ------------------------------------------------------------ workloads


def _poly_check(parse_out: Callable[[str], dict[int, int]], shape: Partition,
                content: Partition, count: int,
                exact: dict[int, int] | None = None) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        try:
            coeffs = parse_out(o.stdout)
        except ValueError as exc:
            return str(exc)
        if exact is not None and coeffs != exact:
            return "differs from the expected polynomial"
        return invariant_failure(coeffs, shape, content, count)
    return check


def _bench_check(o: Outcome) -> str | None:
    lines = o.stdout.splitlines()
    if any(line.startswith("mismatch") for line in lines):
        return "bench reported a mismatch"
    if not any(line.startswith("dispatch: recursion path") for line in lines):
        return "bench did not report the recursion dispatch path"
    return None


def build_pairs(seed: int, workdir: Path, kostka: dict[str, Any]) -> Plan:
    kostka_number = kostka["oracles"].kostka_number
    kostka_column = kostka["core"].kostka_column
    requests = []
    mix = pairs_mix(seed)
    for shape, content in mix:
        requests.append(Request(
            ["compute", "--shape", text(shape), "--content", text(content), "--format", "json"],
            _poly_check(parse_json_poly, shape, content, kostka_number(shape, content))))
    headline = ((6, 4, 3, 2), (3,) + (1,) * 12)
    requests.append(Request(
        ["compute", "--shape", "6,4,3,2", "--content", "3,1^12"],
        _poly_check(parse_plain, *headline, kostka_number(*headline), HEADLINE)))
    stair = ((6, 5, 4, 3, 2, 1), (1,) * 21)
    requests.append(Request(
        ["compute", "--shape", "6,5,4,3,2,1", "--content", "1^21"],
        _poly_check(parse_plain, *stair, kostka_number(*stair),
                    dict(kostka_column(stair[0]).items()))))
    # cache=None path of `bench` (exponential today; cached it takes ~3 ms)
    requests.append(Request(
        ["bench", "--shape", "4,3,2,1", "--content", "1^10", "--fast-paths", "hook",
         "--oracle-ceiling", "0"], _bench_check))
    # recursion depth equals the content length: RecursionError today
    deep = ((DEEP,), (1,) * DEEP)
    requests.append(Request(
        ["compute", "--shape", str(DEEP), "--content", f"1^{DEEP}"],
        _poly_check(parse_plain, *deep, 1, {n_stat(deep[1]): 1})))
    clear_memos(kostka)
    return Plan(requests, inputs={
        "generated": [[text(s), text(c)] for s, c in mix],
        "requests": [r.argv for r in requests]})


def _table_check(o: Outcome) -> str | None:
    digest = hashlib.sha256(o.stdout.encode()).hexdigest()
    return None if digest == TABLE_SHA256 else f"stdout sha256 {digest}"


def table_row_failures(kostka: dict[str, Any], stdout: str) -> list[str]:
    """Every row of a CSV table passes the invariants; costly, so run once."""
    kostka_number = kostka["oracles"].kostka_number
    rows = list(csv.reader(io.StringIO(stdout)))
    failures = []
    if rows[:1] != [["shape", "content", "polynomial"]] or len(rows) != TABLE_ROWS + 1:
        failures.append(f"table has {len(rows) - 1} rows, expected {TABLE_ROWS}")
    for shape_text, content_text, poly in rows[1:]:
        shape, content = parse(shape_text), parse(content_text)
        reason = invariant_failure(parse_plain(poly), shape, content,
                                   kostka_number(shape, content))
        if reason is not None:
            failures.append(f"{shape_text} / {content_text}: {reason}")
    clear_memos(kostka)
    return failures


def _verify_check(o: Outcome) -> str | None:
    lines = o.stdout.splitlines()
    last = lines[-1] if lines else ""
    return None if last == VERIFY_LAST_LINE else f"last line {last!r}"


def build_bulk(seed: int, workdir: Path, kostka: dict[str, Any]) -> Plan:
    """A cold table, the same table warm from a memo file, then the oracle sweep.

    The memo file is one an untimed cold run persisted; every pass copies
    it in before the warm request, so each warm run loads the same file.
    The three commands share one workload because on a shared 2-vCPU host
    the machine's speed drifts by tens of percent over minutes, and two
    workloads with long runs measure steadier than four with short ones.
    """
    cache_file = workdir / "memo.tsv"
    warm_argv = TABLE_ARGV + ["--cache", str(cache_file)]
    cold = run_request(kostka, Request(warm_argv, _table_check))
    pristine_file = workdir / "memo-pristine.tsv"
    shutil.copyfile(cache_file, pristine_file)
    pristine_sha = hashlib.sha256(pristine_file.read_bytes()).hexdigest()
    restore = (pristine_file, cache_file)

    def warm_check(o: Outcome) -> str | None:
        # the digest makes the warm stdout byte-identical to the cold table's
        saved = hashlib.sha256(cache_file.read_bytes()).hexdigest()
        return _table_check(o) or (
            None if saved == pristine_sha else "saved memo file differs from the one loaded")

    def deep_check(outcomes: list[Outcome]) -> list[str]:
        load = kostka["core"].KostkaCache.load
        saved = load(str(cache_file)).items()
        shutil.copyfile(*restore)
        reload = [] if saved == load(str(cache_file)).items() else [
            "saved memo file reloads to different entries"]
        return table_row_failures(kostka, outcomes[0].stdout) + reload

    plan = Plan([Request(TABLE_ARGV, _table_check, TABLE_ROWS),
                 Request(warm_argv, warm_check, TABLE_ROWS, restore),
                 Request(VERIFY_ARGV, _verify_check, VERIFY_PAIRS)],
                deep_check=deep_check,
                inputs={"requests": [TABLE_ARGV, warm_argv, VERIFY_ARGV],
                        "memo_bytes": pristine_file.stat().st_size,
                        "memo_sha256": pristine_sha})
    if cold.failure is not None:
        plan.setup_failures.append(f"cold table run: {cold.failure}")
    return plan


WORKLOADS = {
    "pairs": build_pairs,
    "bulk": build_bulk,
}
