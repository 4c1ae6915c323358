"""Fuzz of the commands through the in-process `main`.

Every call must return an exit code from the contract (0 success, 1 usage
or parse error, 2 mismatch), print no traceback, and finish within a
per-call time budget.
"""

import io
import os
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from unittest import mock

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from kostka.cli import FAST_PATHS, FORMATS, main
from kostka.partitions import (
    PartitionParseError,
    dominates,
    format_partition,
    parse_partition,
    partitions_of,
)

BUDGET_S = 10.0
FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < BUDGET_S, (argv, elapsed)
    return code, out.getvalue(), err.getvalue()


@st.composite
def partitions(draw, n: int):
    parts, left = [], n
    while left:
        x = draw(st.integers(1, left))
        parts.append(x)
        left -= x
    return tuple(sorted(parts, reverse=True))


@st.composite
def small_pairs(draw):
    n = draw(st.integers(0, 12))
    m = n if draw(st.booleans()) else draw(st.integers(0, 12))
    return draw(partitions(n)), draw(partitions(m))


@st.composite
def row_and_column_pairs(draw):
    n = draw(st.integers(1, 2000))
    shape, content = (draw(st.sampled_from([(n,), (1,) * n])) for _ in range(2))
    return shape, content


def check_oracle_commands(shape, content, fast_paths: str) -> None:
    s, c = format_partition(shape), format_partition(content)
    code, out, _ = call(["bench", "--shape", s, "--content", c, "--fast-paths", fast_paths])
    assert code == 0 and "mismatch" not in out, (s, c, out)
    code, _, _ = call(["compute", "--shape", s, "--content", c, "--dump-tableaux"])
    assert code == 0, (s, c)


@settings(FUZZ, max_examples=40)
@given(small_pairs(), st.sampled_from(sorted(FAST_PATHS)))
def test_oracle_commands_on_small_pairs(pair, fast_paths):
    check_oracle_commands(*pair, fast_paths)


@settings(FUZZ, max_examples=6)
@given(row_and_column_pairs())
@example(((2000,), (1,) * 2000))
@example(((1,) * 2000, (1,) * 2000))
def test_oracle_commands_on_rows_and_columns(pair):
    check_oracle_commands(*pair, "none")


@st.composite
def dominating_pairs(draw):
    """A pair with 13 <= n <= 24 whose shape dominates its content."""
    n = draw(st.integers(13, 24))
    a, b = draw(partitions(n)), draw(partitions(n))
    # dominance implies the lexicographic order, so the larger is the only candidate shape
    shape, content = max(a, b), min(a, b)
    assume(dominates(shape, content))
    return shape, content


@settings(FUZZ, max_examples=30)
@given(dominating_pairs())
def test_bench_runs_the_charge_oracle_up_to_n_24(pair):
    s, c = map(format_partition, pair)
    # the words of a content of weight 24, 24! of them at most, bound its tableaux
    argv = ["bench", "--shape", s, "--content", c, "--oracle-ceiling", str(factorial(24))]
    code, out, _ = call(argv)
    assert code == 0 and "charge oracle: " in out and "mismatch" not in out, (s, c, out)


good_tokens = st.builds(lambda v, e: str(v) if e is None else f"{v}^{e}",
                        st.integers(1, 9), st.none() | st.integers(0, 9))
bad_tokens = st.one_of(
    st.sampled_from(["", "0", "-1", "1.5", "^2", "2^", "2^^2", "2^-1", "1e3", "0^3", "3^1^2",
                     "\u0663", "\uff12", "2^\u0663", "1_0"]),
    st.text(alphabet="abxyz.;:+*/~# ", min_size=1, max_size=4),
)
malformed = st.builds(lambda head, bad, tail: ",".join([*head, bad, *tail]),
                      st.lists(good_tokens, max_size=3), bad_tokens,
                      st.lists(good_tokens, max_size=3))


@settings(FUZZ, max_examples=60)
@given(malformed, st.sampled_from(["bench", "compute"]), st.booleans())
def test_malformed_partitions_are_refused(text, command, in_shape):
    shape, content = (text, "2,1") if in_shape else ("2,1", text)
    argv = [command, "--shape", shape, "--content", content]
    code, out, err = call(argv + (["--dump-tableaux"] if command == "compute" else []))
    try:
        parse_partition(text)
    except PartitionParseError:
        assert code == 1 and out == "", argv
        assert ("--shape" if in_shape else "--content") in err, argv


@settings(FUZZ, max_examples=8)
@given(st.integers(1, 6), st.sampled_from(sorted(FAST_PATHS)))
def test_table_in_every_format(n, fast_paths):
    ps = list(partitions_of(n))
    rows = sum(dominates(s, c) for s in ps for c in ps)
    for fmt in FORMATS:
        code, out, _ = call(["table", "--n", str(n), "--format", fmt, "--fast-paths", fast_paths])
        assert code == 0 and len(out.splitlines()) == rows + (fmt == "csv"), (n, fmt)


@settings(FUZZ, max_examples=6)
@given(st.integers(0, 5))
def test_verify_at_small_n(max_n):
    code, out, _ = call(["verify", "--max-n", str(max_n)])
    pairs = sum(len(list(partitions_of(n))) ** 2 for n in range(1, max_n + 1))
    assert code == 0 and out.splitlines()[-1] == f"0 mismatches / {pairs} pairs"


NUMBER_FLAGS = [(["table"], "--n", 1), (["verify"], "--max-n", 0),
                (["bench", "--shape", "2,1", "--content", "1,1,1"], "--oracle-ceiling", 0)]
bad_numbers = st.one_of(
    st.sampled_from(["", " ", "-", "--", "+", "+1", "1.0", "1e1", "0x1", " 1", "1_0",
                     "\u0663", "\uff13", "-\u0663"]),
    st.text(alphabet="019-+._e \u0663\uff13", min_size=1, max_size=4),
)


@settings(FUZZ, max_examples=60)
@given(st.sampled_from(NUMBER_FLAGS), bad_numbers)
def test_malformed_numbers_are_refused(command, text):
    head, flag, low = command
    assume(not (re.fullmatch(r"-?[0-9]+", text) and int(text) >= low))
    # the "=" form hands a text that starts with "-" to the flag, not to the option parser
    code, out, err = call([*head, f"{flag}={text}"])
    assert code == 1 and out == "", (flag, text)
    assert flag in err and repr(text) in err, (flag, text, err)


CACHE_COMMANDS = [["compute", "--shape", "2,1", "--content", "1,1,1"], ["table", "--n", "3"],
                  ["verify", "--max-n", "2"], ["bench", "--shape", "2,1", "--content", "1,1,1"]]
not_memo_files = st.one_of(
    st.sampled_from(["directory", "missing directory"]),
    st.binary(max_size=64),
    st.text(alphabet="12,^-\t\n\r[]\"{} :x\x00\u00e9", max_size=64),
)


@settings(FUZZ, max_examples=60)
@given(not_memo_files, st.booleans(), st.sampled_from(CACHE_COMMANDS))
@example("directory", True, CACHE_COMMANDS[0])
@example("missing directory", False, CACHE_COMMANDS[1])
@example(b"\xff\xfe\x00", False, CACHE_COMMANDS[0])
@example("2,1\t1,1,1\t" + "[" * 100_000, True, CACHE_COMMANDS[2])
def test_cache_values_that_are_not_memo_files(kind, via_env, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "memo.tsv")
        if kind == "directory":
            path = tmp
        elif kind == "missing directory":
            path = os.path.join(tmp, "missing", "memo.tsv")
        else:
            with open(path, "wb") as fh:
                fh.write(kind if isinstance(kind, bytes) else kind.encode())
        env = {"KOSTKA_CACHE": path} if via_env else {}
        argv = command if via_env else [*command, "--cache", path]
        with mock.patch.dict(os.environ, env):
            if not via_env:
                os.environ.pop("KOSTKA_CACHE", None)
            code, out, err = call(argv)
    source = "KOSTKA_CACHE" if via_env else "--cache"
    if kind in ("directory", "missing directory"):
        assert code == 1 and out == "" and source in err and repr(path) in err, (kind, err)
    elif code == 2:
        # a memo that parses may still hold a value that a check flags on stdout
        assert "kostka: cache error: " in err or "mismatch" in out, (kind, err)
