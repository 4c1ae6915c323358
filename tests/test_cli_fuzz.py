"""Fuzz of the oracle-facing commands through the in-process `main`.

Every call must return an exit code from the contract (0 success, 1 usage
or parse error, 2 mismatch), print no traceback, and finish within a
per-call time budget.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from kostka.cli import FAST_PATHS, main
from kostka.partitions import PartitionParseError, format_partition, parse_partition

BUDGET_S = 10.0
FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < BUDGET_S, (argv, elapsed)
    return code, out.getvalue()


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
    n = draw(st.integers(1, 1200))
    shape, content = (draw(st.sampled_from([(n,), (1,) * n])) for _ in range(2))
    return shape, content


def check_oracle_commands(shape, content, fast_paths: str) -> None:
    s, c = format_partition(shape), format_partition(content)
    code, out = call(["bench", "--shape", s, "--content", c, "--fast-paths", fast_paths])
    assert code == 0 and "mismatch" not in out, (s, c, out)
    code, out = call(["compute", "--shape", s, "--content", c, "--dump-tableaux"])
    assert code == 0, (s, c)


@settings(FUZZ, max_examples=40)
@given(small_pairs(), st.sampled_from(sorted(FAST_PATHS)))
def test_oracle_commands_on_small_pairs(pair, fast_paths):
    check_oracle_commands(*pair, fast_paths)


@settings(FUZZ, max_examples=6)
@given(row_and_column_pairs())
@example(((1200,), (1,) * 1200))
@example(((1,) * 1200, (1,) * 1200))
def test_oracle_commands_on_rows_and_columns(pair):
    check_oracle_commands(*pair, "none")


good_tokens = st.builds(lambda v, e: str(v) if e is None else f"{v}^{e}",
                        st.integers(1, 9), st.none() | st.integers(0, 9))
bad_tokens = st.one_of(
    st.sampled_from(["", "0", "-1", "1.5", "^2", "2^", "2^^2", "2^-1", "1e3", "0^3", "3^1^2"]),
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
    code, out = call(argv + (["--dump-tableaux"] if command == "compute" else []))
    try:
        parse_partition(text)
    except PartitionParseError:
        assert code == 1 and out == "", argv
