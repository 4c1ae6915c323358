import contextlib
import csv
import errno
import io
import json
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest

import kostka.cli
import kostka.core as engine
from kostka.cli import main
from kostka.core import KostkaCache
from kostka.partitions import (
    branch_shape,
    dominates,
    format_partition,
    horizontal_strip_additions,
    partitions_of,
)
from kostka.polynomials import ZERO, TPoly, t_binomial, t_factorial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compute ---

def test_compute_plain(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "3,2,1", "--content", "2^2,1^2")
    assert code == 0
    assert out == "t + 2t^2 + t^3\n"


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "4,1,1", "--content", "2,1^4",
                       "--format", "latex")
    assert code == 0
    assert out == "t^{3}+t^{4}+2t^{5}+t^{6}+t^{7}\n"


def test_compute_zero_when_not_dominating(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "2,1", "--content", "3")
    assert code == 0
    assert out == "0\n"


def test_compute_json_round_trips(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "3,2,1", "--content", "2^2,1^2",
                       "--format", "json")
    assert code == 0
    assert TPoly.from_json_obj(json.loads(out)) == TPoly({1: 1, 2: 2, 3: 1})


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "3,2,1", "--content", "2^2,1^2",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "shape,content,polynomial",
        '"3,2,1","2,2,1,1",t + 2t^2 + t^3',
    ]


@pytest.mark.parametrize("shape, content, row", [
    ("-", "-", "-,-,1"),
    ("2,1", "3", '"2,1",3,0'),
])
def test_compute_csv_edge_rows(capsys, shape, content, row):
    code, out, _ = run(capsys, "compute", "--shape", shape, "--content", content,
                       "--format", "csv")
    assert code == 0
    assert out == f"shape,content,polynomial\n{row}\n"


def test_compute_bad_partition_exits_1(capsys):
    code, _, err = run(capsys, "compute", "--shape", "3,zebra,1", "--content", "2,2")
    assert code == 1
    assert "zebra" in err
    for argv, flag, token in [
        (["--shape", "\u0663", "--content", "3"], "--shape", "\u0663"),
        (["--shape", "2,1", "--content", "\uff12,\uff11"], "--content", "\uff12"),
    ]:
        code, out, err = run(capsys, "compute", *argv)
        assert code == 1 and out == ""
        assert flag in err and repr(token) in err


def test_compute_fast_paths_match(capsys):
    for flag in ("none", "all", "one-row", "hook", "column"):
        code, out, _ = run(capsys, "compute", "--shape", "4,1,1", "--content", "2,1^4",
                           "--fast-paths", flag)
        assert code == 0
        assert out == "t^3 + t^4 + 2t^5 + t^6 + t^7\n"


def test_compute_deep_one_row_prints_a_single_power(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "1100", "--content", "1^1100",
                       "--fast-paths", "one-row")
    assert code == 0
    assert out == "t^604450\n"


def test_compute_deep_pair_without_fast_paths_runs_the_iteration(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "1100", "--content", "1^1100")
    assert code == 0
    assert out == "t^604450\n"


@pytest.mark.parametrize("content, flag", [("1^1200", "column"), ("2,1^1198", "hook")])
def test_closed_forms_at_n_1200_are_fast_and_agree_with_the_iteration(capsys, content, flag):
    # neither closed form builds [n]!, so a cold t-factorial cache costs nothing
    t_factorial.cache_clear()
    t_binomial.cache_clear()
    argv = ["compute", "--shape", "1199,1", "--content", content]
    start = time.perf_counter()
    code, fast, err = run(capsys, *argv, "--fast-paths", flag)
    elapsed = time.perf_counter() - start
    assert code == 0 and not err
    assert elapsed < 1.0
    code, iterated, _ = run(capsys, *argv)
    assert code == 0
    assert fast == iterated


def test_compute_dump_tableaux(capsys):
    code, out, _ = run(capsys, "compute", "--shape", "2,1", "--content", "1,1,1",
                       "--dump-tableaux")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t + t^2"
    dumped = [json.loads(line) for line in lines[1:]]
    assert dumped == [
        {"shape": [2, 1], "rows": [[1, 2], [3]]},
        {"shape": [2, 1], "rows": [[1, 3], [2]]},
    ]


@pytest.mark.parametrize("shape, rows", [
    ("1100", [list(range(1, 1101))]),
    ("1^1100", [[v] for v in range(1, 1101)]),
])
def test_compute_dumps_the_single_tableau_of_a_deep_pair(capsys, shape, rows):
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "--shape", shape, "--content", "1^1100",
                         "--dump-tableaux")
    assert time.perf_counter() - start < 10
    assert code == 0 and not err
    lines = out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1]) == {"shape": [len(r) for r in rows], "rows": rows}


def test_compute_cache_persists(capsys, tmp_path):
    path = tmp_path / "memo.tsv"
    code, first, _ = run(capsys, "compute", "--shape", "4,2,1", "--content", "2,2,1,1,1",
                         "--cache", str(path))
    assert code == 0
    assert path.exists()
    loaded = KostkaCache.load(str(path))
    assert loaded.get((4, 2, 1), (2, 2, 1, 1, 1)) is not None
    code, second, _ = run(capsys, "compute", "--shape", "4,2,1", "--content", "2,2,1,1,1",
                          "--cache", str(path))
    assert code == 0
    assert second == first


def test_warm_table_leaves_the_memo_file_alone(capsys, tmp_path):
    path = tmp_path / "memo.tsv"
    code, cold, _ = run(capsys, "table", "--n", "6", "--cache", str(path))
    assert code == 0
    before = path.read_bytes()
    os.utime(path, ns=(1_000_000_000, 1_000_000_000))
    stamp = path.stat()
    code, warm, _ = run(capsys, "table", "--n", "6", "--cache", str(path))
    assert code == 0 and warm == cold
    after = path.stat()
    assert path.read_bytes() == before
    assert (after.st_ino, after.st_mtime_ns) == (stamp.st_ino, stamp.st_mtime_ns)
    # a memo that gained entries is written back
    code, _, _ = run(capsys, "table", "--n", "7", "--cache", str(path))
    assert code == 0
    assert len(KostkaCache.load(str(path))) > len(before.splitlines())


def test_json_memo_serves_the_same_table_and_is_rewritten_only_when_it_grows(capsys, tmp_path):
    # a memo saved before values were dense holds polynomial JSON fields
    code, cold, _ = run(capsys, "table", "--n", "8")
    assert code == 0
    dense = tmp_path / "dense.tsv"
    run(capsys, "table", "--n", "8", "--cache", str(dense))
    path = tmp_path / "memo.tsv"
    path.write_text("".join(
        f"{format_partition(s)}\t{format_partition(c)}\t{json.dumps(v.to_json_obj())}\n"
        for (s, c), v in KostkaCache.load(str(dense)).items()))
    before = path.read_bytes()
    code, warm, _ = run(capsys, "table", "--n", "8", "--cache", str(path))
    assert code == 0 and warm == cold
    assert path.read_bytes() == before
    # once it gains entries the whole memo is written dense
    code, _, _ = run(capsys, "table", "--n", "9", "--cache", str(path))
    assert code == 0
    fields = [line.split("\t")[2] for line in path.read_text().splitlines()]
    assert len(fields) > len(before.splitlines())
    assert not [f for f in fields if f.startswith("[")]


def test_memo_name_of_240_bytes_is_saved(capsys, tmp_path):
    path = tmp_path / ("m" * 240)
    code, out, err = run(capsys, "compute", "--shape", "2,1", "--content", "1,1,1",
                         "--cache", str(path))
    assert (code, out, err) == (0, "t + t^2\n", "")
    assert KostkaCache.load(str(path)).get((2, 1), (1, 1, 1)) == TPoly({1: 1, 2: 1})
    assert os.listdir(tmp_path) == [path.name]


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "relative"])
def test_memo_link_keeps_pointing_at_the_file_it_names(capsys, tmp_path, monkeypatch, absolute):
    store = tmp_path / "store"
    store.mkdir()
    real = store / "real.tsv"
    run(capsys, "compute", "--shape", "2,1", "--content", "1,1,1", "--cache", str(real))
    link = tmp_path / "link.tsv"
    link.symlink_to(real if absolute else os.path.join("store", "real.tsv"))
    # a relative link names a file from its own directory, not the working one
    monkeypatch.chdir(store)
    code, out, err = run(capsys, "compute", "--shape", "3,2", "--content", "2,1,1,1",
                         "--cache", str(link))
    assert (code, out, err) == (0, "t^2 + t^3 + t^4\n", "")
    assert link.is_symlink() and link.resolve() == real
    memo = KostkaCache.load(str(real))
    assert memo.get((2, 1), (1, 1, 1)) == TPoly({1: 1, 2: 1})
    assert memo.get((3, 2), (2, 1, 1, 1)) == TPoly({2: 1, 3: 1, 4: 1})
    # the temporary file was made beside the target, and renamed over it
    assert os.listdir(store) == ["real.tsv"]


def test_dangling_memo_link_is_saved_through_or_left_as_it_was(capsys, tmp_path, monkeypatch):
    (tmp_path / "store").mkdir()
    link = tmp_path / "new.tsv"
    link.symlink_to(os.path.join("store", "new.tsv"))
    code, out, err = run(capsys, "compute", "--shape", "2,1", "--content", "1,1,1",
                         "--cache", str(link))
    assert (code, out, err) == (0, "t + t^2\n", "")
    assert link.is_symlink()
    assert KostkaCache.load(str(tmp_path / "store" / "new.tsv")).get((2, 1), (1, 1, 1))
    # a link into a missing directory is refused before any work, as the save could not create it
    _refuse_to_compute(monkeypatch)
    dangling = tmp_path / "dang.tsv"
    dangling.symlink_to(os.path.join("nowhere", "x.tsv"))
    code, out, err = run(capsys, "compute", "--shape", "2,1", "--content", "1,1,1",
                         "--cache", str(dangling))
    assert (code, out) == (1, "")
    nowhere = os.path.realpath(tmp_path / "nowhere")
    assert err == (f"kostka: error: --cache {str(dangling)!r}: "
                   f"directory {nowhere!r} does not exist\n")
    assert os.readlink(dangling) == os.path.join("nowhere", "x.tsv")
    assert sorted(os.listdir(tmp_path)) == ["dang.tsv", "new.tsv", "store"]


def test_env_var_overrides_cache_flag(capsys, tmp_path, monkeypatch):
    env_path = tmp_path / "env.tsv"
    flag_path = tmp_path / "flag.tsv"
    monkeypatch.setenv("KOSTKA_CACHE", str(env_path))
    code, _, _ = run(capsys, "compute", "--shape", "3,1", "--content", "2,1,1",
                     "--cache", str(flag_path))
    assert code == 0
    assert env_path.exists()
    assert not flag_path.exists()


def _refuse_to_compute(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the cache path was checked")

    monkeypatch.setattr(kostka.cli, "kostka", refuse)


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("command", [["compute", "--shape", "2,1", "--content", "1,1,1"],
                                     ["verify", "--max-n", "3"]])
@pytest.mark.parametrize("links, path", [({"loop.tsv": "loop.tsv"}, "loop.tsv"),
                                         ({"loop.tsv": "other.tsv", "other.tsv": "loop.tsv"},
                                          "loop.tsv"),
                                         ({"loopdir": "loopdir"}, "loopdir/memo.tsv")],
                         ids=["self", "two-links", "in-a-directory"])
def test_memo_link_loop_is_refused_first(capsys, tmp_path, monkeypatch, via_env, command,
                                         links, path):
    monkeypatch.chdir(tmp_path)
    for name, points_to in links.items():
        os.symlink(points_to, name)
    _refuse_to_compute(monkeypatch)
    argv = list(command)
    if via_env:
        monkeypatch.setenv("KOSTKA_CACHE", path)
    else:
        argv += ["--cache", path]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    source = "KOSTKA_CACHE" if via_env else "--cache"
    assert err == f"kostka: error: {source} {path!r}: {os.strerror(errno.ELOOP)}\n"
    assert {name: os.readlink(name) for name in links} == links
    assert sorted(os.listdir(tmp_path)) == sorted(links)


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("command", [["compute", "--shape", "1", "--content", "1"],
                                     ["table", "--n", "3"],
                                     ["verify", "--max-n", "3"],
                                     ["bench", "--shape", "1", "--content", "1"]])
def test_cache_path_that_cannot_hold_a_memo_is_refused_first(capsys, tmp_path, monkeypatch,
                                                              via_env, command):
    _refuse_to_compute(monkeypatch)
    missing = tmp_path / "missing" / "memo.tsv"
    plain = tmp_path / "plain.tsv"
    plain.write_text("")
    for path, problem in ((tmp_path, "is a directory"), (missing, "does not exist"),
                          (plain / "memo.tsv", os.strerror(errno.ENOTDIR))):
        argv = list(command)
        if via_env:
            monkeypatch.setenv("KOSTKA_CACHE", str(path))
        else:
            argv += ["--cache", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert ("KOSTKA_CACHE" if via_env else "--cache") in err
        assert repr(str(path)) in err and problem in err
        assert "Traceback" not in err
    assert not missing.parent.exists()
    assert plain.read_text() == ""


def test_cache_path_that_is_not_a_regular_file_is_refused_first(tmp_path):
    # reading a FIFO blocks until a writer opens it, so the CLI runs in a
    # process of its own and a hang fails on the timeout
    fifo = tmp_path / "memo.tsv"
    os.mkfifo(fifo)
    src = os.path.dirname(os.path.dirname(kostka.cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "KOSTKA_CACHE"}
    result = subprocess.run([sys.executable, "-m", "kostka.cli", "compute", "--shape", "2,1",
                             "--content", "1,1,1", "--cache", str(fifo)],
                            cwd=src, env=env, capture_output=True, text=True, timeout=30)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"kostka: error: --cache {str(fifo)!r}: is not a regular file\n"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    # a save would replace a character device with a regular file; checked
    # directly, as the CLI is never pointed at one
    with pytest.raises(kostka.cli.CachePathError, match="is not a regular file"):
        kostka.cli._load_cache(os.devnull)


def test_cache_file_that_is_not_utf8_names_the_file_and_line(capsys, tmp_path):
    path = tmp_path / "memo.tsv"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "compute", "--shape", "1", "--content", "1",
                         "--cache", str(path))
    assert code == 2 and out == ""
    assert f"{path}: line 1: not UTF-8" in err
    # past the text decoder's first chunk the line number is still exact
    code, _, _ = run(capsys, "table", "--n", "11", "--cache", str(path.with_name("good.tsv")))
    good = path.with_name("good.tsv").read_bytes()
    assert code == 0 and len(good) > 4 * 8192
    path.write_bytes(good + b"2\t1,1\t[[1,\"\xe9\"]]\n" + good)
    bad_line = good.count(b"\n") + 1
    code, out, err = run(capsys, "compute", "--shape", "1", "--content", "1",
                         "--cache", str(path))
    assert code == 2 and out == ""
    assert f"{path}: line {bad_line}: not UTF-8" in err


def test_cache_format_error_names_the_file_that_was_read(capsys, tmp_path, monkeypatch):
    flag_path, env_path = tmp_path / "flag.tsv", tmp_path / "env.tsv"
    flag_path.write_text("")
    env_path.write_text('2,2,1,1\t3,2,1\t[[1,"1"]]\n')
    monkeypatch.setenv("KOSTKA_CACHE", str(env_path))
    code, out, err = run(capsys, "compute", "--shape", "1", "--content", "1",
                         "--cache", str(flag_path))
    assert code == 2 and out == ""
    assert f"{env_path}: line 1: key 2,2,1,1 / 3,2,1: nonzero value" in err
    assert str(flag_path) not in err and "Traceback" not in err


@pytest.mark.parametrize("via_env", [False, True])
def test_memo_file_that_cannot_be_written_is_one_error_line(capsys, tmp_path, monkeypatch,
                                                           via_env):
    # a name the path check passes but the file system refuses, met at the save
    path = tmp_path / ("m" * 300 + ".tsv")
    argv = ["compute", "--shape", "2,1", "--content", "1,1,1"]
    if via_env:
        monkeypatch.setenv("KOSTKA_CACHE", str(path))
    else:
        argv += ["--cache", str(path)]
    code, out, err = run(capsys, *argv)
    source = "KOSTKA_CACHE" if via_env else "--cache"
    assert code == 1 and out == ""
    assert err == f"kostka: error: {source} {str(path)!r}: {os.strerror(errno.ENAMETOOLONG)}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value, message", [
    # the exponents span 2, which the load allows, but the degree is wrong
    pytest.param('[[1000000,"1"],[1000002,"1"]]',
                 "key 2,1 / 1,1,1: served value has degree 1000002, not n(content) - n(shape) = 2",
                 id='[[1000000,"1"],[1000002,"1"]]-has degree 1000002'),
    pytest.param('[[1,"1"],[2,"2"]]', "key 2,1 / 1,1,1: served value has top coefficient 2, not 1",
                 id='[[1,"1"],[2,"2"]]-has top coefficient 2'),
    # a zero value for a dominating pair is refused by the load
    pytest.param("[]", "{path}: line 1: key 2,1 / 1,1,1: zero value for dominating pair",
                 id="[]-is zero for a dominating pair"),
])
@pytest.mark.parametrize("command", [["compute", "--shape", "2,1", "--content", "1,1,1"],
                                     ["table", "--n", "3"],
                                     ["bench", "--shape", "2,1", "--content", "1,1,1"]])
def test_served_value_that_breaks_the_invariants_exits_2(capsys, tmp_path, value, message,
                                                         command):
    path = tmp_path / "memo.tsv"
    path.write_text(f"2,1\t1,1,1\t{value}\n")
    before = path.read_bytes()
    code, out, err = run(capsys, *command, "--cache", str(path))
    assert code == 2 and out == ""
    assert err == f"kostka: cache error: {message.format(path=path)}\n"
    assert path.read_bytes() == before


def test_a_refused_value_stops_the_table_where_it_is_met(capsys, monkeypatch, tmp_path):
    # the wrong subproblem value first shows in 4,1,1 / 3,1,1,1, the 34th of
    # the table's 66 pairs, and no later pair is evaluated
    path = tmp_path / "memo.tsv"
    path.write_text("2,1\t1,1,1\t1:1,2\n")
    before = path.read_bytes()
    calls = Counter()

    def counted(*args):
        calls["kostka"] += 1
        return engine.kostka(*args)

    monkeypatch.setattr(kostka.cli, "kostka", counted)
    code, out, err = run(capsys, "table", "--n", "6", "--cache", str(path))
    assert code == 2 and out == ""
    assert err == ("kostka: cache error: key 4,1,1 / 3,1,1,1: "
                   "served value has top coefficient 2, not 1\n")
    assert path.read_bytes() == before
    assert calls["kostka"] == 34  # the pairs up to the refused one, not all 66


@pytest.mark.parametrize("command", [["compute", "--shape", "2,1", "--content", "1,1,1"],
                                     ["table", "--n", "3"],
                                     ["bench", "--shape", "2,1", "--content", "1,1,1"]])
def test_a_zero_value_from_the_engine_is_not_served(capsys, monkeypatch, command):
    monkeypatch.setattr(kostka.cli, "kostka", lambda *args: ZERO)
    code, out, err = run(capsys, *command)
    assert code == 2 and out == ""
    assert err.endswith("served value is zero for a dominating pair\n")


@pytest.mark.parametrize("value, problem", [
    # each would be served as a child of the parent pair 3,2 / 2,1,1,1
    ("", "zero value for dominating pair"),
    ("1:-1,1", "negative coefficient"),
    ('[[1,"-1"],[2,"1"]]', "negative coefficient"),
])
@pytest.mark.parametrize("command", [["compute", "--shape", "2,1", "--content", "1,1,1"],
                                     ["compute", "--shape", "3,2", "--content", "2,1,1,1"],
                                     ["table", "--n", "3"]])
def test_memo_value_that_would_corrupt_its_parents_is_refused(capsys, tmp_path, value,
                                                               problem, command):
    path = tmp_path / "memo.tsv"
    path.write_text(f"2,1\t1,1,1\t{value}\n")
    before = path.read_bytes()
    code, out, err = run(capsys, *command, "--cache", str(path))
    assert (code, out) == (2, "")
    assert err == f"kostka: cache error: {path}: line 1: key 2,1 / 1,1,1: {problem}\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("line, problem", [
    # 26 bytes asking for two million coefficients
    ('1\t1\t[[0,"1"],[2000000,"1"]]', "exponents span 2000000"),
    ('2,2,1,1\t3,2,1\t[[0,"1"],[2000000,"1"]]', "nonzero value for non-dominating pair"),
    # the ends span 1, but the middle entry is out of order
    ('2,1\t1,1,1\t[[0,"1"],[2000000,"1"],[1,"1"]]', "not strictly ascending"),
])
def test_cache_value_is_refused_before_it_is_expanded(capsys, tmp_path, line, problem):
    path = tmp_path / "memo.tsv"
    path.write_text(line + "\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "compute", "--shape", "1", "--content", "1",
                             "--cache", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    key = " / ".join(line.split("\t")[:2])
    assert f"{path}: line 1: key {key}: " in err and problem in err
    assert peak < 2**20


def test_deeply_nested_cache_value_is_a_format_error(capsys, tmp_path):
    path = tmp_path / "memo.tsv"
    path.write_text("2,1\t1,1,1\t" + "[" * 100_000 + "\n")
    code, out, err = run(capsys, "compute", "--shape", "1", "--content", "1",
                         "--cache", str(path))
    assert code == 2 and out == ""
    assert "line 1: key 2,1 / 1,1,1" in err and "Traceback" not in err


# --- usage errors ---

def test_missing_required_flag_exits_1(capsys):
    assert run(capsys, "compute", "--shape", "2,1")[0] == 1
    assert run(capsys, "table")[0] == 1
    assert run(capsys, "verify")[0] == 1


def test_bad_numbers_exit_1(capsys):
    bench = ["bench", "--shape", "2,1", "--content", "1,1,1"]
    for argv, flag, token in [
        (["table", "--n", "0"], "--n", "0"),
        (["table", "--n", "x"], "--n", "x"),
        (["table", "--n", "3", "--threads", "0"], "--threads", "0"),
        (["verify", "--max-n", "-1"], "--max-n", "-1"),
        (bench + ["--oracle-ceiling", "-1"], "--oracle-ceiling", "-1"),
        (["table", "--n", "\u0663"], "--n", "\u0663"),
        (["verify", "--max-n", "\uff13"], "--max-n", "\uff13"),
        (["table", "--n", "1_0"], "--n", "1_0"),
        (bench + ["--oracle-ceiling", "+5"], "--oracle-ceiling", "+5"),
        (["verify", "--max-n=--"], "--max-n", "--"),
        (["compute", "--shape=--", "--content", "1"], "--shape", "--"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert flag in err and repr(token) in err


# --- table ---

def test_table_n1(capsys):
    code, out, _ = run(capsys, "table", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["shape,content,polynomial", "1,1,1"]


def test_table_n3_contains_column_row(capsys):
    code, out, _ = run(capsys, "table", "--n", "3")
    assert code == 0
    assert '"2,1","1,1,1",t + t^2' in out.splitlines()


def test_table_row_count_is_dominating_pair_count(capsys):
    def prefix_dominates(a, b):
        if sum(a) != sum(b):
            return False
        ta = tb = 0
        for i in range(max(len(a), len(b))):
            ta += a[i] if i < len(a) else 0
            tb += b[i] if i < len(b) else 0
            if ta < tb:
                return False
        return True

    ps = list(partitions_of(6))
    expected = sum(1 for a in ps for b in ps if prefix_dominates(a, b))
    code, out, _ = run(capsys, "table", "--n", "6")
    assert code == 0
    assert len(out.splitlines()) == expected + 1  # header


def test_table_leaves_every_dominance_test_to_the_engine(capsys, monkeypatch):
    calls = Counter()

    def counted(shape, content):
        calls[sys._getframe(1).f_code.co_name] += 1
        return dominates(shape, content)

    monkeypatch.setattr(engine, "dominates", counted)
    monkeypatch.setattr(kostka.cli, "dominates", counted)
    code, out, _ = run(capsys, "table", "--n", "10")
    assert code == 0
    # the table evaluates each shape with itself and every later shape
    shapes = len(list(partitions_of(10)))
    pairs = shapes * (shapes + 1) // 2
    rows = len(out.splitlines()) - 1  # header
    assert set(calls) == {"kostka", "_iterate", "_compute_pairs"}
    assert calls["kostka"] == pairs == 903  # once per pair, on the reduced pair
    assert calls["_compute_pairs"] == pairs - rows == 85  # once per zero value


def test_warm_table_with_a_memo_zero_for_a_vanishing_pair(capsys, tmp_path):
    # 3,1,1,1 precedes 2,2,2 lexicographically but does not dominate it, so the
    # table asks the engine for the pair, and the load accepts a zero for it
    assert not dominates((3, 1, 1, 1), (2, 2, 2))
    code, cold, _ = run(capsys, "table", "--n", "6")
    assert code == 0
    path = tmp_path / "memo.tsv"
    path.write_text("3,1,1,1\t2,2,2\t\n")
    code, warm, err = run(capsys, "table", "--n", "6", "--cache", str(path))
    assert (code, warm, err) == (0, cold, "")
    lines = path.read_text().splitlines()
    assert len(lines) > 1 and "3,1,1,1\t2,2,2\t" in lines


def test_table_csv_matches_one_writerow_per_row(capsys):
    ps = list(partitions_of(7))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["shape", "content", "polynomial"])
    for s in ps:
        for c in ps:
            if dominates(s, c):
                value = engine.kostka(s, c).plain_str()
                writer.writerow([format_partition(s), format_partition(c), value])
    code, out, _ = run(capsys, "table", "--n", "7", "--format", "csv")
    assert code == 0 and out == buf.getvalue()
    lines = out.splitlines()
    # one-part partitions are left unquoted, multi-part ones quoted
    assert lines[1:3] == ["7,7,1", '7,"6,1",t']
    assert '"6,1","6,1",1' in lines


def _reference_table(n, fmt):
    """The table built row by row, each row in its own format's terms."""
    ps = list(partitions_of(n))
    pairs = [(s, c) for s in ps for c in ps if dominates(s, c)]
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "content", "polynomial"])
    for s, c in pairs:
        value = engine.kostka(s, c)
        if fmt == "csv":
            writer.writerow([format_partition(s), format_partition(c), value.plain_str()])
        elif fmt == "plain":
            buf.write("\t".join([format_partition(s), format_partition(c), value.plain_str()]))
        elif fmt == "latex":
            buf.write(" & ".join([format_partition(s), format_partition(c), value.latex_str()]))
            buf.write(" \\\\")
        else:
            buf.write(json.dumps({"shape": list(s), "content": list(c),
                                  "polynomial": value.to_json_obj()}))
        if fmt != "csv":
            buf.write("\n")
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "plain", "json", "latex"])
def test_table_matches_a_per_row_reference_in_every_format(capsys, fmt):
    for n in range(1, 10):
        code, out, _ = run(capsys, "table", "--n", str(n), "--format", fmt)
        assert code == 0 and out == _reference_table(n, fmt), (n, fmt)


@pytest.mark.parametrize("warm", [False, True])
def test_table_holds_only_what_it_still_has_to_print(capsys, tmp_path, warm):
    # the memo is freed once it is saved, and each value once its row is
    # written: traced peak about 2.2 MiB, against 3.9 MiB with the memo, one
    # pair tuple per row and every value alive until the last row
    argv = ["table", "--n", "14"]
    if warm:
        argv += ["--cache", str(tmp_path / "memo.tsv")]
        assert run(capsys, *argv)[0] == 0
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and len(out.getvalue()) == 950_654
    assert peak < 3.2 * 2**20, peak


@pytest.mark.parametrize("argv", [["table", "--n", "12"], ["verify", "--max-n", "8"]])
def test_each_strip_fan_out_is_enumerated_once(capsys, monkeypatch, argv):
    requested, strips = [], Counter()
    recursion_children = engine.recursion_children

    def counted_children(shape, head):
        requested.append((shape, head))
        return recursion_children(shape, head)

    def counted_strips(p, m):
        strips[p, m] += 1
        return horizontal_strip_additions(p, m)

    monkeypatch.setattr(engine, "recursion_children", counted_children)
    monkeypatch.setattr(engine, "horizontal_strip_additions", counted_strips)
    recursion_children.cache_clear()
    code, _, _ = run(capsys, *argv)
    assert code == 0
    keys = set(requested)
    assert len(requested) > 2 * len(keys)  # the engine asks for most keys again
    once_per_key = Counter(
        (branch_shape(shape, i), shape[i - 1] - head - i + 1)
        for shape, head in keys
        for i in range(1, len(shape) + 1)
        if shape[i - 1] - head - i + 1 >= 0
    )
    assert strips == once_per_key


def test_table_threads_do_not_change_output(capsys):
    _, single, _ = run(capsys, "table", "--n", "5", "--threads", "1")
    _, multi, _ = run(capsys, "table", "--n", "5", "--threads", "4")
    assert single == multi


def test_threads_flag_starts_no_thread(capsys, monkeypatch):
    expected = [run(capsys, "table", "--n", "6", "--threads", "1"),
                run(capsys, "verify", "--max-n", "3", "--threads", "1")]

    def refuse(self):
        raise AssertionError("evaluation started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    got = [run(capsys, "table", "--n", "6", "--threads", "8"),
           run(capsys, "verify", "--max-n", "3", "--threads", "3")]
    assert [code for code, _, _ in got] == [0, 0]
    assert [out for _, out, _ in got] == [out for _, out, _ in expected]


def test_import_leaves_out_the_pool_and_dataclasses():
    probe = ("import sys, kostka.cli; "
             "print(sorted({'concurrent.futures', 'dataclasses'} & set(sys.modules)))")
    # `-c` puts the working directory first on sys.path: this checkout's package
    src = os.path.dirname(os.path.dirname(kostka.cli.__file__))
    result = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_a_reader_that_closes_early_gets_no_traceback(tmp_path):
    # each output runs far past a pipe buffer (950,654 bytes of CSV for the
    # table), so writes fail once the reader is gone; the memo is saved first
    src = os.path.dirname(os.path.dirname(kostka.cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "KOSTKA_CACHE"}
    memo = KostkaCache()
    headline = engine.kostka((6, 4, 3, 2), (3,) + (1,) * 12, memo)
    for i, (argv, first, entries) in enumerate([
        (["table", "--n", "14"], b"shape,content,polynomial\n", 9151),
        (["table", "--n", "14", "--format", "plain"], b"14\t14\t1\n", 9151),
        (["table", "--n", "14", "--format", "json"],
         b'{"shape": [14], "content": [14], "polynomial": [[0, "1"]]}\n', 9151),
        (["table", "--n", "14", "--format", "latex"], b"14 & 14 & 1 \\\\\n", 9151),
        (["compute", "--shape", "6,4,3,2", "--content", "3,1^12", "--dump-tableaux"],
         f"{headline}\n".encode(), len(memo)),
    ]):
        path = tmp_path / f"{i}.tsv"
        with subprocess.Popen([sys.executable, "-m", "kostka.cli", *argv, "--cache", str(path)],
                              cwd=src, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1, argv
        assert err == b""
        assert len(KostkaCache.load(str(path))) == entries, argv


def test_table_json_rows_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        TPoly.from_json_obj(row["polynomial"])
    assert {"shape": [2, 1], "content": [1, 1, 1],
            "polynomial": [[1, "1"], [2, "1"]]} in rows


def test_table_latex(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.splitlines() == [
        "2 & 2 & 1 \\\\",
        "2 & 1,1 & t \\\\",
        "1,1 & 1,1 & 1 \\\\",
    ]


# --- verify ---

def test_verify_clean_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    assert "0 mismatches" in out


def test_verify_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "0")
    assert code == 0
    assert "0 mismatches / 0 pairs" in out


def test_verify_threads_match(capsys):
    _, single, _ = run(capsys, "verify", "--max-n", "3", "--threads", "1")
    _, multi, _ = run(capsys, "verify", "--max-n", "3", "--threads", "3")
    assert single == multi


def test_verify_rejects_structurally_corrupt_cache(capsys, tmp_path):
    path = tmp_path / "corrupt.tsv"
    path.write_text('2,2,1,1\t3,2,1\t[[1,"1"]]\n')
    code, _, err = run(capsys, "verify", "--max-n", "3", "--cache", str(path))
    assert code == 2
    assert "2,2,1,1 / 3,2,1" in err


@pytest.mark.parametrize("value, got, count", [
    pytest.param('[[5,"1"]]', "t^5", 1, id="json"),
    # the value that compute, table and bench refuse for its top coefficient
    pytest.param("1:1,2", "t + 2t^2", 3, id="dense"),
])
def test_verify_flags_poisoned_cache_value(capsys, tmp_path, value, got, count):
    path = tmp_path / "poisoned.tsv"
    path.write_text(f"2,1\t1,1,1\t{value}\n")  # wrong but well-formed entry
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--cache", str(path))
    assert code == 2
    lines = out.splitlines()
    assert (f"mismatch: shape=2,1 content=1,1,1 got={got} expected=t + t^2 "
            "oracle=charge") in lines
    assert (f"mismatch: shape=2,1 content=1,1,1 got={count} expected=2 "
            "oracle=ssyt-count") in lines


def test_verify_column_check_does_not_share_the_engine_closed_form(capsys, monkeypatch, tmp_path):
    # a wrong kostka_column reaches verify through the memo entries that the
    # engine's column leaves wrote; the column check must still disagree
    import kostka.core

    real = kostka.core.kostka_column
    monkeypatch.setattr(kostka.core, "kostka_column", lambda shape: real(shape).shift(1))
    # written in-process: the CLI refuses to serve these values, since their
    # degrees are one too high, but verify must still report them
    path = tmp_path / "memo.tsv"
    memo = KostkaCache()
    engine.kostka((3, 1, 1), (1,) * 5, memo)
    memo.save(str(path))
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--cache", str(path))
    assert code == 2
    assert ("mismatch: shape=2,1,1 content=1,1,1,1 got=t^2 + t^3 + t^4 "
            "expected=t + t^2 + t^3 oracle=column") in out.splitlines()


@pytest.mark.parametrize("name, line", [
    ("kostka_one_row", "mismatch: shape=2 content=1,1 got=t^2 expected=t oracle=one-row"),
    ("kostka_hook", "mismatch: shape=3,1 content=2,2 got=t^2 expected=t oracle=hook"),
    ("kostka_column",
     "mismatch: shape=2,1 content=1,1,1 got=t^2 + t^3 expected=t + t^2 oracle=column"),
], ids=["one-row", "hook", "column"])
def test_verify_checks_each_served_closed_form_against_the_charge_oracle(
        capsys, monkeypatch, name, line):
    # the sweep meets each closed form on the route that `kostka` dispatches
    # to, with no memo, and reports the closed form's value as `got`
    real = getattr(engine, name)
    monkeypatch.setattr(engine, name, lambda *args: real(*args).shift(1))
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 2
    assert line in out.splitlines()


def test_verify_checks_the_charge_columns_against_each_tableau(capsys, monkeypatch):
    real = kostka.cli.charge_polynomials
    monkeypatch.setattr(kostka.cli, "charge_polynomials",
                        lambda content: {s: v.shift(1) for s, v in real(content).items()})
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 2
    lines = out.splitlines()
    assert ("mismatch: shape=2,1 content=1,1,1 got=t^2 + t^3 "
            "expected=t + t^2 oracle=charge-tableaux") in lines
    assert ("mismatch: shape=2,1 content=1,1,1 got=t + t^2 "
            "expected=t^2 + t^3 oracle=charge") in lines

# --- bench ---

def test_bench_tiny_input(capsys):
    code, out, _ = run(capsys, "bench", "--shape", "2,1", "--content", "1,1,1")
    assert code == 0
    assert "recursion:" in out
    assert "charge oracle:" in out
    assert "speedup:" in out


@pytest.mark.parametrize("recursion_s, charge_s, line", [
    (1.0, 4.0, "speedup: recursion 4.0x faster than charge oracle"),
    (4.0, 1.0, "speedup: charge oracle 4.0x faster than recursion"),
])
def test_bench_speedup_names_the_faster_side(capsys, monkeypatch, recursion_s, charge_s, line):
    # a clock that moves only while the two timed evaluations run
    now = [0.0]

    def taking(seconds, fn):
        def timed(*args):
            now[0] += seconds
            return fn(*args)
        return timed

    monkeypatch.setattr(kostka.cli.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(kostka.cli, "kostka", taking(recursion_s, kostka.cli.kostka))
    monkeypatch.setattr(kostka.cli, "kostka_via_charge",
                        taking(charge_s, kostka.cli.kostka_via_charge))
    code, out, _ = run(capsys, "bench", "--shape", "3,2,1", "--content", "2,2,1,1")
    assert code == 0
    assert line + "\n" in out


def test_bench_reports_dispatch_path(capsys):
    code, out, _ = run(capsys, "bench", "--shape", "3,1,1", "--content", "2,1,1,1",
                       "--fast-paths", "all")
    assert code == 0
    assert "dispatch: hook path" in out


def test_bench_without_a_matching_fast_path_runs_the_recursion(capsys):
    code, out, _ = run(capsys, "bench", "--shape", "4,3,2,1", "--content", "1^10",
                       "--fast-paths", "hook")
    assert code == 0
    assert "dispatch: recursion path" in out
    assert "mismatch" not in out


def test_bench_reports_a_fast_path_that_disagrees_with_the_recursion(capsys, monkeypatch):
    real = engine.kostka_hook
    monkeypatch.setattr(engine, "kostka_hook", lambda *args: real(*args).shift(1))
    code, out, _ = run(capsys, "bench", "--shape", "3,1,1", "--content", "2,1,1,1",
                       "--fast-paths", "all")
    assert code == 2
    assert "mismatch: fast path hook disagrees with recursion\n" in out


def test_bench_reports_a_charge_oracle_that_disagrees_with_the_recursion(capsys, monkeypatch):
    real = kostka.cli.kostka_via_charge
    monkeypatch.setattr(kostka.cli, "kostka_via_charge", lambda *args: real(*args).shift(1))
    code, out, _ = run(capsys, "bench", "--shape", "3,2,1", "--content", "2,2,1,1")
    assert code == 2
    assert "mismatch: charge oracle disagrees with recursion\n" in out
    assert "speedup:" not in out


def test_bench_respects_oracle_ceiling(capsys):
    code, out, _ = run(capsys, "bench", "--shape", "3,2,1", "--content", "2,2,1,1",
                       "--oracle-ceiling", "1")
    assert code == 0
    assert "charge oracle skipped: 4 tableaux exceeds ceiling 1" in out


@pytest.mark.parametrize("shape, content", [("400", "1^400"), ("1^1100", "1^1100")])
def test_bench_runs_the_charge_oracle_on_deep_pairs(capsys, shape, content):
    start = time.perf_counter()
    code, out, err = run(capsys, "bench", "--shape", shape, "--content", content)
    assert time.perf_counter() - start < 10
    assert code == 0 and not err
    assert "charge oracle: 1 tableaux in" in out
    assert "mismatch" not in out
