"""Tests of the benchmark harness itself (tracer, patching, input generation)."""

from __future__ import annotations

import bisect
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

KOSTKA = run.import_kostka()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Time moves only when the synthetic work says so; reading it is free."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def work(units):
        clock.now += units

    inner = tracer.wrap("inner", work)

    def outer_body():
        work(10)
        inner(3)
        work(5)
        inner(4)
        work(2)

    tracer.wrap("outer", outer_body)()
    table, _ = tracer.snapshot()
    assert table[("outer", spans.ROOT)] == [1, 24, 24 - (3 + 4), 0]
    assert table[("inner", "outer")] == [2, 7, 7, 0]
    self_s, calls, trace_s = spans.self_times(table)
    assert self_s == pytest.approx({"outer": 17e-9, "inner": 7e-9}) and trace_s == 0
    assert calls == {"outer": 1, "inner": 2}
    # calibrated per-span costs move from the layers to tracing
    self_s, _, trace_s = spans.self_times(table, inner_ns=1, outer_ns=2)
    assert self_s == pytest.approx({"outer": (17 - 1 - 2 * 2) * 1e-9, "inner": 5e-9})
    assert trace_s == pytest.approx(7e-9)


def test_worker_threads_nest_under_the_submitting_span():
    tracer = spans.Tracer(FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)

    def submit():
        parent = tracer.current()
        worker = threading.Thread(target=tracer.adopt, args=(parent, leaf))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("pool", submit)()
    table, _ = tracer.snapshot()
    assert table[("leaf", "pool")][0] == 1


def _attributes() -> dict:
    cli, core, polynomials = KOSTKA["cli"], KOSTKA["core"], KOSTKA["polynomials"]
    owners = list(KOSTKA.values()) + [polynomials.TPoly, core.KostkaCache, cli._Parser]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def test_traced_run_restores_every_patched_attribute():
    before = _attributes()
    original_kostka = KOSTKA["core"].kostka
    plan = workloads.Plan([
        workloads.Request(["table", "--n", "5", "--threads", "2"], lambda o: None),
        workloads.Request(["compute", "--shape", "3,1", "--content", "2,1,1"], lambda o: None),
        workloads.Request(["compute", "--shape", "3,2", "--content", "1^5", "--format", "latex",
                           "--fast-paths", "all"], lambda o: None),
        workloads.Request(["verify", "--max-n", "3"], lambda o: None),
    ])
    tracer = spans.Tracer()
    patches = spans.install(tracer, KOSTKA)
    try:
        assert KOSTKA["core"].kostka is not original_kostka
        outcomes = workloads.run_pass(KOSTKA, plan, tracer.reset_stack)
    finally:
        spans.uninstall(patches)
    assert [o.failure for o in outcomes] == [None] * 4
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    table, counts = tracer.snapshot()
    names = {name for name, _ in table}
    assert {"cli.main", "cli.command", "core.kostka", "polynomials.add",
            "partitions.dominates", "oracles.charge", "cli.render"} <= names
    # the table's workers nest under the pool span that submitted them
    assert any(parent == "cli.pool" for _, parent in table)


def test_pairs_mix_is_a_pure_function_of_the_seed():
    mix = workloads.pairs_mix(7)
    small = workloads.pairs_mix(7, per_decile=1)
    assert workloads.pairs_mix(7, per_decile=1) == small and set(small) <= set(mix)
    assert workloads.pairs_mix(8, per_decile=1) != small
    assert len(mix) == 40 and len(set(mix)) == 40
    deciles = [bisect.bisect(workloads.COST_DECILES, workloads.lookups(s, c, 4000) * len(c))
               for s, c in mix]
    assert sorted(deciles) == sorted(list(range(10)) * 4)
    for shape, content in mix:
        assert 20 <= sum(shape) <= 22 and 2 <= len(shape) <= 6 and shape[1] >= 2
        assert set(content) <= {1, 2} and workloads.dominates(shape, content)


def test_peak_pass_replays_the_restore_and_sees_the_memory_it_allocates(tmp_path):
    source, target = tmp_path / "memo-pristine.tsv", tmp_path / "memo.tsv"
    source.write_text("")
    plan = workloads.Plan([workloads.Request(
        ["table", "--n", "9", "--cache", str(target)], lambda o: None, restore=(source, target))])
    assert run.finish_peak(run.start_peak(plan, tmp_path)) > 0
    # the fresh process copied the file to its own name, then saved the memo there
    assert not target.exists() and (tmp_path / "peak-memo.tsv").stat().st_size > 0


def test_plain_polynomial_parser_inverts_the_renderer():
    tpoly = KOSTKA["polynomials"].TPoly
    for coeffs in ({}, {0: 3}, {1: 1, 2: 2, 3: 1}, {0: -1, 4: 12, 7: -1}):
        assert workloads.parse_plain(tpoly(coeffs).plain_str()) == coeffs


def test_benchmark_json_names_the_metrics_the_runs_report(tmp_path):
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    plan = workloads.Plan([workloads.Request(
        ["compute", "--shape", "3,2,1", "--content", "2,2,1,1"], lambda o: None)])
    timed, *_ = run.timed_run(KOSTKA, plan, 0, tmp_path)
    traced, *_ = run.traced_run(KOSTKA, plan, 0)
    assert sorted(["setup_s", *timed]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert sorted(traced) == sorted(m["name"] for m in SPEC["per_layer"])
