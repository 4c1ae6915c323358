"""Benchmark of the kostka CLI: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 5 --trace 0

Builds the workload's inputs from the seed, runs one untimed warm-up pass,
one pass in a fresh process for `peak_mib` (perfbench/peak.py), then timed
passes back to back for `--seconds`, checking every output.
`--trace 1` instead alternates untimed and traced passes and reports the
per-layer metrics.
Human-readable lines go to stdout, the full record (inputs, provenance,
every request and span) to .perfbench/results/, and the last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("partitions", "polynomials", "core", "oracles", "cli")
LAYERS = MODULES + ("trace",)
SETUP_RUNS = 7
HASH_SEED = "0"

SPEC = ROOT / "BENCHMARK.json"  # workloads, metric names and units


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_kostka() -> dict:
    src = ROOT / "src"
    if not (src / "kostka" / "cli.py").is_file():
        raise BenchError(f"no kostka package under {src}")
    sys.path.insert(0, str(src))
    import importlib

    mods = {name: importlib.import_module(f"kostka.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise BenchError(f"kostka was imported from {mods['cli'].__file__}, not {src}")
    return mods


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh `python -m kostka.cli compute` process."""
    env = {k: v for k, v in os.environ.items() if k != "KOSTKA_CACHE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    argv = [sys.executable, "-m", "kostka.cli", "compute", "--shape", "1", "--content", "1"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != "1\n":
            raise BenchError(f"setup command failed: {proc.returncode} {proc.stderr[-200:]}")
    return statistics.median(times), times


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_passes(kostka: dict, plan: workloads.Plan,
                 seconds: float) -> list[list[workloads.Outcome]]:
    """Passes until `seconds` have elapsed, at least one."""
    timed: list[list[workloads.Outcome]] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(workloads.run_pass(kostka, plan))
    return timed


def start_peak(plan: workloads.Plan, workdir: Path) -> subprocess.Popen:
    """Start one pass in a fresh process (peak.py); it runs beside the warm-up.

    Neither is timed.  A request that restores a file gets its own copy,
    since the warm-up pass writes the original meanwhile.
    """
    requests = []
    for r in plan.requests:
        argv, restore = r.argv, None
        if r.restore is not None:
            source, target = r.restore
            own = target.with_name("peak-" + target.name)
            argv = [str(own) if a == str(target) else a for a in argv]
            restore = [str(source), str(own)]
        requests.append({"argv": argv, "restore": restore})
    spec = workdir / "peak-pass.json"
    spec.write_text(json.dumps({"requests": requests}))
    return subprocess.Popen([sys.executable, str(Path(__file__).with_name("peak.py")), str(spec)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_peak(proc: subprocess.Popen) -> float:
    """MiB by which the pass raised the peak resident set of its process."""
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        raise BenchError("peak memory pass timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"peak memory pass failed: {err[-300:]}")
    return json.loads(out.splitlines()[-1])["peak_growth_kib"] / 1024


def timed_run(kostka: dict, plan: workloads.Plan, seconds: float,
              workdir: Path) -> tuple[dict, list, list, dict]:
    peak_proc = start_peak(plan, workdir)
    try:
        passes = [workloads.run_pass(kostka, plan)]  # warm-up
        problems = plan.deep_check(passes[0])
        peak = finish_peak(peak_proc)
    finally:
        if peak_proc.poll() is None:
            peak_proc.kill()
            peak_proc.communicate()
    timed = timed_passes(kostka, plan, seconds)
    passes += timed
    ok = [o for outs in timed for o in outs if o.failure is None]
    done = sum(req.pairs for outs in timed for req, o in zip(plan.requests, outs)
               if o.failure is None)
    latencies = [o.seconds * 1000 for o in ok] or [
        o.seconds * 1000 for outs in timed for o in outs]
    metrics = {
        "pairs_per_s": done / sum(o.seconds for outs in timed for o in outs),
        "compute_ms_p50": percentile(latencies, 50),
        "compute_ms_p90": percentile(latencies, 90),
        "peak_mib": peak,
    }
    detail = {"latency_samples": len(latencies),
              "pass_wall_s": [sum(o.seconds for o in outs) for outs in timed],
              "request_ms": [[o.seconds * 1000 for o in outs] for outs in timed]}
    return metrics, passes, problems, detail


def traced_run(kostka: dict, plan: workloads.Plan, seconds: float) -> tuple[dict, list, list, dict]:
    passes = [workloads.run_pass(kostka, plan)]
    problems = plan.deep_check(passes[0])
    inner_ns, outer_ns = spans.calibrate()
    tracer = spans.Tracer()
    untraced_s, traced_s = [], []
    entries = stdout_bytes = 0

    def after_request() -> None:
        nonlocal entries
        tracer.reset_stack()
        entries += max((len(c) for c in tracer.take_caches()), default=0)

    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        outs = workloads.run_pass(kostka, plan)
        untraced_s.append(sum(o.seconds for o in outs))
        passes.append(outs)
        patches = spans.install(tracer, kostka)
        try:
            outs = workloads.run_pass(kostka, plan, after_request)
        finally:
            spans.uninstall(patches)
        traced_s.append(sum(o.seconds for o in outs))
        stdout_bytes += sum(len(o.stdout.encode()) for o in outs)
        passes.append(outs)

    k = len(traced_s)
    span_table, counts = tracer.snapshot()
    self_s, calls, trace_s = spans.self_times(span_table, inner_ns, outer_ns)
    own = lambda name: self_s.get(name, 0.0) / k  # noqa: E731
    count = lambda name: calls.get(name, 0) / k  # noqa: E731
    lookups = counts.get("cache_hit", 0) + counts.get("cache_miss", 0)
    m = {
        "partitions.dominates.calls": count("partitions.dominates"),
        "partitions.dominates.self_s": own("partitions.dominates"),
        "partitions.strips.calls": count("partitions.strips"),
        "partitions.strips.shapes": counts.get("strip_shapes", 0) / k,
        "partitions.strips.self_s": own("partitions.strips"),
        "partitions.io.self_s": own("partitions.io"),
        "polynomials.add.calls": count("polynomials.add"),
        "polynomials.add.self_s": own("polynomials.add"),
        "polynomials.shift.calls": count("polynomials.shift"),
        "polynomials.shift.self_s": own("polynomials.shift"),
        "polynomials.divide.calls": count("polynomials.divide"),
        "polynomials.divide.self_s": own("polynomials.divide"),
        "polynomials.max_coeff_bits": counts.get("max_coeff_bits", 0),
        "core.kostka.calls": count("core.kostka"),
        "core.kostka.self_s": own("core.kostka"),
        "core.kostka.vanishing_ratio":
            counts.get("kostka_zero", 0) / max(calls.get("core.kostka", 0), 1),
        "core.cache.hit_ratio": counts.get("cache_hit", 0) / max(lookups, 1),
        "core.cache.entries": entries / k,
        "core.cache.put.calls": count("core.cache.put"),
        "core.cache.load.self_s": own("core.cache.load"),
        "core.cache.save.self_s": own("core.cache.save"),
        "core.cache.file_bytes": counts.get("cache_file_bytes", 0) / k,
        "core.cache.clone_merge.self_s": own("core.cache.clone_merge"),
        "core.closed_forms.self_s": own("core.closed_forms"),
        "oracles.enumerate_ssyt.calls": count("oracles.enumerate_ssyt"),
        "oracles.enumerate_ssyt.self_s": own("oracles.enumerate_ssyt"),
        "oracles.tableaux": counts.get("tableaux", 0) / k,
        "oracles.charge.calls": count("oracles.charge"),
        "oracles.charge.self_s": own("oracles.charge"),
        "oracles.kostka_number.self_s": own("oracles.kostka_number"),
        "cli.parse.self_s": own("cli.parse"),
        "cli.render.self_s": own("cli.render"),
        "cli.stdout_bytes": stdout_bytes / k,
        "cli.command.self_s": own("cli.command"),
    }
    layer_s = {layer: sum(v for name, v in self_s.items() if name.split(".")[0] == layer) / k
               for layer in MODULES}
    layer_s["trace"] = trace_s / k
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_s[layer]
    traced_wall = statistics.median(traced_s)
    m["trace.overhead_ratio"] = traced_wall / statistics.median(untraced_s)
    m["trace.accounted_ratio"] = sum(layer_s.values()) / (sum(traced_s) / k)
    detail = {
        "traced_passes": k, "traced_wall_s": traced_s, "untraced_wall_s": untraced_s,
        "calibration_ns": {"inner": inner_ns, "outer": outer_ns},
        "spans": sorted([name, parent, *rec] for (name, parent), rec in span_table.items()),
        "counts": counts,
    }
    return m, passes, problems, detail


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomized per process by default, and the seed
        # alone moves this interpreter's speed by up to 25% from one process
        # to the next; a fixed seed keeps runs of one commit comparable.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="results file (default under .perfbench/results)")
    args = ap.parse_args(argv)

    try:
        kostka = import_kostka()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.environ.pop("KOSTKA_CACHE", None)
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup() if not args.trace else None
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir, kostka)
        if args.trace:
            metrics, passes, problems, detail = traced_run(kostka, plan, args.seconds)
        else:
            metrics, passes, problems, detail = timed_run(kostka, plan, args.seconds, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup is not None:
        metrics = {"setup_s": setup[0], **metrics}
        detail["setup_runs_s"] = setup[1]

    outcomes = [o for outs in passes for o in outs]
    attempted, failed = len(outcomes), sum(o.failure is not None for o in outcomes)
    problems = plan.setup_failures + problems
    wrong = sorted({o.failure for o in outcomes if o.wrong})
    correct = not problems and not wrong
    failures: dict[str, int] = {}
    for req, o in ((r, o) for outs in passes for r, o in zip(plan.requests, outs)):
        if o.failure is not None:
            key = f"{' '.join(req.argv)}: {o.failure}"
            failures[key] = failures.get(key, 0) + 1

    record = {
        "workload": args.workload, "why": why[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "threads": max(int(r.argv[r.argv.index("--threads") + 1])
                       if "--threads" in r.argv else 1 for r in plan.requests),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "inputs": plan.inputs,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": failures,
        "problems": problems + wrong,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in wanted.items()},
        "detail": detail,
    }
    out = args.out or ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} threads {record['threads']} "
          f"python {record['python']} nproc {record['nproc']} commit {record['commit'][:12]}")
    for name, unit in wanted.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(f"{'failed_ratio':32s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for key, n in failures.items():
        print(f"failed x{n}: {key[:160]}")
    for p in record["problems"]:
        print(f"problem: {p[:160]}")
    print(f"results: {out}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
