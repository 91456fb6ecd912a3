"""The semple2 benchmark: one closed-loop client running one CLI process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* cold-table    one `table --max-degree 40 --format json` into a new, empty
                cache per operation; a round is that one operation.
* warm-queries  rounds of 20 mixed `count`/`contact`/`chow-eval`/`table`
                operations against a degree-40 cache built in set-up,
                3 of them refusals that must exit with 2 or 3.
* selftest      rounds of `verify --max-degree k --cache <warm cache>`,
                k = 2..8 in seeded order.

Set-up (repeated, median reported as `setup_s`) removes
and rebuilds semple2's bytecode cache, builds the warm cache where the
workload needs one (checking its stdout against the golden table), and
generates the first rounds.  With `--trace 0` the client then runs whole
rounds until `--seconds` have passed and at least `min_rounds` are done, so
warm-queries times at least 100 operations and selftest at least 105 (at
least 10 samples above p90), and cold-table times 2.  With `--trace 1` it
runs one round untraced and the same round again through `trace_child.py`, then
times imports in fresh interpreters, and reports the per-layer metrics.

The host is a few vCPUs of a shared machine whose speed drifts by up to 2x,
in phases from seconds to minutes.  So the timed metrics are host-normalised
by probes that run no semple2 code, each operation by the probe that times
what dominates it.  Before the first operation and then every half second,
between operations, the client times a bare `python -c pass`; a short
operation, which interpreter start-up and imports dominate, is slowed down
by the mean of the two timings around it over their value on the reference
host (`PROBE_REF_SPAWN_MS`).  While an operation runs, a fixed pure-Python
loop is timed every half second in thread CPU time on the operation's CPU;
an operation that runs long enough for 3 such samples (a cold table, a
set-up that builds the warm cache), which compute dominates, is slowed down
by their mean over its value on the reference host (`PROBE_REF_LOOP_MS`).
The host flips between a fast and a slow state within seconds, and an
operation's time adds up the states it ran through, so slowdowns are means.
Each operation's time is divided by its slowdown, so a `norm_` time reads as
that time on the reference host: a change to semple2 moves it as much as
the raw time, and a slow host phase moves the probes with it.  `setup_s` is
normalised the same way, each set-up counting as one operation.  The raw
times and the slowdowns are kept in the `info` line and the results file.
The client and its children are pinned to one CPU, so the probes and the
operations run on the same vCPU.

Every child is `python -m semple2.cli` with this tree's `src` first on
PYTHONPATH and without SEMPLE2_CACHE.  Scratch files go to `.bench_build/`;
each run's full record, spans included, is written to
`.bench_build/bench-results/`.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time
from typing import Dict, List, Optional

from golden import GOLDEN_MAX_DEGREE, Golden, GoldenError, load_golden
from layers import median_of, parse_importtime, span_metrics
from workloads import CACHE, VERIFY_CHECKS, Op, round_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PKG = SRC / "semple2"
BUILD = ROOT / ".bench_build"
TRACE_CHILD = BENCH / "trace_child.py"

#: set-up runs at least this often and for at least this long; the median
#: is `setup_s`
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
#: fresh interpreters timed for the import and interpreter floors
IMPORT_SAMPLES = 5
#: a child still running after this long is killed and counted as failed
OP_TIMEOUT_S = 120
#: the start-up probe runs before the first operation and after each
#: operation that ends at least PROBE_EVERY_S after the last probe
PROBE_EVERY_S = 0.5
#: iterations of the in-process probe loop
PROBE_LOOP_N = 100_000
#: the loop probe runs every PROBE_DURING_S while an operation runs; an
#: operation that collects PROBE_DURING_MIN samples or more uses them
PROBE_DURING_S = 0.5
PROBE_DURING_MIN = 3
#: typical probe values on the reference host (2 vCPU Intel Xeon VM, Python 3.11.7)
PROBE_REF_LOOP_MS = 9.0
PROBE_REF_SPAWN_MS = 55.0


@dataclass(frozen=True)
class Spec:
    warm_cache: bool
    min_rounds: int


WORKLOADS = {
    "cold-table": Spec(warm_cache=False, min_rounds=2),
    "warm-queries": Spec(warm_cache=True, min_rounds=5),
    "selftest": Spec(warm_cache=True, min_rounds=15),
}


class SetupError(RuntimeError):
    """Set-up could not produce a checked warm cache."""


@dataclass
class Proc:
    code: int
    stdout: bytes
    seconds: float
    maxrss_mb: float


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("SEMPLE2_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_process(cmd: List[str], cwd: Path) -> Proc:
    """Run one child to exit, timed from spawn to exit, with its peak RSS."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            stdin=subprocess.DEVNULL, cwd=cwd, env=child_env())
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out, seconds, usage.ru_maxrss / 1024)


def cli(argv, cwd: Path) -> Proc:
    return run_process([sys.executable, "-m", "semple2.cli", *argv], cwd)


def matches(op: Op, code: int, stdout: bytes) -> bool:
    """Whether an operation's exit code and stdout are the expected ones."""
    if code != op.code:
        return False
    if op.verify_degree is None:
        return stdout == op.stdout
    try:
        reports = {r["name"]: r for r in json.loads(stdout)}
    except (ValueError, TypeError, KeyError):
        return False
    return (set(VERIFY_CHECKS) <= set(reports)
            and all(r.get("status") == "pass" for r in reports.values())
            and reports["kontsevich-oracle"].get("degrees") == f"1..{op.verify_degree}")


class Sampler:
    """Times the loop probe every PROBE_DURING_S while an operation runs.

    The thread inherits this process's CPU, which the operation runs on too,
    so the samples take about 2% of the CPU from a long operation.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_DURING_S):
            self.samples.append(probe_loop_ms())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Client:
    """Runs operations one at a time and keeps what each returned."""

    def __init__(self, work: Path, warm_cache: Optional[Path], seed: int):
        self.work = work
        self.warm_cache = warm_cache
        self.seed = seed
        self.fresh = 0
        self.records: List[dict] = []

    def _argv(self, op: Op) -> List[str]:
        if self.warm_cache is not None:
            cache = self.warm_cache
        else:
            self.fresh += 1
            cache = self.work / f"cold-{self.seed}-{self.fresh}.json"
        return [str(cache) if a == CACHE else a for a in op.argv]

    def run(self, op: Op) -> Proc:
        argv = self._argv(op)
        with Sampler() as sampler:
            result = cli(argv, self.work)
        self._record(op, result, matches(op, result.code, result.stdout))
        self.records[-1]["during_loop_ms"] = sampler.samples
        return result

    def run_traced(self, op: Op, untraced: Proc) -> List[dict]:
        """Run op in a traced child; ok only if it also equals the untraced run."""
        argv = self._argv(op)
        out = self.work / "trace.json"
        out.unlink(missing_ok=True)
        result = run_process([sys.executable, str(TRACE_CHILD), str(out), *argv], self.work)
        try:
            with open(out, encoding="utf-8") as handle:
                trace = json.load(handle)
            stdout = trace["stdout"].encode("utf-8")
            ok = (result.code == 0 and trace["code"] == untraced.code
                  and stdout == untraced.stdout and matches(op, trace["code"], stdout))
        except (OSError, ValueError, KeyError):
            trace, ok = {"spans": []}, False
        self._record(op, result, ok, traced=True)
        return trace["spans"]

    def _record(self, op: Op, result: Proc, ok: bool, traced: bool = False) -> None:
        self.records.append({"kind": op.kind, "argv": list(op.argv), "traced": traced,
                             "code": result.code, "ok": ok, "ms": 1e3 * result.seconds,
                             "rss_mb": result.maxrss_mb, "stdout_bytes": len(result.stdout)})


def setup_once(workload: str, seed: int, golden: Golden, work: Path, tag: int):
    shutil.rmtree(PKG / "__pycache__", ignore_errors=True)
    compiled = run_process([sys.executable, "-m", "compileall", "-q", str(PKG)], work)
    if compiled.code != 0:
        raise SetupError("compileall failed")
    warm = None
    if WORKLOADS[workload].warm_cache:
        warm = work / f"warm-{tag}.json"
        built = cli(["table", "--max-degree", str(GOLDEN_MAX_DEGREE), "--format", "json",
                     "--cache", str(warm)], work)
        if built.code != 0 or built.stdout != golden.raw:
            raise SetupError("the warm-cache build does not print the golden table")
    rounds = [round_ops(workload, seed, r, golden)
              for r in range(WORKLOADS[workload].min_rounds)]
    return warm, rounds


def setup(workload: str, seed: int, golden: Golden, work: Path, repeat: bool):
    """Set up once, or at least SETUP_MIN_REPEATS times and SETUP_MIN_S when
    `repeat`; returns the median set-up time, host-normalised and raw, and
    the last set-up's warm cache and rounds."""
    host = HostProbe(work)
    times, during = [], []
    while not times or repeat and (len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S):
        with Sampler() as sampler:
            t0 = perf_counter()
            warm, rounds = setup_once(workload, seed, golden, work, len(times))
            times.append(perf_counter() - t0)
        during.append(sampler.samples)
        host.passed()
    norm = [t / factor for t, factor in zip(times, host.slowdowns(during))]
    return statistics.median(norm), statistics.median(times), warm, rounds


def p90(values: List[float]) -> float:
    """90th percentile, interpolated between samples (cold-table has only a few)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def probe_loop_ms() -> float:
    """One pass of the in-process host probe, in ms of this thread's CPU time,
    which leaves out the time an operation sharing the CPU takes from it."""
    t0 = thread_time()
    acc = 0
    for i in range(PROBE_LOOP_N):
        acc += i * i % 7
    return 1e3 * (thread_time() - t0)


def probe_spawn_ms(work: Path) -> float:
    """One bare interpreter start, in ms."""
    return 1e3 * run_process([sys.executable, "-c", "pass"], work).seconds


def slowdown(around: List[float], during: List[float]) -> float:
    """How many times slower than the reference host an operation's probes
    ran: the loop probe during it if it ran long enough, else the start-up
    probes around it."""
    if len(during) >= PROBE_DURING_MIN:
        return statistics.fmean(during) / PROBE_REF_LOOP_MS
    return statistics.fmean(around) / PROBE_REF_SPAWN_MS


class HostProbe:
    """Start-up probe points between timed items (operations or set-ups).

    A point is taken before the first item and after each item that ends at
    least PROBE_EVERY_S after the last point; an item's slowdown comes from
    the points just before and just after it.
    """

    def __init__(self, work: Path):
        self.work = work
        self.points = [probe_spawn_ms(work)]
        #: per item, the index of the point just before it
        self.before: List[int] = []
        self.last = perf_counter()

    def passed(self) -> None:
        """Note that a timed item has just ended."""
        self.before.append(len(self.points) - 1)
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self._point()

    def _point(self) -> None:
        self.points.append(probe_spawn_ms(self.work))
        self.last = perf_counter()

    def slowdowns(self, during: List[List[float]]) -> List[float]:
        """Each item's slowdown, given the loop samples taken while it ran."""
        if self.before[-1] == len(self.points) - 1:
            self._point()
        return [slowdown(self.points[i:i + 2], samples)
                for i, samples in zip(self.before, during)]


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, where the probe runs too."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(workload: str, seed: int, seconds: float, golden: Golden, work: Path):
    setup_s, raw_setup_s, warm, rounds = setup(workload, seed, golden, work, repeat=True)
    client = Client(work, warm, seed)
    host = HostProbe(work)
    spans = []  # per round, its first and end operation
    start = perf_counter()
    r = 0
    while r < WORKLOADS[workload].min_rounds or perf_counter() - start < seconds:
        ops = rounds[r] if r < len(rounds) else round_ops(workload, seed, r, golden)
        first = len(client.records)
        for op in ops:
            client.run(op)
            host.passed()
        spans.append((first, len(client.records)))
        r += 1

    slow = host.slowdowns([rec["during_loop_ms"] for rec in client.records])
    raw = [rec["ms"] for rec in client.records]
    norm = [ms / factor for ms, factor in zip(raw, slow)]
    raw_walls = [sum(raw[i:j]) / 1e3 for i, j in spans]
    norm_walls = [sum(norm[i:j]) / 1e3 for i, j in spans]
    metrics = {
        "setup_s": setup_s,
        "norm_wall_s": statistics.median(norm_walls),
        "norm_ops_per_s": len(norm) / sum(norm_walls),
        "norm_op_p50_ms": statistics.median(norm),
        "norm_op_p90_ms": p90(norm),
        "peak_rss_mb": max(rec["rss_mb"] for rec in client.records),
    }
    notes = {
        "ops": len(norm), "rounds": r,
        "samples_above_p90": sum(x > metrics["norm_op_p90_ms"] for x in norm),
        "slowdown_median": statistics.median(slow),
        "raw": {"setup_s": raw_setup_s, "wall_s": statistics.median(raw_walls),
                "ops_per_s": len(raw) / sum(raw_walls),
                "op_p50_ms": statistics.median(raw), "op_p90_ms": p90(raw)},
    }
    extra = {"round_walls_s": raw_walls, "op_slowdowns": slow,
             "spawn_probes_ms": host.points, "op_probe_before": host.before}
    return metrics, client.records, notes, extra


def trace(workload: str, seed: int, seconds: float, golden: Golden, work: Path):
    _, _, warm, rounds = setup(workload, seed, golden, work, repeat=False)
    client = Client(work, warm, seed)
    ops = rounds[0]
    t0 = perf_counter()
    untraced = [client.run(op) for op in ops]
    untraced_s = perf_counter() - t0
    t0 = perf_counter()
    traces = [client.run_traced(op, u) for op, u in zip(ops, untraced)]
    traced_s = perf_counter() - t0

    metrics = span_metrics(traces, [len(u.stdout) for u in untraced])
    imports = []
    for _ in range(IMPORT_SAMPLES):
        got = subprocess.run([sys.executable, "-X", "importtime", "-c", "import semple2.cli"],
                             cwd=work, env=child_env(), capture_output=True, text=True,
                             timeout=OP_TIMEOUT_S, check=False)
        imports.append(parse_importtime(got.stderr))
    metrics.update(median_of(imports))
    metrics["cli.interpreter_ms"] = statistics.median(
        1e3 * run_process([sys.executable, "-c", "pass"], work).seconds
        for _ in range(IMPORT_SAMPLES))
    failed = sum(not rec["ok"] for rec in client.records)
    metrics["failed_share"] = failed / len(client.records)
    metrics["trace.ops"] = len(ops)
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return metrics, client.records, {"ops": len(ops)}, {"spans": traces}


def meta() -> Dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted(PKG.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        sha = got.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def declared_metrics(trace_on: bool) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PKG / "cli.py").is_file():
        print(f"error: no semple2 source under {PKG}", file=sys.stderr)
        return 2
    try:
        golden = load_golden()
        units = declared_metrics(bool(args.trace))
    except (OSError, ValueError, GoldenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench-", dir=BUILD))
    try:
        run = trace if args.trace else measure
        metrics, records, notes, extra = run(args.workload, args.seed, args.seconds,
                                             golden, work)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    failed = sum(not rec["ok"] for rec in records)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **meta(), **notes, "failed_share": failed / len(records)}
    out_dir = BUILD / "bench-results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"info": info, "metrics": metrics, "ops": records, **extra}, handle)

    for name, unit in units.items():
        print(f"{args.workload:13s} {name:40s} {metrics[name]:>14.6g} {unit}")
    print("info " + json.dumps(info))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
