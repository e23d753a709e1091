"""Benchmark of primroots: one closed-loop client, one operation at a time.

Run from the repository root:

    python3 benchmark/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``enumerate`` runs `primroots list` as a
subprocess per root set, ``queries`` and ``hensel`` call the library
in-process.  Each operation starts after the previous one ended.  Inputs come
from the seed only, every answer is checked outside the timed region, and
the last line of standard output is one JSON object with the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
twice, first plain and then with spans around every public function of the
program, and reports per-layer metrics; the spans are also written to
``.bench_trace/<workload>-<seed>.json``.

The program is imported from ``src/`` of the current directory and nowhere
else; without it the benchmark fails.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans
import traced_cli
from workloads import WORKLOADS, Wrong

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 15
OP_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    out = [("cli.run.self_s", "s"), ("cli.stdout_bytes", "bytes")]
    for mod, names in spans.SPANNED.items():
        for fname in names:
            key = f"{mod}.{fname}"
            if key == "cli.run":
                continue
            out += [(key + ".calls", "count"), (key + ".self_s", "s")]
            if mod == "orders":
                out.append((key + ".errors", "count"))
    for mod, names in spans.COUNTED.items():
        out += [(f"{mod}.{fname}.calls", "count") for fname in names]
    out += [
        ("construct.from_generator.kept_ratio", "ratio"),
        ("construct.exceptional_t.calls_per_base_root", "ratio"),
        ("modarith.factorize.distinct_ratio", "ratio"),
        ("hensel.lift_solution.unique", "count"),
        ("hensel.lift_solution.multiple", "count"),
        ("hensel.lift_solution.none", "count"),
        ("hensel.level1.hit_ratio", "ratio"),
    ]
    out += [(f"{mod}.share", "ratio") for mod in spans.MODULES]
    out.append(("trace_overhead_s", "s"))
    return tuple(out)


PER_LAYER = _per_layer()


@dataclass
class CliOutcome:
    code: int
    stdout: bytes
    stderr: str
    rss_kb: int
    trace: dict | None


class Runner:
    """Executes operations: CLI subprocesses or in-process library calls."""

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.modules = spans.load_modules()

    def cli(self, argv: tuple, traced: bool) -> CliOutcome:
        head = [str(HERE / "traced_cli.py")] if traced else ["-m", "primroots.cli"]
        proc = subprocess.Popen(
            [sys.executable, *head, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
        )
        errs: list[bytes] = []
        reader = threading.Thread(target=lambda: errs.append(proc.stderr.read()))
        reader.start()
        lock = threading.Lock()
        exited = False

        def kill() -> None:
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        killer = threading.Timer(OP_TIMEOUT_S, kill)
        killer.start()
        try:
            out = proc.stdout.read()
            # Wait without reaping, so the watchdog can never signal a pid
            # that has been reaped and reused; then reap with wait4 for RSS.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited = True
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        err, marker, doc = (errs[0].decode() if errs else "").partition(traced_cli.MARKER + "\n")
        trace = json.loads(doc) if traced and marker else None
        return CliOutcome(proc.returncode, out, err, usage.ru_maxrss, trace)

    def call(self, op) -> tuple:
        """(value, None) or (None, exception) for one library call."""
        mods = self.modules
        try:
            if op.call == "prefix":
                it = mods["construct"].iter_primitive_roots(*op.args)
                value = list(itertools.islice(it, 3))
                it.close()
            elif op.call == "solve_prime_power":
                coeffs, p, k = op.args
                value = mods["hensel"].solve_prime_power(mods["hensel"].Polynomial(coeffs), p, k)
            else:
                value = getattr(mods["orders"], op.call)(*op.args)
        except Exception as exc:  # an expected refusal, or a failure the check counts
            return None, exc
        return value, None


@dataclass
class PassResult:
    spent: float
    latencies: list[float]
    attempted: int
    failed: int
    items: int
    rss_kb: int
    stdout_bytes: int
    traces: list


def run_pass(workload, ops, runner: Runner, oracle, seed: int, index: int, traced: bool = False) -> PassResult:
    res = PassResult(0.0, [], 0, 0, 0, 0, 0, [])
    for j, op in enumerate(ops):
        start = perf_counter()
        if workload.in_process:
            outcome = runner.call(op)
        else:
            outcome = runner.cli(op.args, traced)
        took = perf_counter() - start
        res.spent += took
        res.latencies.append(took)
        res.attempted += 1
        if not workload.in_process:
            res.rss_kb = max(res.rss_kb, outcome.rss_kb)
            res.stdout_bytes += len(outcome.stdout)
            res.traces.append(outcome.trace)
        try:
            res.items += workload.verify(op, outcome, random.Random(f"check:{seed}:{index}:{j}"), oracle)
        except Wrong as exc:
            res.failed += 1
            print(f"wrong answer: {op.call}{op.args!s:.200}: {exc}", file=sys.stderr)
        except Exception:  # a check that cannot even read the answer
            res.failed += 1
            print(f"unreadable answer: {op.call}{op.args!s:.200}", file=sys.stderr)
            traceback.print_exc()
    if workload.in_process:
        res.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return res


def measure_setup(runner: Runner) -> float:
    """Median time for a fresh process to answer the cheapest command."""
    times = []
    for i in range(SETUP_STARTS + 1):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "primroots.cli", "classify", "7"],
            capture_output=True,
            env=runner.env,
            timeout=60,
        )
        took = perf_counter() - start
        if done.returncode != 0 or done.stdout.split() != [b"odd_prime_power", b"p=7", b"k=1"]:
            raise SystemExit(f"primroots classify 7 failed: {done.stderr.decode()[:500]}")
        if i:  # the first start also writes the bytecode cache
            times.append(took)
    return statistics.median(times)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_run(workload, seed: int, seconds: float, runner: Runner, oracle):
    """Whole passes until the measured time reaches `seconds` (at least one)."""
    passes: list[PassResult] = []
    index = 0
    while True:
        ops = workload.make_pass(seed, index)
        passes.append(run_pass(workload, ops, runner, oracle, seed, index))
        index += 1
        spent = [p.spent for p in passes]
        # Stop where the run ends nearest to `seconds`.
        if sum(spent) + statistics.mean(spent) / 2 >= seconds:
            break
    spent = [p.spent for p in passes]
    total = sum(spent)
    lat = [x for p in passes for x in p.latencies]
    attempted = sum(p.attempted for p in passes)
    tail = percentile(lat, workload.tail)
    metrics = {
        "wall_s": statistics.median(spent),
        # Rates per pass, then their median: one slow pass does not move them.
        "ops_per_s": statistics.median(p.attempted / p.spent for p in passes),
        "items_per_s": statistics.median(p.items / p.spent for p in passes),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
    }
    notes = [
        f"passes: {len(passes)}, measured {total:.2f} s",
        f"op_tail_ms is p{workload.tail} of {len(lat)} latency samples, "
        f"{sum(x > tail for x in lat)} beyond it",
    ]
    return metrics, attempted, sum(p.failed for p in passes), notes


def traced_run(workload, seed: int, runner: Runner, oracle):
    """One pass plain, the same pass traced; per-layer metrics of the traced one."""
    ops = workload.make_pass(seed, 0)
    plain = run_pass(workload, ops, runner, oracle, seed, 0)
    tracer = spans.Tracer()
    with spans.install(tracer) if workload.in_process else contextlib.nullcontext():
        traced = run_pass(workload, ops, runner, oracle, seed, 0, traced=True)
    for doc in traced.traces:
        if doc:
            tracer.absorb(doc)
    base_roots = sum(op.facts.get("base_roots", 0) for op in ops)
    metrics = layer_metrics(tracer, traced.spent, base_roots, traced.stdout_bytes)
    metrics["trace_overhead_s"] = traced.spent - plain.spent
    out = Path(".bench_trace")
    out.mkdir(exist_ok=True)
    (out / f"{workload.name}-{seed}.json").write_text(json.dumps(tracer.export()))
    st = spans.self_times(tracer.spans)
    notes = [f"plain pass {plain.spent:.3f} s, traced pass {traced.spent:.3f} s"]
    notes += [
        f"{name:40s} calls {e['calls']:>9d}  self {e['self_s']:9.4f} s  {e['self_s'] / traced.spent:6.1%} of wall"
        for name, e in sorted(st.items(), key=lambda kv: -kv[1]["self_s"])
    ]
    failed = plain.failed + traced.failed
    return metrics, plain.attempted + traced.attempted, failed, notes


def layer_metrics(tracer: spans.Tracer, wall: float, base_roots: int, stdout_bytes: int) -> dict:
    st = spans.self_times(tracer.spans)
    c = tracer.counts
    m: dict[str, float] = {"cli.stdout_bytes": stdout_bytes}
    for mod, names in spans.SPANNED.items():
        for fname in names:
            key = f"{mod}.{fname}"
            entry = st.get(key, {"calls": 0, "self_s": 0.0})
            m[key + ".calls"] = entry["calls"]
            m[key + ".self_s"] = entry["self_s"]
            m[key + ".errors"] = c[key + ".errors"]
    for mod, names in spans.COUNTED.items():
        for fname in names:
            m[f"{mod}.{fname}.calls"] = c[f"{mod}.{fname}.calls"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lifts = ("unique", "multiple", "none")
    m.update({f"hensel.lift_solution.{k}": c[f"hensel.lift_solution.{k}"] for k in lifts})
    m["construct.from_generator.kept_ratio"] = ratio(
        c["construct.from_generator.kept"], c["construct.from_generator.walked"]
    )
    m["construct.exceptional_t.calls_per_base_root"] = ratio(m["construct.exceptional_t.calls"], base_roots)
    m["modarith.factorize.distinct_ratio"] = ratio(len(tracer.factorized), m["modarith.factorize.calls"])
    m["hensel.level1.hit_ratio"] = ratio(c["hensel.level1.hits"], c["hensel.level1.scanned"])
    for mod in spans.MODULES:
        busy = sum(e["self_s"] for name, e in st.items() if name.startswith(mod + "."))
        m[f"{mod}.share"] = busy / wall
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "primroots" / "__init__.py").is_file():
        print(f"error: no primroots package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import primroots
    from primroots import oracle

    if Path(primroots.__file__).resolve().parent != (src / "primroots").resolve():
        print(f"error: primroots imported from {primroots.__file__}, not {src}", file=sys.stderr)
        return 2

    runner = Runner(src)
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup(runner)
    if args.trace:
        metrics, attempted, failed, notes = traced_run(workload, args.seed, runner, oracle)
        units = dict(PER_LAYER)
    else:
        metrics, attempted, failed, notes = timed_run(workload, args.seed, args.seconds, runner, oracle)
        metrics["setup_s"] = setup_s
        units = dict(END_TO_END)
    print(f"workload {workload.name}, seed {args.seed}, closed loop, 1 client, "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}")
    for line in notes:
        print("  " + line)
    print(f"  error_ratio {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
