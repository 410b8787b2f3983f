"""Benchmark for hanoiseq: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload bulk-prefix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30      # summary table

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One process, one thread.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The line before it, ``context {...}``, carries the sample
counts, ``fail_ratio``, the first failures and ``host.ref_loop_s``.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per run; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("bulk-prefix", "oracle-checks", "point-queries")
MIN_PASSES = 3
SETUP_REPEATS = 7
SETUP_CODE = "import hanoiseq, hanoiseq.cli"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "symbols_per_s": "symbols/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "req_per_s": "requests/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s", "cli.requests": "count", "cli.stdout_bytes": "bytes",
    "cli.exit_2": "count", "cli.tracebacks": "count",
    "cli.solve_used_ratio": "ratio", "cli.z_used_ratio": "ratio",
    "words.self_s": "s", "words.symbols": "count", "words.render_s": "s",
    "words.bytes_per_symbol": "bytes/symbol",
    "catalog.self_s": "s", "catalog.calls": "count", "catalog.symbols": "count",
    "toeplitz.self_s": "s", "toeplitz.symbols": "count",
    "classicseq.self_s": "s", "classicseq.terms": "count",
    "automaton.self_s": "s", "automaton.eval_calls": "count",
    "automaton.eval_self_s": "s", "automaton.digits": "count",
    "automaton.kernel_s": "s", "automaton.kernel_classes": "count",
    "hanoi.self_s": "s", "hanoi.bfs_s": "s", "hanoi.bfs_graph_states": "count",
    "hanoi.simulate_s": "s", "hanoi.moves_replayed": "count", "hanoi.olive_s": "s",
    "hanoi.squarefree_s": "s", "hanoi.periods_scanned": "count",
    "hanoi.census_s": "s", "hanoi.census_windows": "count",
    "nonuniform.self_s": "s", "nonuniform.construct_s": "s",
    "nonuniform.validate_s": "s", "nonuniform.symbols_validated": "count",
    "algebra.self_s": "s", "algebra.evaluate_s": "s", "algebra.search_s": "s",
    "algebra.unknowns": "count", "algebra.equations": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}


def ref_loop_s() -> float:
    """Time of a fixed pure-Python loop: context for machine drift only."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def setup_s() -> tuple[float, int]:
    """Median time for a fresh interpreter to import the package and CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


class Tally:
    """Outcomes of the operations run so far."""

    def __init__(self):
        self.attempted = self.raised = self.mismatched = 0
        self.examples: list[str] = []
        self.cli = dict.fromkeys(("requests", "stdout_bytes", "exit_2", "tracebacks"), 0)

    @property
    def failed(self) -> int:
        return self.raised + self.mismatched

    def note(self, op, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(f"{op.category} {' '.join(op.argv)}: {text}".strip())


def run_pass(ops, tally: Tally, spans=None) -> tuple[float, list[float]]:
    """Run every operation once, recording into the `spans` tracer if given.
    Returns the pass wall time and the process CPU time of each operation's
    call, which leaves out the time the host kept the process off a CPU."""
    times = []
    start = time.perf_counter()
    root = spans.open(spans.name_id(f"{tracer.HARNESS}.pass")) if spans else None
    for k, op in enumerate(ops):
        if spans:
            spans.request_id = k
            span = spans.open(spans.name_id(f"{tracer.HARNESS}.{op.category}"))
        t0 = time.process_time()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation; the run goes on
            times.append(time.process_time() - t0)
            tally.raised += 1
            tally.note(op, f"raised {type(exc).__name__}: {exc}")
            result = exc
        else:
            times.append(time.process_time() - t0)
            try:
                observed = op.observe(result)
            except Exception as exc:  # a result of the wrong shape is a mismatch
                observed = f"unobservable result ({type(exc).__name__}: {exc})"
            if observed != op.expected:
                tally.mismatched += 1
                tally.note(op, f"got {observed!r}, expected {op.expected!r}")
        tally.attempted += 1
        if op.argv:
            tally.cli["requests"] += 1
            if isinstance(result, Exception):
                tally.cli["tracebacks"] += 1
            else:
                tally.cli["stdout_bytes"] += len(result[1])
                tally.cli["exit_2"] += result[0] == 2
        if spans:
            spans.close(span)
    if spans:
        spans.request_id = -1
        spans.close(root)
    return time.perf_counter() - start, times


def keep_going(walls, started: float, seconds: float) -> bool:
    """At least MIN_PASSES passes, then stop nearest to `seconds`."""
    elapsed = time.perf_counter() - started
    return len(walls) < MIN_PASSES or elapsed + walls[-1] / 2 < seconds


def end_to_end(ops, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Every pass replays the same operations.  wall_s is the median pass;
    the request quantiles pool the CPU time of every operation of every
    pass, so a cost that lands on a different request in each pass still
    counts, while a stretch the host kept the process waiting does not."""
    setup, setup_n = setup_s()
    walls: list[float] = []
    latencies: list[float] = []
    by_category: dict[str, float] = {}
    started = time.perf_counter()
    while keep_going(walls, started, seconds):
        wall, times = run_pass(ops, tally)
        walls.append(wall)
        latencies += times
        for op, t in zip(ops, times):
            by_category[op.category] = by_category.get(op.category, 0.0) + t
    wall = statistics.median(walls)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    values = {
        "setup_s": setup,
        "wall_s": wall,
        "symbols_per_s": sum(op.symbols for op in ops) / wall,
        "req_p50_ms": cuts[49] * 1e3,
        "req_p99_ms": cuts[98] * 1e3,
        "req_per_s": len(ops) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    samples = dict.fromkeys(END_TO_END, len(walls))
    samples.update(setup_s=setup_n, req_p50_ms=len(latencies),
                   req_p99_ms=len(latencies), peak_rss_mb=1)
    context = {"samples": samples, "passes": len(walls),
               "category_cpu_s": {c: t / len(walls) for c, t in by_category.items()}}
    return values, context


def per_layer(ops, seconds: float, tally: Tally, trace_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer numbers are per pass."""
    import tracemalloc

    from hanoiseq import catalog

    spans = tracer.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started
                         + (plain[-1] + traced[-1]) / 2 < seconds):
        plain.append(run_pass(ops, tally)[0])
        with tracer.instrument(spans):
            traced.append(run_pass(ops, tally, spans)[0])
    passes = len(traced)
    totals = tracer.summarize(spans)
    values = {name: totals.get(name, 0.0) / passes for name in PER_LAYER}
    # both kinds of pass send the same requests
    values.update({f"cli.{key}": count / (2 * passes) for key, count in tally.cli.items()})

    def ratio(prefix):
        used = totals.get(f"{prefix}_used", 0.0)
        made = totals.get(f"{prefix}_materialized", 0.0)
        return used / made if made else 0.0

    values["cli.solve_used_ratio"] = ratio("cli.solve")
    values["cli.z_used_ratio"] = ratio("cli.z")
    length, name = spans.largest_prefix
    if length:
        tracemalloc.start()
        catalog.catalog_prefix(name, length)
        values["words.bytes_per_symbol"] = tracemalloc.get_traced_memory()[1] / length
        tracemalloc.stop()
    values["trace.wall_s"] = statistics.fmean(traced)
    values["trace.untraced_wall_s"] = statistics.fmean(plain)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    spans.write_spans(trace_path)
    unattributed = sum(traced) - totals["trace.self_sum_s"]
    context = {"traced_passes": passes, "untraced_passes": len(plain),
               "spans_file": str(trace_path.relative_to(ROOT)),
               "unattributed_s_per_pass": unattributed / passes,
               "largest_prefix": [name, length]}
    return values, context


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    import workloads

    ref = json.loads(REFERENCE.read_text())
    ops = workloads.build_ops(workload, seed, ref)
    tally = Tally()
    context = {"workload": workload, "seed": seed, "host.ref_loop_s": ref_loop_s(),
               "reference_commit": ref["commit"]}
    if trace:
        path = TRACE_DIR / f"spans-{workload}-seed{seed}.tsv"
        values, extra = per_layer(ops, seconds, tally, path)
        units = PER_LAYER
    else:
        values, extra = end_to_end(ops, seconds, tally)
        units = END_TO_END
    context.update(extra)
    context["fail_ratio"] = tally.failed / tally.attempted
    context["failures"] = tally.examples
    result = {"correct": tally.mismatched == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, context


def table(results: dict) -> str:
    rows = []
    for workload, (result, context) in results.items():
        samples = context.get("samples", {})
        rows.append(f"{workload}: attempted {result['attempted']}, failed "
                    f"{result['failed']}, fail_ratio {context['fail_ratio']:.4f}, "
                    f"host.ref_loop_s {context['host.ref_loop_s']:.3f}")
        for name, metric in result["metrics"].items():
            n = f"  n={samples[name]}" if name in samples else ""
            rows.append(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}{n}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hanoiseq" / "__init__.py").is_file():
        print(f"error: no hanoiseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hanoiseq
    if Path(hanoiseq.__file__).resolve().parent != SRC / "hanoiseq":
        print(f"error: imported hanoiseq from {hanoiseq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    print(table(results))
    if args.workload == "all":
        print(json.dumps({name: result for name, (result, _) in results.items()}))
    else:
        result, context = results[args.workload]
        print("context " + json.dumps(context))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
