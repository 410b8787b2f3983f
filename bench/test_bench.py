"""Tests of the benchmark itself (not of hanoiseq).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


def test_mix_is_deterministic_per_seed():
    assert workloads.query_mix(7) == workloads.query_mix(7)
    assert workloads.query_mix(7) != workloads.query_mix(8)
    assert workloads.bulk_params(7) == workloads.bulk_params(7)
    assert workloads.oracle_params(7) == workloads.oracle_params(7)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_mix_gives_every_category_its_fixed_count(seed):
    mix = workloads.query_mix(seed)
    counts = {}
    for category, _ in mix:
        counts[category] = counts.get(category, 0) + 1
    assert counts == workloads.PER_PASS
    assert len(set(counts[c] for c in workloads.CATEGORIES)) == 1
    commands = {argv[0] for _, argv in mix}
    assert commands == {"generate", "eval", "hanoi", "census", "derive", "compare",
                        "christol"}
    disks0 = sum(category == "edge-disks0" for category, _ in mix)
    assert disks0 / len(mix) == 22 / 1606
    edges = sum(category.startswith("edge-") for category, _ in mix)
    assert 0.03 < edges / len(mix) < 0.05


def test_query_symbols_counts_what_each_request_asks_for():
    q = workloads.query_symbols
    assert q(("generate", "fibonacci", "--length", "4096")) == 4096
    assert q(("generate", "fibonacci", "--length", "-5")) == 0
    assert q(("compare", "thue-morse", "period-doubling", "--length", "64")) == 128
    assert q(("census", "--seq", "thue-morse", "--width", "2", "--length", "1024")) == 1024
    assert q(("eval", "--seq", "thue-morse", "--index", "10")) == 1
    assert q(("hanoi", "solve", "--variant", "classical", "--disks", "5")) == 31
    assert q(("hanoi", "solve", "--variant", "lazy", "--disks", "3")) == 13
    assert q(("hanoi", "solve", "--variant", "cyclic", "--disks", "2")) == 7
    assert q(("hanoi", "solve", "--variant", "cyclic", "--disks", "0")) == 0


def test_reference_covers_every_request_the_mix_can_send(reference):
    pool = workloads.query_pool()
    keys = {workloads.query_key(argv) for entries in pool.values() for argv in entries}
    assert keys == set(reference["point-queries"])
    assert set(reference["raised_at_seed"]) <= keys


def _failures(ops) -> int:
    tally = run.Tally()
    run.run_pass(ops, tally)
    return tally.failed


def test_tampered_point_query_reference_raises_fail_ratio(reference):
    ops = workloads.build_ops("point-queries", 3, reference)[:60]
    clean = _failures(ops)
    tampered = copy.deepcopy(reference)
    keys = {workloads.query_key(op.argv) for op in ops[:5]}
    for key in keys:
        code, digest = tampered["point-queries"][key]
        tampered["point-queries"][key] = [code, "0" * len(digest)]
    hit = sum(workloads.query_key(op.argv) in keys for op in ops)
    again = workloads.build_ops("point-queries", 3, tampered)[:60]
    assert _failures(again) == clean + hit


def test_tampered_known_answer_raises_fail_ratio(reference):
    def kernel_ops(ref):
        return [op for op in workloads.build_ops("oracle-checks", 5, ref)
                if op.category == "kernel"]
    assert _failures(kernel_ops(reference)) == 0
    tampered = copy.deepcopy(reference)
    for name in tampered["oracle-checks"]["kernel_classes"]:
        tampered["oracle-checks"]["kernel_classes"][name] += 1
    assert _failures(kernel_ops(tampered)) == 1


def test_instrument_restores_the_program_and_partitions_wall_time(reference):
    from hanoiseq import catalog, cli, words
    originals = (cli.run, cli.catalog_prefix, catalog.catalog_prefix,
                 vars(words.Word)["text"], vars(words.Word)["from_tokens"])
    ops = workloads.build_ops("point-queries", 3, reference)[:40]
    t = tracer.Tracer()
    with tracer.instrument(t):
        assert cli.catalog_prefix is catalog.catalog_prefix
        assert cli.catalog_prefix is not originals[1]
        wall, _ = run.run_pass(ops, run.Tally(), t)
    assert (cli.run, cli.catalog_prefix, catalog.catalog_prefix,
            vars(words.Word)["text"], vars(words.Word)["from_tokens"]) == originals
    totals = tracer.summarize(t)
    layers = sum(totals[f"{layer}.self_s"] for layer in tracer.LAYERS + (tracer.HARNESS,))
    assert layers == pytest.approx(totals["trace.self_sum_s"])
    assert totals["trace.self_sum_s"] == pytest.approx(wall, abs=1e-3)
    assert totals["cli.self_s"] > 0 and totals["catalog.calls"] > 0
    assert set(t.request) >= set(range(len(ops)))


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, reference, trace):
    build = workloads.build_ops
    monkeypatch.setattr(workloads, "build_ops",
                        lambda name, seed, ref: build(name, seed, ref)[:30])
    monkeypatch.setattr(run, "TRACE_DIR", BENCH.parent / ".bench_out" / "test")
    assert run.main(["--workload", "point-queries", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    context = json.loads(lines[-2].removeprefix("context "))
    assert context["fail_ratio"] == result["failed"] / result["attempted"]
    assert "host.ref_loop_s" in context


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "bulk-prefix", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
