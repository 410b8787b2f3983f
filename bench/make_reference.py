"""Write bench/reference.json from the code of the current commit.

    python3 bench/make_reference.py

Run once, at the commit whose behaviour the benchmark pins; the commit is
recorded in the file.  It refuses to run when ``src/`` has uncommitted
changes.  The reference holds:

* point-queries: exit code and stdout digest of every request the mix can
  send.  A request that raises records "exit 2, empty stdout" instead,
  which is what the CLI contract asks of it, and is listed under
  ``raised_at_seed``; it counts as failed until the program is fixed.
* bulk-prefix: digests of every catalog entry rendered at every prefix
  length the seed can pick, of the width-4 censuses and of the CLI renders.
* oracle-checks: known answers worked out here from closed forms, not by
  the code under test; the script checks that the code agrees.

Finally it runs every workload on enough seeds to cover every choice a
seed can make and requires that only the ``raised_at_seed`` requests fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hanoiseq  # noqa: E402
from hanoiseq import catalog, hanoi  # noqa: E402

import run  # noqa: E402
import workloads as w  # noqa: E402


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def text_digest(name: str, length: int) -> str:
    return w.digest(catalog.catalog_prefix(name, length).text())


def cli_reference(argv, raised: dict) -> list:
    try:
        code, out = w.run_cli(argv)
    except Exception as exc:
        raised[w.query_key(argv)] = type(exc).__name__
        return [2, w.digest("")]
    return [code, w.digest(out)]


def bulk_reference(raised: dict) -> dict:
    prefix = {f"{name}@{n}": text_digest(name, n)
              for n in w.BULK_LENGTHS for name in w.CATALOG_NAMES}
    for n in w.BULK_LENGTHS:
        for name in w.CLASSICAL_PRESENTATIONS:
            assert prefix[f"{name}@{n}"] == prefix[f"classical-hanoi@{n}"], name
        assert prefix[f"z-nonuniform@{n}"] == prefix[f"z-uniform@{n}"]
    census = {f"{name}@{n}": w.digest(w.census_text(hanoi.factor_census(
                  catalog.catalog_prefix(name, n), w.CENSUS_WIDTH)))
              for n in w.BULK_LENGTHS for name in w.CLASSICAL_PRESENTATIONS}
    renders = [w.render_argv(name, "text") for name in w.CLASSICAL_PRESENTATIONS]
    renders.append(w.render_argv(w.JSON_NAME, "json"))
    render = {w.query_key(argv): cli_reference(argv, raised) for argv in renders}
    return {"prefix_sha256": prefix, "census_sha256": census, "render": render}


def oracle_reference() -> dict:
    cyclic = w.cyclic_optimal(w.BFS_CYCLIC_DISKS)
    # the cyclic move sequence completes the tower at the optimal step
    trace = hanoi.simulate(catalog.catalog_prefix("cyclic-hanoi", 2 * cyclic["III"]),
                           w.BFS_CYCLIC_DISKS, hanoi.CYCLIC)
    step, _, peg = trace.event_for(w.BFS_CYCLIC_DISKS)
    assert step == cyclic[peg], (step, peg, cyclic)
    olive_steps = 2 ** w.OLIVE_DISKS - 1
    return {
        "bfs_optimal": {
            **{f"classical/{w.BFS_CLASSICAL_DISKS}/{t}": 2 ** w.BFS_CLASSICAL_DISKS - 1
               for t in ("II", "III")},
            f"lazy/{w.BFS_LAZY_DISKS}/III": 3 ** w.BFS_LAZY_DISKS - 1,
            **{f"cyclic/{w.BFS_CYCLIC_DISKS}/{t}": cyclic[t] for t in ("II", "III")},
        },
        "cyclic_sequence_completion": {"disks": w.BFS_CYCLIC_DISKS, "step": step,
                                       "peg": peg},
        "verify_classical_prefix": {str(d): True for d in w.VERIFY_DISKS},
        # the alternating solver reproduces the classical prefix
        "olive_sha256": text_digest("classical-hanoi", olive_steps),
        # the classical sequence is squarefree; the lazy one starts
        # a b a B A b a b a, whose first square is "b a b a" at position 5
        "first_square": {"classical": None, "lazy": [5, 2]},
        "relation_residue_zero": True,
        # X(1+X) F^2 + (1+X) F + 1 = 0 for the period-doubling series over F_2
        "period_doubling_relation": [[1, 0, 0], [1, 1, 0], [0, 1, 1]],
        # the 2-kernel of period-doubling d is {d, 1-d, 1, 0}; of Thue-Morse t, {t, 1-t}
        "kernel_classes": {"period-doubling": 4, "thue-morse": 2},
        "automaton_first_mismatch": None,
        "validation_failures": [],
    }


def check_solve_moves() -> None:
    """The computed move counts behind symbols_per_s match what
    `hanoi solve` prints."""
    for argv in w.query_pool()["solve"]:
        if "--format" not in argv:
            _, out = w.run_cli(argv)
            moves = next(line for line in out.splitlines() if line.startswith("moves: "))
            assert int(moves.split()[1]) == w.query_symbols(argv), (argv, moves)


def covering_seeds(params, limit: int = 200) -> list[int]:
    """Seeds that, together, make every choice each parameter can take."""
    seen: set = set()
    seeds = []
    for seed in range(limit):
        choices = set(params(seed).items())
        if not choices <= seen:
            seeds.append(seed)
            seen |= choices
    return seeds


def self_check(reference: dict) -> None:
    raised = set(reference["raised_at_seed"])
    plans = {"bulk-prefix": covering_seeds(w.bulk_params),
             "oracle-checks": covering_seeds(w.oracle_params),
             "point-queries": [0]}
    for workload, seeds in plans.items():
        for seed in seeds:
            ops = w.build_ops(workload, seed, reference)
            tally = run.Tally()
            run.run_pass(ops, tally)
            allowed = sum(w.query_key(op.argv) in raised for op in ops)
            assert tally.mismatched == 0 and tally.raised == allowed, (
                workload, seed, tally.examples)
            print(f"self-check {workload} seed {seed}: {tally.attempted} ops, "
                  f"{tally.raised} raised as recorded", file=sys.stderr)


def main() -> int:
    if git("status", "--porcelain", "--", "src"):
        print("error: src/ has uncommitted changes", file=sys.stderr)
        return 2
    raised: dict[str, str] = {}
    queries = {w.query_key(argv): cli_reference(argv, raised)
               for pool in w.query_pool().values() for argv in pool}
    reference = {
        "commit": git("rev-parse", "HEAD"),
        "generator": "bench/make_reference.py",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "hanoiseq": hanoiseq.__version__,
        "bulk-prefix": bulk_reference(raised),
        "oracle-checks": oracle_reference(),
        "point-queries": queries,
        "raised_at_seed": raised,
    }
    check_solve_moves()
    self_check(reference)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(ROOT)} at {reference['commit']}; "
          f"{len(queries)} requests, {len(raised)} raised", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
