"""Inputs, operations and reference checks for the three benchmark workloads.

A workload is a list of operations, one pass.  Each operation calls into
``hanoiseq`` (the timed part), then turns the result into an observation
that is compared with the checked-in reference (the untimed part).  The
seed picks the inputs; it hardly changes how much work a pass does, so runs
with different seeds measure the same amount of work:

* ``bulk-prefix``   fixed battery; the seed picks the prefix length from
                    eight lengths just below 2^18 and which presentation of
                    the classical sequence is rendered as text and censused.
* ``oracle-checks`` fixed battery; the seed picks target pegs, one of two
                    equivalent presentations and the kernel sequence.
* ``point-queries`` a mix of short CLI requests: every request category
                    sends a fixed number of requests per pass, spread
                    evenly over its pool; the seed picks the extra copies
                    and the order.

Library calls go through module attributes (``catalog.catalog_prefix``),
never through names bound at import time, so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable

from hanoiseq import (algebra, automaton, catalog, classicseq, cli, hanoi,
                      nonuniform)

# Catalog names as the seed commit ships them; listed here rather than read
# from the program so that a renamed or dropped entry shows as a failure.
CATALOG_NAMES = (
    "classical-hanoi", "classical-hanoi-nonuniform", "classical-hanoi-toeplitz",
    "cyclic-hanoi", "fibonacci", "lazy-hanoi", "lazy-hanoi-nonuniform",
    "paperfolding", "period-doubling", "thue-morse", "z-nonuniform", "z-uniform")
UNIFORM_NAMES = ("classical-hanoi", "lazy-hanoi", "period-doubling",
                 "thue-morse", "z-uniform")
CLASSICAL_PRESENTATIONS = ("classical-hanoi", "classical-hanoi-nonuniform",
                           "classical-hanoi-toeplitz")

# bulk-prefix sizes
BULK_LENGTHS = tuple(2 ** 18 - 97 * j for j in range(8))
RENDER_LENGTH = 10 ** 6
JSON_NAME = "classical-hanoi"
CENSUS_WIDTH = 4

# oracle-checks sizes
BFS_CLASSICAL_DISKS = 9
BFS_LAZY_DISKS = 8
BFS_CYCLIC_DISKS = 9
VERIFY_DISKS = (15, 16, 17)
OLIVE_DISKS = 15
OLIVE_TARGET = "II"  # where the classical prefix of 2^15-1 moves ends
SQUAREFREE_CAPPED = (150_000, 64)
SQUAREFREE_FULL = (7_000, 3_500)
RELATION_ORDER = 16_384
SEARCH_ORDERS = (512, 1024)
AUTOMATON_RANGE = 2 ** 14
VALIDATE_LENGTH = 2 ** 13
KERNEL_LENGTH, KERNEL_DEPTH = 2 ** 16, 10


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(argv) -> tuple[int, str]:
    """One in-process CLI request: (exit code, captured stdout).

    Exceptions other than SystemExit propagate: at the command line they
    would end in a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue()


@dataclass
class Op:
    """One operation: ``call`` is timed, ``observe`` maps its result to
    what is compared with ``expected``.  ``symbols`` is the computed number
    of sequence terms the operation asks the program for."""

    category: str
    call: Callable[[], Any]
    observe: Callable[[Any], Any]
    expected: Any
    symbols: int
    argv: tuple = ()


def _cli_observe(result):
    code, out = result
    return [code, digest(out)]


def cli_op(category: str, argv, expected, symbols: int) -> Op:
    return Op(category, lambda: run_cli(argv), _cli_observe, expected, symbols,
              tuple(argv))


def query_key(argv) -> str:
    return " ".join(argv)


# --------------------------------------------------------------- bulk-prefix

def bulk_params(seed: int) -> dict:
    rng = random.Random(f"bulk-prefix/{seed}")
    return {"length": rng.choice(BULK_LENGTHS),
            "text_name": rng.choice(CLASSICAL_PRESENTATIONS),
            "census_name": rng.choice(CLASSICAL_PRESENTATIONS)}


def render_argv(name: str, fmt: str) -> tuple[str, ...]:
    argv = ("generate", name, "--length", str(RENDER_LENGTH))
    return argv + (("--format", "json") if fmt == "json" else ())


def census_text(blocks) -> str:
    return "\n".join(sorted(b.text() for b in blocks))


def bulk_ops(seed: int, ref: dict) -> list[Op]:
    p = bulk_params(seed)
    n = p["length"]
    prefix_ref = ref["prefix_sha256"]
    kept = {}

    def materialize(name):
        def call():
            word = catalog.catalog_prefix(name, n)
            if name == "classical-hanoi":
                kept[name] = word
            return word.text()
        return call

    def derive_t():
        return classicseq.derive_T(kept["classical-hanoi"]).text()

    def derive_v():
        return classicseq.derive_V(classicseq.derive_U(kept.pop("classical-hanoi"))).text()

    def derive_z():
        # a thue-morse prefix of 2n+2 terms holds n+1 zeros, hence n gaps
        return classicseq.derive_Z(catalog.catalog_prefix("thue-morse", 2 * n + 2)).text()

    def census():
        word = catalog.catalog_prefix(p["census_name"], n)
        return census_text(hanoi.factor_census(word, CENSUS_WIDTH))

    ops = [Op("materialize", materialize(name), digest, prefix_ref[f"{name}@{n}"], n)
           for name in CATALOG_NAMES]
    ops += [
        # T is period-doubling; 0V is thue-morse; Z is z-uniform and z-nonuniform
        Op("derive", derive_t, digest, prefix_ref[f"period-doubling@{n}"], n),
        Op("derive", derive_v, lambda text: digest("0 " + text[:2 * n - 3]),
           prefix_ref[f"thue-morse@{n}"], 2 * n),
        Op("derive", derive_z, digest, prefix_ref[f"z-uniform@{n}"], 2 * n + 2),
        Op("census", census, digest,
           ref["census_sha256"][f"{p['census_name']}@{n}"], n),
    ]
    # the JSON render sets the peak memory of the run, which differs between
    # presentations, so it always renders the same one
    for fmt, name in (("text", p["text_name"]), ("json", JSON_NAME)):
        argv = render_argv(name, fmt)
        ops.append(cli_op("render", argv, ref["render"][query_key(argv)], RENDER_LENGTH))
    return ops


# ------------------------------------------------------------- oracle-checks

def oracle_params(seed: int) -> dict:
    rng = random.Random(f"oracle-checks/{seed}")
    return {"classical_target": rng.choice(("II", "III")),
            "cyclic_target": rng.choice(("II", "III")),
            "capped_name": rng.choice(("classical-hanoi", "classical-hanoi-toeplitz")),
            "full_name": rng.choice(("lazy-hanoi", "lazy-hanoi-nonuniform")),
            "search_order": rng.choice(SEARCH_ORDERS),
            "kernel_name": rng.choice(("period-doubling", "thue-morse"))}


def oracle_ops(seed: int, ref: dict) -> list[Op]:
    p = oracle_params(seed)

    def bfs(variant, disks, target):
        return lambda: hanoi.bfs_optimal(variant, disks, "I", target)

    def bfs_length(result):
        length, word = result
        return [length, len(word)]

    def squarefree(name, length, max_period):
        return lambda: hanoi.squarefree_check(catalog.catalog_prefix(name, length), max_period)

    def relation():
        word = catalog.catalog_prefix("period-doubling", RELATION_ORDER)
        series = algebra.series_from_sequence(word, 2, RELATION_ORDER)
        return algebra.evaluate_relation(algebra.period_doubling_relation(), series).is_zero()

    def search():
        order = p["search_order"]
        series = algebra.series_from_sequence(
            catalog.catalog_prefix("period-doubling", order), 2, order)
        found = algebra.find_algebraic_relation(series, 2, 2)
        return None if found is None else found.normalized().polys

    def automaton_check(name):
        def call():
            dfao = automaton.dfao_from_uniform_morphism(catalog.morphic_entry(name))
            tokens = catalog.catalog_prefix(name, AUTOMATON_RANGE).tokens()
            return next((i for i in range(AUTOMATON_RANGE)
                         if dfao.eval(i) != tokens[i]), None)
        return call

    def construct(name):
        def call():
            spec = catalog.morphic_entry(name)
            built = nonuniform.construct_nonuniform(spec.morphism, spec.start)
            return nonuniform.validation_failures(built, VALIDATE_LENGTH)
        return call

    def kernel():
        word = catalog.catalog_prefix(p["kernel_name"], KERNEL_LENGTH)
        return automaton.kernel_explore(word, 2, KERNEL_DEPTH).class_count

    def moves(variant, disks, target):
        return ref["bfs_optimal"][f"{variant}/{disks}/{target}"]

    def hit_list(hit):
        return None if hit is None else list(hit)

    def padded(polys):
        return None if polys is None else [list(poly) + [0] * (3 - len(poly))
                                           for poly in polys]

    capped_len, capped_period = SQUAREFREE_CAPPED
    full_len, full_period = SQUAREFREE_FULL
    ct, yt = p["classical_target"], p["cyclic_target"]
    olive_steps = 2 ** OLIVE_DISKS - 1
    ops = [
        Op("bfs", bfs(hanoi.CLASSICAL, BFS_CLASSICAL_DISKS, ct), bfs_length,
           [moves("classical", BFS_CLASSICAL_DISKS, ct)] * 2, 0),
        Op("bfs", bfs(hanoi.LAZY, BFS_LAZY_DISKS, "III"), bfs_length,
           [moves("lazy", BFS_LAZY_DISKS, "III")] * 2, 0),
        Op("bfs", bfs(hanoi.CYCLIC, BFS_CYCLIC_DISKS, yt), bfs_length,
           [moves("cyclic", BFS_CYCLIC_DISKS, yt)] * 2, 0),
    ]
    ops += [Op("simulate", lambda d=d: hanoi.verify_classical_prefix(d), bool,
               ref["verify_classical_prefix"][str(d)], 2 ** d - 1) for d in VERIFY_DISKS]
    ops += [
        Op("olive", lambda: hanoi.olive_solve(OLIVE_DISKS, OLIVE_TARGET).text(), digest,
           ref["olive_sha256"], olive_steps),
        Op("squarefree", squarefree(p["capped_name"], capped_len, capped_period),
           hit_list, ref["first_square"]["classical"], capped_len),
        Op("squarefree", squarefree(p["full_name"], full_len, full_period),
           hit_list, ref["first_square"]["lazy"], full_len),
        Op("relation", relation, bool, ref["relation_residue_zero"], RELATION_ORDER),
        Op("search", search, padded, ref["period_doubling_relation"], p["search_order"]),
        Op("kernel", kernel, int, ref["kernel_classes"][p["kernel_name"]], KERNEL_LENGTH),
    ]
    ops += [Op("automaton", automaton_check(name), lambda bad: bad,
               ref["automaton_first_mismatch"], AUTOMATON_RANGE) for name in UNIFORM_NAMES]
    ops += [Op("nonuniform", construct(name), list, ref["validation_failures"],
               VALIDATE_LENGTH) for name in UNIFORM_NAMES]
    return ops


# ------------------------------------------------------------- point-queries

EVAL_NAMES = UNIFORM_NAMES  # the automaton needs a uniform morphism
CENSUS_NAMES = ("classical-hanoi", "cyclic-hanoi", "fibonacci", "lazy-hanoi",
                "period-doubling", "thue-morse")
COMPARE_PAIRS = (("classical-hanoi", "classical-hanoi-toeplitz"),
                 ("classical-hanoi", "classical-hanoi-nonuniform"),
                 ("lazy-hanoi", "lazy-hanoi-nonuniform"),
                 ("z-nonuniform", "z-uniform"),
                 ("classical-hanoi", "lazy-hanoi"),
                 ("period-doubling", "thue-morse"))
VARIANTS = ("classical", "cyclic", "lazy")

# Requests sent per pass.  Nothing measured says how often each command is
# used, so the seven request categories get equal shares; the three edge
# categories together make up 66 of 1606 requests (4.1%), and
# "edge-disks0" alone is 22 (1.37%).
PER_CATEGORY = 220
PER_EDGE = 22
CATEGORIES = ("generate", "eval", "solve", "census", "derive", "compare",
              "christol-search")
EDGE_CATEGORIES = ("edge-unknown", "edge-negative", "edge-disks0")
PER_PASS = {**dict.fromkeys(CATEGORIES, PER_CATEGORY),
            **dict.fromkeys(EDGE_CATEGORIES, PER_EDGE)}
FORMATS = ((), ("--format", "json"))


def _eval_indices() -> list[int]:
    rng = random.Random("eval-indices")
    return [0, 1, 10 ** 18] + sorted(int(10 ** rng.uniform(0, 18)) for _ in range(21))


def query_pool() -> dict[str, list[tuple[str, ...]]]:
    """Every request the mix can send, by category.  Fixed, independent of
    the seed, so that the reference covers every mix."""
    pool = {
        "generate": [("generate", name, "--length", str(n)) + fmt
                     for name in CATALOG_NAMES
                     for n in (1, 8, 16, 64, 256, 512, 1000, 2048, 4096)
                     for fmt in FORMATS],
        "eval": [("eval", "--seq", name, "--index", str(i)) + fmt
                 for name in EVAL_NAMES for i in _eval_indices() for fmt in FORMATS],
        "solve": [("hanoi", "solve", "--variant", v, "--disks", str(d)) + fmt
                  for v in VARIANTS for d in range(1, 8) for fmt in FORMATS],
        "census": [("census", "--seq", name, "--width", str(w), "--length", str(n))
                   + aligned
                   for name in CENSUS_NAMES for w in range(1, 5) for n in (1024, 4096)
                   for aligned in ((), ("--aligned",))],
        "derive": [("derive", "--what", what, "--length", str(n)) + check
                   for what in "TUVZ" for n in (64, 512, 2048)
                   for check in ((), ("--check",))],
        "compare": [("compare", a, b, "--length", str(n))
                    for a, b in COMPARE_PAIRS for n in (64, 1024, 4096)],
        "christol-search": (
            [("christol", "search", "--seq", "period-doubling", "--order", str(n))
             for n in (128, 256, 512)]
            + [("christol", "search", "--seq", "thue-morse", "--coeff-degree", str(c),
                "--order", str(n)) for c in (2, 3) for n in (128, 256)]
            + [("christol", "search", "--seq", "paperfolding", "--order", str(n))
               for n in (128, 256)]),
        "edge-unknown": [("generate", "no-such-sequence", "--length", "8"),
                         ("eval", "--seq", "no-such-sequence", "--index", "3"),
                         ("census", "--seq", "no-such-sequence", "--width", "2"),
                         ("compare", "classical-hanoi", "no-such-sequence",
                          "--length", "8")],
        "edge-negative": [("generate", name, "--length", str(-n))
                          for name in ("classical-hanoi", "paperfolding", "fibonacci")
                          for n in (1, 5)],
        "edge-disks0": [("hanoi", "solve", "--variant", v, "--disks", "0") + fmt
                        for v in VARIANTS for fmt in FORMATS],
    }
    assert pool.keys() == PER_PASS.keys()
    return pool


def query_mix(seed: int) -> list[tuple[str, tuple[str, ...]]]:
    """(category, argv) for every request of one pass, in sending order.

    Each category sends every request of its pool equally often, give or
    take one; the seed picks which requests get the extra copy, and the
    order.  So the work per pass barely depends on the seed."""
    rng = random.Random(f"point-queries/{seed}")
    mix = []
    for category, entries in query_pool().items():
        whole, extra = divmod(PER_PASS[category], len(entries))
        mix += [(category, argv) for argv in entries * whole + rng.sample(entries, extra)]
    rng.shuffle(mix)
    return mix


def cyclic_optimal(disks: int) -> dict:
    """Optimal cyclic (I->II->III->I) transfer lengths from the recurrence
    Q_n = 2 R_{n-1} + 1 (one step along the cycle) and
    R_n = 2 R_{n-1} + Q_{n-1} + 2 (two steps)."""
    q = r = 0
    for _ in range(disks):
        q, r = 2 * r + 1, 2 * r + q + 2
    return {"II": q, "III": r}


def solve_moves(variant: str, disks: int) -> int:
    """Computed length of the solution `hanoi solve` prints, which stops
    where the variant's sequence first completes N disks: 2^N-1 moves
    (classical); (3^N-1)/2, the transfer I->II (lazy); and for cyclic the
    optimal transfer to peg III, or to II for one disk."""
    if disks < 1:
        return 0
    if variant == "classical":
        return 2 ** disks - 1
    if variant == "lazy":
        return (3 ** disks - 1) // 2
    return cyclic_optimal(disks)["II" if disks == 1 else "III"]


def query_symbols(argv) -> int:
    """Computed number of sequence terms a request asks for: the moves of
    a `hanoi solve`, --length (twice for `compare`, two sequences), --order,
    1 for `eval`, 0 for an invalid request."""
    args = dict(zip(argv, argv[1:]))
    if argv[:2] == ("hanoi", "solve"):
        return solve_moves(args["--variant"], int(args["--disks"]))
    if "--length" in args:
        return max(0, int(args["--length"])) * (2 if argv[0] == "compare" else 1)
    if "--order" in args:
        return int(args["--order"])
    return 1 if argv[0] == "eval" else 0


def query_ops(seed: int, ref: dict) -> list[Op]:
    return [cli_op(category, argv, ref[query_key(argv)], query_symbols(argv))
            for category, argv in query_mix(seed)]


def build_ops(workload: str, seed: int, ref: dict) -> list[Op]:
    build = {"bulk-prefix": bulk_ops, "oracle-checks": oracle_ops,
             "point-queries": query_ops}[workload]
    return build(seed, ref[workload])
