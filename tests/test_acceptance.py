"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run pytest with -s or -v to see them)."""

import time

import numpy as np
import pytest

from hanoiseq.algebra import (evaluate_relation, find_algebraic_relation,
                              period_doubling_relation, series_from_sequence)
from hanoiseq.automaton import dfao_from_uniform_morphism
from hanoiseq.catalog import HANOI_ALPHABET, catalog_prefix, morphic_entry
from hanoiseq.classicseq import (derive_T, derive_U, derive_V, derive_Z,
                                 doublefree_exhaustive, doublefree_oracle)
from hanoiseq.cli import run
from hanoiseq.hanoi import (CLASSICAL, CYCLIC, LAZY, bfs_optimal,
                            factor_census, simulate, squarefree_check,
                            verify_classical_prefix)
from hanoiseq.nonuniform import construct_nonuniform, validation_failures
from hanoiseq.toeplitz import ToeplitzSpec, toeplitz_expand

UNIFORM_NAMES = ("classical-hanoi", "lazy-hanoi", "period-doubling",
                 "thue-morse", "z-uniform")

S16 = "a C b a c B a C b A c b a C b a"
FIVE_TRIPLES = {"a C b", "a c B", "A c b", "a c b", "A c B"}
EIGHT_QUADRUPLES = {"a b a B", "a b A B", "a B A b", "a B A B",
                    "A b a b", "A B a b", "A B A b", "A B A B"}


class _Timer:
    def __init__(self, number, description, limit):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)")
            print(f"ACCEPTANCE {self.number:02d} PASS "
                  f"({elapsed:.2f}s < {self.limit}s): {self.description}")
        return False


def test_criterion_01_first_moves_via_cli(capsys):
    with _Timer(1, "CLI generate emits the canonical first 16 moves", 1):
        assert run(["generate", "classical-hanoi", "--length", "16"]) == 0
        assert capsys.readouterr().out == S16 + "\n"


def test_criterion_02_prefixes_solve_the_puzzle():
    with _Timer(2, "2^N-1 prefixes rebuild the tower on II/III for N <= 16", 10):
        for disks in range(1, 17):
            assert verify_classical_prefix(disks), disks


def test_criterion_03_optimality():
    with _Timer(3, "breadth-first optimum is 2^N-1 for N <= 10", 30):
        for disks in range(1, 11):
            target = "II" if disks % 2 else "III"
            length, _ = bfs_optimal(CLASSICAL, disks, "I", target)
            assert length == 2 ** disks - 1, disks


def test_criterion_04_toeplitz_equals_fixed_point():
    with _Timer(4, "period-12 hole pattern equals the morphic sequence at 10^5", 5):
        spec = ToeplitzSpec.from_tokens("a C b . c B a . b A c .",
                                        alphabet=HANOI_ALPHABET)
        assert toeplitz_expand(spec, 10 ** 5) == \
            catalog_prefix("classical-hanoi", 10 ** 5)


def test_criterion_05_projections_and_doublefree_oracle():
    with _Timer(5, "T, U, V opening rows and the double-free maximum", 30):
        word15 = catalog_prefix("classical-hanoi", 15)
        assert derive_T(word15).text() == "1 0 1 1 1 0 1 0 1 0 1 1 1 0 1"
        u15 = derive_U(word15)
        assert u15.values.tolist() == [1, 1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 9, 10]
        assert derive_V(u15).text() == "1 1 0 1 0 0 1 1 0 0 1 0 1 1 0"
        u24 = derive_U(catalog_prefix("classical-hanoi", 24))
        for n in range(1, 25):
            assert doublefree_oracle(n) == u24[n - 1], n
        for n in range(1, 21):
            assert doublefree_exhaustive(n) == u24[n - 1], n


def test_criterion_06_variant_sequences_solve_their_puzzles():
    with _Timer(6, "lazy and cyclic sequences transfer N <= 8 disks optimally", 60):
        for disks in range(1, 9):
            for variant, name in ((CYCLIC, "cyclic-hanoi"), (LAZY, "lazy-hanoi")):
                trace = simulate(catalog_prefix(name, 8 * 3 ** disks),
                                 disks, variant)
                event = trace.event_for(disks)
                assert event is not None, (name, disks)
                step, _, peg = event
                assert step == bfs_optimal(variant, disks, "I", peg)[0], \
                    (name, disks)


def test_criterion_07_nonuniform_presentations_and_censuses():
    with _Timer(7, "hand-built non-uniform morphisms and the block censuses", 10):
        for name in ("classical-hanoi", "lazy-hanoi"):
            assert morphic_entry(f"{name}-nonuniform").prefix(10 ** 4) == \
                morphic_entry(name).prefix(10 ** 4)
        triples = factor_census(catalog_prefix("classical-hanoi", 2 ** 12),
                                3, aligned=True)
        assert {b.text() for b in triples} == FIVE_TRIPLES
        quadruples = factor_census(catalog_prefix("lazy-hanoi", 3 ** 8),
                                   4, aligned=True)
        assert {b.text() for b in quadruples} <= EIGHT_QUADRUPLES


def test_criterion_08_squarefreeness():
    with _Timer(8, "no square in 10^4 classical moves; lazy square at (5, 2)", 60):
        clean = catalog_prefix("classical-hanoi", 10 ** 4)
        assert squarefree_check(clean, 5000) is None
        lazy9 = catalog_prefix("lazy-hanoi", 9)
        assert lazy9.text() == "a b a B A b a b a"
        assert squarefree_check(lazy9, 4) == (5, 2)


def test_criterion_09_two_letter_extension():
    with _Timer(9, "uniform-to-non-uniform construction validates at 2^14", 30):
        for name in UNIFORM_NAMES:
            spec = morphic_entry(name)
            construction = construct_nonuniform(spec.morphism, spec.start)
            assert len(construction.morphism.domain.symbols) == \
                len(spec.morphism.domain.symbols) + 2, name
            assert not validation_failures(construction, 2 ** 14), name


def test_criterion_10_automaton_evaluation():
    with _Timer(10, "digit automaton agrees with prefixes for n < 2^16", 10):
        for name in UNIFORM_NAMES:
            spec = morphic_entry(name)
            dfao = dfao_from_uniform_morphism(spec)
            terms = dfao.eval_many(np.arange(2 ** 16))
            mismatch = terms.first_mismatch(spec.prefix(2 ** 16))
            if mismatch is not None:
                pytest.fail(f"{name}: mismatch at n={mismatch}")


def test_criterion_11_series_relation():
    with _Timer(11, "quadratic series relation holds and is recovered", 60):
        relation = period_doubling_relation()
        big = series_from_sequence(catalog_prefix("period-doubling", 4096),
                                   2, 4096)
        assert evaluate_relation(relation, big).is_zero()
        small = series_from_sequence(catalog_prefix("period-doubling", 512),
                                     2, 512)
        found = find_algebraic_relation(small, 2, 2)
        assert found is not None
        assert found.normalized().polys == relation.normalized().polys
        assert find_algebraic_relation(small, 1, 2) is None


def test_criterion_12_z_presentations_agree():
    with _Timer(12, "the three Z presentations agree on 10^4 terms", 5):
        length = 10 ** 4
        z = derive_Z(catalog_prefix("thue-morse", 4 * length + 64))
        assert len(z) >= length
        derived = z.values[:length].tolist()
        assert derived[:7] == [2, 1, 0, 2, 0, 1, 2]
        non = [int(t) for t in catalog_prefix("z-nonuniform", length).tokens()]
        uni = [int(t) for t in catalog_prefix("z-uniform", length).tokens()]
        assert derived == non == uni
