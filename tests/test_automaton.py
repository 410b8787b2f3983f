import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from hanoiseq import automaton
from hanoiseq.automaton import (Dfao, NonUniformError,
                                dfao_from_uniform_morphism, kernel_explore)
from hanoiseq.catalog import BINARY_ALPHABET, morphic_entry
from hanoiseq.words import Word

UNIFORM_NAMES = ("classical-hanoi", "lazy-hanoi", "period-doubling",
                 "thue-morse", "z-uniform")


class TestDfaoConstruction:
    def test_classical_shape(self):
        spec = morphic_entry("classical-hanoi")
        dfao = dfao_from_uniform_morphism(spec)
        assert dfao == Dfao(spec) and dfao.spec is spec
        assert dfao.radix == 2

    def test_lazy_shape(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("lazy-hanoi"))
        assert [f.name for f in dataclasses.fields(dfao)] == ["spec"]
        assert dfao.radix == 3

    def test_nonuniform_rejected(self):
        with pytest.raises(NonUniformError):
            dfao_from_uniform_morphism(morphic_entry("fibonacci"))
        with pytest.raises(NonUniformError):
            Dfao(morphic_entry("z-nonuniform"))

    def test_coded_output(self):
        # the walk ends on state 4, and the coding sends 4 to 1
        spec = morphic_entry("z-uniform")
        n = spec.pure_prefix(64).tokens().index("4")
        dfao = Dfao(spec)
        assert dfao.eval(n) == "1"
        assert dfao.eval_many([n]) == spec.prefix(n + 1)[n:]


class TestDfaoEval:
    def test_known_terms(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("classical-hanoi"))
        assert dfao.eval(0) == "a"
        assert dfao.eval(5) == "B"
        assert dfao.eval(9) == "A"

    def test_negative_index(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("classical-hanoi"))
        with pytest.raises(ValueError):
            dfao.eval(-1)

    @pytest.mark.parametrize("name", UNIFORM_NAMES)
    def test_agrees_with_prefix(self, name):
        spec = morphic_entry(name)
        dfao = dfao_from_uniform_morphism(spec)
        prefix = spec.prefix(2 ** 10)
        assert all(dfao.eval(n) == prefix[n] for n in range(2 ** 10))
        assert dfao.eval_many(np.arange(2 ** 10)) == prefix

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", UNIFORM_NAMES)
    def test_eval_many_equals_eval(self, name, seed):
        dfao = dfao_from_uniform_morphism(morphic_entry(name))
        k = dfao.radix
        rng = random.Random(seed)
        # 0, every k^j - 1 up to 10^18 (all digits k - 1) and random n
        ns = [0] + [k ** j - 1 for j in range(1, 64) if k ** j - 1 <= 10 ** 18]
        ns += [10 ** 18] + [rng.randrange(10 ** rng.randint(1, 18)) for _ in range(300)]
        assert dfao.eval_many(np.array(ns)).tokens() == tuple(dfao.eval(n) for n in ns)

    def test_eval_many_of_nothing_is_empty(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("thue-morse"))
        assert len(dfao.eval_many(np.array([], dtype=np.int64))) == 0

    def test_eval_many_negative_index(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("thue-morse"))
        with pytest.raises(ValueError):
            dfao.eval_many(np.array([3, -1]))

    @pytest.mark.parametrize("name", UNIFORM_NAMES)
    def test_leading_zero_digits_are_harmless(self, name):
        # prolongability forces the 0-transition of the start state to loop,
        # so padding the digit string with leading zeros cannot matter
        spec = morphic_entry(name)
        morphism = spec.morphism
        dfao = dfao_from_uniform_morphism(spec)
        assert morphism.image(spec.start)[0] == spec.start
        ns = (0, 1, 7, 123)
        for n in ns:
            digits = []
            m = n
            while m:
                m, d = divmod(m, morphism.uniform_width)
                digits.append(d)
            digits += [0, 0, 0]  # pad at the significant end
            state = spec.start
            for d in reversed(digits):
                state = morphism.image(state)[d]
            term = spec.coding.image(state)[0] if spec.coding else state
            assert term == dfao.eval(n)
        assert dfao.eval_many(ns).tokens() == tuple(dfao.eval(n) for n in ns)


def _digit_map_monoid_size(name, max_len):
    # ground truth for kernel classes: distinct compositions of the maps
    # x -> image(x)[j], including the identity
    spec = morphic_entry(name)
    images = [img.indices for img in spec.morphism.images]
    width = spec.morphism.uniform_width
    n = len(images)
    generators = [tuple(images[x][j] for x in range(n)) for j in range(width)]
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    for _ in range(max_len):
        fresh = []
        for g in frontier:
            for gen in generators:
                comp = tuple(g[gen[x]] for x in range(n))
                if comp not in seen:
                    seen.add(comp)
                    fresh.append(comp)
        frontier = fresh
    return len(seen)


class TestKernelExplore:
    def test_period_doubling_four_classes(self, period_doubling_64k):
        report = kernel_explore(period_doubling_64k, 2, 8)
        assert report.class_count == 4
        assert not report.insufficient_evidence
        # the four classes, checked directly on the prefix: the sequence
        # itself, the all-ones row, its complement shift, the all-zeros row
        t = period_doubling_64k.indices
        quarter = len(t) // 4
        assert all(t[2 * n] == 1 for n in range(quarter))
        assert all(t[4 * n + 1] == 0 for n in range(quarter))
        assert all(t[4 * n + 3] == t[n] for n in range(quarter))
        assert all(t[2 * n + 1] == 1 - t[n] for n in range(quarter))

    def test_thue_morse_two_classes(self, thue_morse_64k):
        report = kernel_explore(thue_morse_64k, 2, 8)
        assert report.class_count == 2
        v = thue_morse_64k.indices
        quarter = len(v) // 4
        assert all(v[2 * n] == v[n] for n in range(quarter))
        assert all(v[2 * n + 1] == 1 - v[n] for n in range(quarter))

    def test_constant_sequence_single_class(self):
        word = Word.from_tokens(BINARY_ALPHABET, ["1"] * 4096)
        assert kernel_explore(word, 2, 6).class_count == 1
        assert kernel_explore(word, 3, 6).class_count == 1

    def test_classical_hanoi_stabilizes(self, classical_64k):
        # saturation happens at depth 5 (one map needs five digits);
        # the digit-map monoid is the independent oracle for the counts
        counts = {d: kernel_explore(classical_64k, 2, d).class_count
                  for d in (4, 5, 6, 8)}
        assert counts[5] == counts[6] == counts[8] == 14
        assert counts[4] == 13
        for depth in (4, 5, 8):
            assert counts[depth] == _digit_map_monoid_size("classical-hanoi", depth)

    def test_overlap_is_reported(self, period_doubling_64k):
        report = kernel_explore(period_doubling_64k, 2, 8)
        assert report.consistent_up_to == len(period_doubling_64k) // 8

    def test_insufficient_evidence_flagged(self):
        word = Word.from_tokens(BINARY_ALPHABET, "0 1 1 0")
        report = kernel_explore(word, 2, 8)
        assert report.insufficient_evidence

    def test_depth_past_the_prefix_costs_no_power_of_its_size(self):
        # radix^depth alone would be megabytes; every depth past the
        # prefix's bit length gives the report of that bit length
        word = Word.from_tokens(BINARY_ALPHABET, "0 1 1 0 1 0 0 1 1 0")
        tracemalloc.start()
        try:
            report = kernel_explore(word, 3, 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.insufficient_evidence
        assert report == dataclasses.replace(kernel_explore(word, 3, 4), depth=10 ** 7)

    def test_work_budget(self, thue_morse_64k, monkeypatch):
        # thue-morse is 2-automatic but not 3-automatic: its radix-3 kernel
        # keeps opening classes, while the radix-2 one closes at two
        monkeypatch.setattr(automaton, "_KERNEL_WORK_MAX", 1 << 22)
        assert kernel_explore(thue_morse_64k, 2, 10).class_count == 2
        with pytest.raises(ValueError, match="kernel budget exceeded"):
            kernel_explore(thue_morse_64k, 3, 8)

    def test_budget_counts_the_fixed_cost_of_each_comparison(self, monkeypatch):
        # one-symbol overlaps: the work is comparisons times the fixed cost
        word = Word.from_tokens(BINARY_ALPHABET, "0 1")
        monkeypatch.setattr(automaton, "_KERNEL_WORK_MAX", automaton._COMPARISON_COST)
        with pytest.raises(ValueError, match="after 0 comparisons against 1 classes"):
            kernel_explore(word, 2, 1)

    def test_bad_arguments(self):
        word = Word.from_tokens(BINARY_ALPHABET, "0 1")
        with pytest.raises(ValueError):
            kernel_explore(word, 1, 4)
        with pytest.raises(ValueError):
            kernel_explore(Word(BINARY_ALPHABET), 2, 4)
