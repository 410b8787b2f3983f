import pytest

from hanoiseq import automaton
from hanoiseq.automaton import (NonUniformError,
                                dfao_from_uniform_morphism, kernel_explore)
from hanoiseq.catalog import BINARY_ALPHABET, morphic_entry
from hanoiseq.words import Word

UNIFORM_NAMES = ("classical-hanoi", "lazy-hanoi", "period-doubling",
                 "thue-morse", "z-uniform")


class TestDfaoConstruction:
    def test_classical_shape(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("classical-hanoi"))
        assert len(dfao.states.symbols) == 6
        assert dfao.radix == 2

    def test_lazy_shape(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("lazy-hanoi"))
        assert len(dfao.states.symbols) == 4
        assert dfao.radix == 3

    def test_nonuniform_rejected(self):
        with pytest.raises(NonUniformError):
            dfao_from_uniform_morphism(morphic_entry("fibonacci"))

    def test_json_export(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("classical-hanoi"))
        data = dfao.to_json()
        assert data["radix"] == 2
        assert data["initial"] == "a"
        assert data["transitions"]["a"] == ["a", "C"]
        assert data["output"]["C"] == "C"

    def test_coded_output(self):
        dfao = dfao_from_uniform_morphism(morphic_entry("z-uniform"))
        assert dfao.to_json()["output"]["4"] == "1"


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

    @pytest.mark.parametrize("name", UNIFORM_NAMES)
    def test_leading_zero_digits_are_harmless(self, name):
        # prolongability forces the 0-transition of the start state to loop,
        # so padding the digit string with leading zeros cannot matter
        spec = morphic_entry(name)
        dfao = dfao_from_uniform_morphism(spec)
        start = dfao.states.index(dfao.initial)
        assert dfao.transitions[start][0] == start
        for n in (0, 1, 7, 123):
            digits = []
            m = n
            while m:
                m, d = divmod(m, dfao.radix)
                digits.append(d)
            digits += [0, 0, 0]  # pad at the significant end
            state = start
            for d in reversed(digits):
                state = dfao.transitions[state][d]
            assert dfao.output[state] == dfao.eval(n)


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
