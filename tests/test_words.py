import json
import random
import tracemalloc

import numpy as np
import pytest

from hanoiseq.catalog import BINARY_ALPHABET, HANOI_ALPHABET, catalog_prefix, morphic_entry
from hanoiseq.hanoi import _MIRROR
from hanoiseq.words import (Alphabet, DomainError, Morphism,
                            MorphicSpec, ProlongabilityError, Word,
                            is_prolongable, spec_from_json, spec_to_json)

PHI = morphic_entry("classical-hanoi").morphism
OMEGA = morphic_entry("period-doubling").morphism
LAMBDA = morphic_entry("lazy-hanoi").morphism


def hw(tokens):
    return Word.from_tokens(HANOI_ALPHABET, tokens)


class TestAlphabet:
    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(())

    def test_barred_letters_are_distinct_symbols(self):
        assert HANOI_ALPHABET.index("a") != HANOI_ALPHABET.index("A")

    def test_unknown_symbol(self):
        with pytest.raises(DomainError):
            HANOI_ALPHABET.index("x")


class TestWord:
    def test_tokens_round_trip(self):
        w = hw("a C b")
        assert w.tokens() == ("a", "C", "b")
        assert w.text() == "a C b"
        assert len(w) == 3
        assert w[1] == "C"
        assert w[1:].tokens() == ("C", "b")

    def test_concat_needs_same_alphabet(self):
        with pytest.raises(DomainError):
            hw("a") + Word.from_tokens(BINARY_ALPHABET, "0")

    def test_bad_index_rejected(self):
        with pytest.raises(DomainError):
            Word(BINARY_ALPHABET, (0, 5))


class TestLargeAlphabet:
    BIG = Alphabet(tuple(f"t{i}" for i in range(300)))

    def test_indices_keep_their_values(self):
        w = Word(self.BIG, (299, 0, 256, 255))
        assert w.indices.dtype == np.uint16
        assert w.indices.tolist() == [299, 0, 256, 255]
        assert w.text() == "t299 t0 t256 t255"
        assert w.tokens() == ("t299", "t0", "t256", "t255")
        assert Word.from_tokens(self.BIG, w.text()) == w
        assert w[1:] + w[:1] == Word(self.BIG, [0, 256, 255, 299])

    @pytest.mark.parametrize("bad", [(-1,), (300,), [0, 300], [2 ** 70],
                                     np.array([-1]), np.array([300])])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            Word(self.BIG, bad)

    @pytest.mark.parametrize("bad", [(256,), (-1,), np.array([256]), np.array([-1])])
    def test_no_wrap_at_the_uint8_boundary(self, bad):
        alphabet = Alphabet(tuple(f"u{i}" for i in range(256)))
        assert alphabet.dtype == np.uint8
        with pytest.raises(DomainError):
            Word(alphabet, bad)

    def test_words_are_read_only(self):
        w = hw("a C b")
        with pytest.raises(ValueError):
            w.indices[0] = 1
        assert w[1:].indices.flags.writeable is False


class TestMorphismApply:
    def test_phi_on_a_cbar(self):
        assert PHI.apply(hw("a C")).text() == "a C b a"

    def test_empty_word(self):
        assert PHI.apply(Word(HANOI_ALPHABET)).text() == ""

    def test_omega_on_one_zero(self):
        w = Word.from_tokens(BINARY_ALPHABET, "1 0")
        assert OMEGA.apply(w).text() == "1 0 1 1"

    def test_domain_mismatch(self):
        with pytest.raises(DomainError):
            PHI.apply(Word.from_tokens(BINARY_ALPHABET, "0"))

    def test_homomorphism_law(self):
        rng = random.Random(1851)
        n = len(HANOI_ALPHABET.symbols)
        for _ in range(200):
            u = Word(HANOI_ALPHABET, tuple(rng.randrange(n) for _ in range(rng.randrange(8))))
            v = Word(HANOI_ALPHABET, tuple(rng.randrange(n) for _ in range(rng.randrange(8))))
            assert PHI.apply(u + v) == PHI.apply(u) + PHI.apply(v)

    def test_uniform_width(self):
        assert PHI.uniform_width == 2
        assert LAMBDA.uniform_width == 3
        assert morphic_entry("classical-hanoi-nonuniform").morphism.uniform_width is None
        assert morphic_entry("lazy-hanoi-nonuniform").morphism.uniform_width is None

    def test_power(self):
        phi2 = PHI.power(2)
        assert phi2.image("a").text() == "a C b a"
        assert phi2.uniform_width == 4


class TestProlongability:
    def test_phi_at_a(self):
        assert is_prolongable(PHI, "a")

    def test_omega(self):
        assert not is_prolongable(OMEGA, "0")
        assert is_prolongable(OMEGA, "1")

    def test_erasing_tail_is_not_prolongable(self):
        ab = Alphabet(("a", "b"))
        dying = Morphism.from_rules(ab, {"a": "a b", "b": ""})
        assert not is_prolongable(dying, "a")
        with pytest.raises(ProlongabilityError):
            MorphicSpec(dying, "a")

    def test_growing_erasing_morphism_is_refused(self):
        # a -> a b c grows for ever, but c is erased: no image may be empty
        abc = Alphabet(("a", "b", "c"))
        erasing = Morphism.from_rules(abc, {"a": "a b c", "b": "b", "c": ""})
        assert not is_prolongable(erasing, "a")
        with pytest.raises(ProlongabilityError, match="no image may be empty"):
            MorphicSpec(erasing, "a")

    def test_non_endomorphism_rejected(self):
        coding_like = Morphism.from_rules(HANOI_ALPHABET,
                                          {s: "0" for s in HANOI_ALPHABET.symbols},
                                          codomain=BINARY_ALPHABET)
        with pytest.raises(DomainError):
            is_prolongable(coding_like, "a")

    def test_spec_refuses_a_non_endomorphism(self):
        coding_like = Morphism.from_rules(HANOI_ALPHABET,
                                          {s: "0" for s in HANOI_ALPHABET.symbols},
                                          codomain=BINARY_ALPHABET)
        with pytest.raises(DomainError):
            MorphicSpec(coding_like, "a")


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFirstMismatch:
    """Words compare in their own dtype; a symbol the left alphabet lacks is
    marked with its size, which needs uint16 at 256 symbols."""

    def test_two_long_words_compare_in_a_few_bytes_per_letter(self):
        left = catalog_prefix("classical-hanoi", 1 << 20)
        right = catalog_prefix("lazy-hanoi", 1 << 20)
        mismatch, peak = traced_peak(lambda: left.first_mismatch(right))
        assert mismatch == 1
        assert peak < 4 << 20

    def test_an_absent_symbol_past_255_is_not_index_0(self):
        left = Word(Alphabet(tuple(f"t{i}" for i in range(256))), (0, 0, 255))
        right = Word.from_tokens(Alphabet(("t0", "new", "t255")), "t0 new t255")
        assert left.first_mismatch(right) == 1
        assert left.first_mismatch(right[:1]) is None
        assert right.first_mismatch(left) == 1


class TestPaddedTables:
    """Short image and symbol rows are filled with a value no row holds:
    the codomain size for a morphism, 0xFF for UTF-8 bytes."""

    @staticmethod
    def reference_images(n):
        # non-uniform, prolongable at t0; index 255 (where it exists) and
        # the last index occur, so a pad of 255 in uint8 would drop cells
        rng = random.Random(n)
        images = [[0, min(255, n - 1), n - 1]]
        images += [[rng.randrange(n) for _ in range(1 + i % 3)] for i in range(1, n)]
        images[1] = [255 % n]
        return images

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_non_uniform_morphisms_at_the_uint8_boundary(self, n):
        images = self.reference_images(n)
        alphabet = Alphabet(tuple(f"t{i}" for i in range(n)))
        m = Morphism(alphabet, alphabet, tuple(Word(alphabet, img) for img in images))
        assert m.uniform_width is None
        letters = list(range(n)) + [random.Random(-n).randrange(n) for _ in range(500)]
        expected = [c for i in letters for c in images[i]]
        assert m.apply(Word(alphabet, letters)).indices.tolist() == expected
        length = 5000
        iterate = [0]
        while len(iterate) < length:
            iterate = [c for i in iterate for c in images[i]]
        prefix = MorphicSpec(m, "t0").prefix(length)
        assert prefix.indices.tolist() == iterate[:length]
        assert prefix.text() == " ".join(f"t{i}" for i in iterate[:length])


class TestChunkedGather:
    """Gathers take at most 2^16 letters at a time."""

    SYMBOLS = ("a", "\u00e9", "\u20ac", "\U0001d11e", '"', "\\", "\x00", "q\x00\u00fc")

    @pytest.mark.parametrize("length", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    def test_renders_across_the_chunk_boundary(self, length):
        alphabet = Alphabet(self.SYMBOLS)
        indices = np.random.default_rng(length).integers(0, len(self.SYMBOLS), size=length)
        word = Word(alphabet, indices)
        tokens = [self.SYMBOLS[i] for i in indices.tolist()]
        assert word.text() == " ".join(tokens)
        assert "".join(word.pieces("json")) == json.dumps(tokens)

    def test_text_peaks_below_two_and_a_half_times_its_output(self):
        word = catalog_prefix("classical-hanoi", 1 << 20)
        text, peak = traced_peak(word.text)
        assert peak < 2.5 * len(text)

    def test_mirror_peaks_below_3_mib(self):
        word = catalog_prefix("classical-hanoi", (1 << 20) - 1)
        mirrored, peak = traced_peak(lambda: _MIRROR.apply(word))
        assert len(mirrored) == len(word)
        assert peak < 3 << 20


class TestFixedPoint:
    def test_classical_prefix_8(self):
        spec = morphic_entry("classical-hanoi")
        assert spec.prefix(8).text() == "a C b a c B a C"

    def test_fibonacci_prefix_8(self):
        spec = morphic_entry("fibonacci")
        assert "".join(spec.prefix(8).tokens()) == "abaababa"

    def test_lazy_prefix_9(self):
        spec = morphic_entry("lazy-hanoi")
        assert spec.prefix(9).text() == "a b a B A b a b a"

    def test_length_zero(self):
        assert len(morphic_entry("classical-hanoi").prefix(0)) == 0

    def test_prefix_stability(self):
        rng = random.Random(7)
        for name in ("classical-hanoi", "lazy-hanoi", "cyclic-hanoi", "fibonacci"):
            spec = morphic_entry(name)
            for _ in range(20):
                short = rng.randrange(1, 200)
                long = short + rng.randrange(0, 200)
                assert spec.prefix(long)[:short] == spec.prefix(short)

    def test_non_uniform_prefix_peaks_below_two_bytes_per_symbol(self):
        # the prefix itself is one byte per symbol; each step adds the
        # gather of at most 2^16 letters, not a whole level
        spec = morphic_entry("classical-hanoi-nonuniform")
        prefix, peak = traced_peak(lambda: spec.pure_prefix(1 << 22))
        assert len(prefix) == 1 << 22
        assert peak < 2 * len(prefix)

    @pytest.mark.parametrize("name", ["cyclic-hanoi", "z-uniform"])
    def test_coded_prefix_peaks_below_two_and_a_half_bytes_per_symbol(self, name):
        # a uniform coding gathers its chunks into its one output array,
        # next to the pure prefix it reads; at 2^22 one chunk's workspace
        # (at most 2.2 MiB, in cyclic-hanoi's padded expansion) is small
        spec = morphic_entry(name)
        prefix, peak = traced_peak(lambda: spec.prefix(1 << 22))
        assert len(prefix) == 1 << 22
        assert peak < 2.5 * len(prefix)

    def test_fixed_point_law(self):
        # applying the morphism to a prefix re-produces that prefix
        for name in ("classical-hanoi", "period-doubling", "fibonacci"):
            spec = morphic_entry(name)
            prefix = spec.pure_prefix(50)
            assert spec.morphism.apply(prefix)[:len(prefix)] == prefix


class TestCoding:
    def test_cyclic_coding(self):
        spec = morphic_entry("cyclic-hanoi")
        w = Word.from_tokens(spec.morphism.domain, "f v f")
        assert spec.coding.apply(w).text() == "a b a"

    def test_mod3_coding(self):
        spec = morphic_entry("z-uniform")
        w = Word.from_tokens(spec.morphism.domain, "0 4")
        assert spec.coding.apply(w).text() == "0 1"

    def test_bar_projection(self):
        from hanoiseq.classicseq import BAR_PROJECTION
        assert BAR_PROJECTION.apply(hw("a C b")).text() == "1 0 1"

    def test_length_preserving(self):
        spec = morphic_entry("cyclic-hanoi")
        w = spec.pure_prefix(100)
        assert len(spec.coding.apply(w)) == 100

    def test_domain_mismatch(self):
        spec = morphic_entry("cyclic-hanoi")
        with pytest.raises(DomainError):
            spec.coding.apply(hw("a"))


class TestJson:
    @pytest.mark.parametrize("name", ["classical-hanoi", "cyclic-hanoi", "z-uniform"])
    def test_round_trip_preserves_sequence(self, name):
        spec = morphic_entry(name)
        again = spec_from_json(spec_to_json(spec))
        assert again.prefix(200).tokens() == spec.prefix(200).tokens()

    def test_schema_keys(self):
        data = spec_to_json(morphic_entry("z-uniform"))
        assert set(data) == {"alphabet", "rules", "start", "coding"}
        assert data["coding"]["4"] == "1"
        plain = spec_to_json(morphic_entry("classical-hanoi"))
        assert "coding" not in plain
