import json
import tracemalloc

import numpy as np
import pytest

from hanoiseq.catalog import BINARY_ALPHABET, catalog_prefix, morphic_entry
from hanoiseq.classicseq import (IntSequence, derive_T, derive_U, derive_V,
                                 derive_Z, doublefree_exhaustive,
                                 doublefree_oracle)
from hanoiseq.words import DomainError, Word

T_ROW = "1 0 1 1 1 0 1 0 1 0 1 1 1 0 1"
U_ROW = [1, 1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 9, 10]
V_ROW = "1 1 0 1 0 0 1 1 0 0 1 0 1 1 0"


class TestDeriveT:
    def test_opening_row(self):
        assert derive_T(catalog_prefix("classical-hanoi", 15)).text() == T_ROW

    def test_empty(self):
        assert len(derive_T(catalog_prefix("classical-hanoi", 0))) == 0

    def test_equals_period_doubling_fixed_point(self):
        assert derive_T(catalog_prefix("classical-hanoi", 15)) == \
            catalog_prefix("period-doubling", 15)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            derive_T(catalog_prefix("thue-morse", 4))


class TestDeriveU:
    def test_opening_row(self):
        assert derive_U(catalog_prefix("classical-hanoi", 15)).values.tolist() == U_ROW

    def test_single_letter(self):
        assert derive_U(catalog_prefix("classical-hanoi", 1)).values.tolist() == [1]

    def test_last_value_counts_plain_letters(self):
        word = catalog_prefix("classical-hanoi", 500)
        u = derive_U(word)
        assert u[-1] == sum(1 for tok in word.tokens() if tok.islower())

    def test_monotone_with_unit_steps(self):
        u = derive_U(catalog_prefix("classical-hanoi", 2000)).values
        assert all(0 <= b - a <= 1 for a, b in zip(u, u[1:]))

    def test_summatory_of_T(self):
        word = catalog_prefix("classical-hanoi", 2000)
        t = derive_T(word).indices.tolist()
        u = derive_U(word).values
        total = 0
        for i, bit in enumerate(t):
            total += bit
            assert u[i] == total


class TestDeriveV:
    def test_opening_row(self):
        u = derive_U(catalog_prefix("classical-hanoi", 15))
        assert derive_V(u).text() == V_ROW

    def test_empty(self):
        assert len(derive_V(IntSequence(()))) == 0

    def test_prepending_zero_gives_thue_morse(self):
        u = derive_U(catalog_prefix("classical-hanoi", 2 ** 12))
        v = derive_V(u)
        zero = Word.from_tokens(BINARY_ALPHABET, "0")
        assert zero + v == catalog_prefix("thue-morse", 2 ** 12 + 1)


class TestDoubleFree:
    def test_fifteen(self):
        assert doublefree_oracle(15) == 10

    def test_one(self):
        assert doublefree_oracle(1) == 1

    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_U(self, n):
        u = derive_U(catalog_prefix("classical-hanoi", 24))
        assert doublefree_oracle(n) == u[n - 1]

    @pytest.mark.parametrize("n", range(1, 19))
    def test_chain_oracle_matches_raw_exhaustive(self, n):
        assert doublefree_oracle(n) == doublefree_exhaustive(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            doublefree_oracle(0)
        with pytest.raises(ValueError):
            doublefree_oracle(25)


class TestDeriveZ:
    def test_opening_values(self):
        z = derive_Z(catalog_prefix("thue-morse", 16))
        assert z.values.tolist() == [2, 1, 0, 2, 0, 1, 2]

    def test_two_zeros(self):
        assert derive_Z(Word.from_tokens(BINARY_ALPHABET, "0 0")).values.tolist() == [0]

    def test_unclosed_gap_dropped(self):
        assert derive_Z(Word.from_tokens(BINARY_ALPHABET, "0 1 1")).values.tolist() == []

    def test_must_start_with_zero(self):
        with pytest.raises(ValueError):
            derive_Z(Word.from_tokens(BINARY_ALPHABET, "1 0"))

    def test_values_in_range(self):
        z = derive_Z(catalog_prefix("thue-morse", 2 ** 12))
        assert set(z.values) <= {0, 1, 2}

    def test_matches_nonuniform_fixed_point(self):
        non = morphic_entry("z-nonuniform").prefix(7)
        assert non.text() == "2 1 0 2 0 1 2"

    def test_three_presentations_agree(self):
        length = 2000
        z = derive_Z(catalog_prefix("thue-morse", 8 * length)).values[:length].tolist()
        non = [int(t) for t in catalog_prefix("z-nonuniform", length).tokens()]
        uni = [int(t) for t in catalog_prefix("z-uniform", length).tokens()]
        assert z == non == uni


class TestIntSequence:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntSequence((1, -2))

    def test_text_and_json(self):
        s = IntSequence((1, 2, 3))
        assert s.text() == "1 2 3"
        assert "".join(s.pieces("json")) == "[1, 2, 3]"

    def test_text_and_json_across_a_chunk_boundary(self):
        # the digit table is built 2^16 values at a time; the widest and the
        # narrowest value on both sides of the first boundary
        big = 2 ** 63 - 1
        values = list(range(2 ** 16 + 3))
        values[2 ** 16 - 2:2 ** 16 + 2] = [0, big, big, 0]
        s = IntSequence(values)
        assert s.text() == " ".join(map(str, values))
        assert "".join(s.pieces("json")) == json.dumps(values)

    def test_text_peaks_below_three_times_its_output(self):
        u = derive_U(catalog_prefix("classical-hanoi", 1 << 20))
        tracemalloc.start()
        try:
            text = u.text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    @pytest.mark.parametrize("top, dtype", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16), (2 ** 32, np.uint64)])
    def test_values_are_one_read_only_array_of_the_smallest_unsigned_dtype(self, top, dtype):
        given = np.array([top, 0, 1])
        values = IntSequence(given).values
        assert values.dtype == dtype and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0
        assert given.flags.writeable  # the caller's array is not frozen
        assert values.tolist() == [top, 0, 1]

    def test_projections_store_the_smallest_unsigned_dtype(self):
        moves = catalog_prefix("classical-hanoi", 300)
        assert derive_U(moves).values.dtype == np.uint8  # U reaches 200
        assert derive_U(catalog_prefix("classical-hanoi", 400)).values.dtype == np.uint16
        assert derive_Z(catalog_prefix("thue-morse", 600)).values.dtype == np.uint8
