import random

import numpy as np
import pytest

from hanoiseq import algebra
from hanoiseq.algebra import (InsufficientTruncationError, Relation, Series,
                              evaluate_relation, find_algebraic_relation,
                              is_prime, nullspace_mod, period_doubling_relation,
                              poly_gcd, series_from_sequence)
from hanoiseq.catalog import BINARY_ALPHABET, catalog_prefix
from hanoiseq.words import Word


def pd_series(order):
    return series_from_sequence(catalog_prefix("period-doubling", order), 2, order)


def constant(bit, n):
    return Word.from_tokens(BINARY_ALPHABET, [bit] * n)


class TestSeries:
    def test_from_period_doubling(self):
        assert pd_series(8).coeffs.tolist() == [1, 0, 1, 1, 1, 0, 1, 0]

    def test_zero_word(self):
        s = series_from_sequence(constant("0", 16), 2, 16)
        assert s.is_zero()

    def test_constant_one_is_geometric(self):
        ones = series_from_sequence(constant("1", 64), 2, 64)
        geometric = Relation(2, ((1,), (1, 1)))  # 1 + (1+X) F over F_2
        assert evaluate_relation(geometric, ones).is_zero()

    def test_modulus_must_be_prime(self):
        with pytest.raises(ValueError):
            Series(4, (1, 0))
        with pytest.raises(ValueError):
            series_from_sequence(constant("1", 4), 6, 4)

    def test_sequence_too_short(self):
        with pytest.raises(ValueError):
            series_from_sequence(constant("1", 4), 2, 8)

    def test_unmapped_symbol(self):
        with pytest.raises(ValueError):
            series_from_sequence(catalog_prefix("classical-hanoi", 8), 2, 8)
        mapped = series_from_sequence(catalog_prefix("fibonacci", 8), 2, 8,
                                      value_map={"a": 0, "b": 1})
        assert mapped.coeffs.tolist() == [0, 1, 0, 0, 1, 0, 1, 0]

    def test_large_map_values_reduced_exactly(self):
        mapped = series_from_sequence(catalog_prefix("fibonacci", 8), 7, 8,
                                      value_map={"a": 10 ** 30, "b": 1})
        a = 10 ** 30 % 7
        assert mapped.coeffs.tolist() == [a, 1, a, a, 1, a, 1, a]

    def test_only_occurring_symbols_need_values(self):
        ones = series_from_sequence(constant("1", 8), 2, 8, value_map={"1": 1})
        assert ones.coeffs.tolist() == [1] * 8
        with pytest.raises(ValueError, match="no field value for symbol 'b'"):
            series_from_sequence(catalog_prefix("fibonacci", 8), 2, 8, value_map={"a": 0})

    def test_coefficients_are_one_read_only_int64_array(self):
        coeffs = pd_series(8).coeffs
        assert coeffs.dtype == np.int64 and not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 0

    def test_coefficients_reduced(self):
        assert Series(3, (4, -1)).coeffs.tolist() == [1, 2]

    def test_mul_truncates(self):
        a = Series(2, (1, 1, 1, 1))
        b = Series(2, (1, 1))
        assert (a * b).coeffs.tolist() == [1, 0]

    def test_product_past_int64_raises(self):
        # 8 (q-1)^2 passes 2^63; the wrapped square would read 1, 2, q-1, 0, ...
        q = 2147483647
        f = Series(q, [q - 1] * 8)
        with pytest.raises(ValueError, match="too large for exact products"):
            f * f

    def test_characteristic_two_squaring(self):
        rng = random.Random(64)
        for _ in range(25):
            order = rng.randrange(2, 80)
            coeffs = [rng.randrange(2) for _ in range(order)]
            square = (Series(2, coeffs) * Series(2, coeffs)).coeffs.tolist()
            spread = [coeffs[n // 2] if n % 2 == 0 else 0 for n in range(order)]
            assert square == spread


def naive_residue(rel, coeffs, q):
    # sum_i polys[i] * F^i with F^0 = 1, in Python integers
    order = len(coeffs)
    power = [1] + [0] * (order - 1)
    total = [0] * order
    for poly in rel.polys:
        for j, c in enumerate(poly[:order]):
            for k in range(order - j):
                total[j + k] += c * power[k]
        power = [sum(power[k] * coeffs[n - k] for k in range(n + 1)) % q
                 for n in range(order)]
    return [t % q for t in total]


def unit_operands(monkeypatch, work):
    """The truncated products `work` makes with the full-order unit series
    1 + 0X + ... as an operand."""
    calls = []
    real = algebra.truncated_product

    def spy(a, b, order, q):
        calls.append((a, b, order))
        return real(a, b, order, q)

    monkeypatch.setattr(algebra, "truncated_product", spy)
    work()
    return [(a, b) for a, b, order in calls
            for x in (a, b) if len(x) >= order and x[0] == 1 and not x[1:order].any()]


class TestEvaluateRelation:
    def test_matches_naive_sum_of_powers(self):
        rng = random.Random(5)
        for _ in range(20):
            q = rng.choice((2, 3, 5, 7))
            order = rng.randint(1, 40)
            coeffs = [rng.randrange(q) for _ in range(order)]
            polys = tuple(tuple(rng.randrange(q) for _ in range(rng.randint(0, 4)))
                          for _ in range(rng.randint(1, 4)))
            if not any(map(any, polys)):
                continue
            rel = Relation(q, polys)
            got = evaluate_relation(rel, Series(q, coeffs)).coeffs.tolist()
            assert got == naive_residue(rel, coeffs, q)

    def test_no_product_with_the_unit_series(self, monkeypatch):
        f = pd_series(1024)
        assert not unit_operands(
            monkeypatch, lambda: evaluate_relation(period_doubling_relation(), f))
        assert not unit_operands(monkeypatch, lambda: find_algebraic_relation(f, 3, 2))

    def test_period_doubling_relation_vanishes(self):
        residue = evaluate_relation(period_doubling_relation(), pd_series(4096))
        assert residue.is_zero()

    def test_flipped_coefficient_detected(self):
        f = pd_series(512)
        coeffs = f.coeffs.copy()
        coeffs[100] ^= 1
        flipped = Series(2, coeffs)
        assert not evaluate_relation(period_doubling_relation(), flipped).is_zero()

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_relation(period_doubling_relation(), Series(3, (1, 0, 1)))

    def test_splitting_identity(self):
        # even positions carry 1, odd positions complement the halved index
        t = catalog_prefix("period-doubling", 4096).indices
        half = len(t) // 2
        assert all(t[2 * n] == 1 for n in range(half))
        assert all(t[2 * n + 1] == (1 + t[n]) % 2 for n in range(half - 1))


class TestRelation:
    def test_zero_relation_rejected(self):
        with pytest.raises(ValueError):
            Relation(2, ((0, 0), (0,)))

    def test_leading_zero_polys_trimmed(self):
        rel = Relation(2, ((1,), (1, 1), (0, 0)))
        assert rel.degree == 1

    def test_normalized_divides_out_content(self):
        # (1+X) * (1 + (1+X) F) expanded over F_2
        scaled = Relation(2, ((1, 1), (1, 0, 1)))
        assert scaled.normalized().polys == ((1,), (1, 1))

    def test_poly_gcd(self):
        assert poly_gcd((1, 0, 1), (1, 1), 2) == (1, 1)
        assert poly_gcd((), (0, 1), 2) == (0, 1)


class TestFindRelation:
    def test_recovers_period_doubling_relation(self):
        found = find_algebraic_relation(pd_series(512), 2, 2)
        assert found is not None
        assert evaluate_relation(found, pd_series(512)).is_zero()
        assert found.normalized().polys == period_doubling_relation().polys

    def test_degree_one_is_not_enough(self):
        assert find_algebraic_relation(pd_series(512), 1, 2) is None

    def test_rational_series_found_at_degree_one(self):
        ones = series_from_sequence(constant("1", 512), 2, 512)
        found = find_algebraic_relation(ones, 1, 2)
        assert found is not None
        assert found.normalized().polys == ((1,), (1, 1))

    @pytest.mark.parametrize("mapping", [{"a": 0, "b": 1}, {"a": 1, "b": 0}])
    def test_fibonacci_yields_nothing(self, mapping):
        series = series_from_sequence(catalog_prefix("fibonacci", 512), 2, 512,
                                      value_map=mapping)
        assert find_algebraic_relation(series, 2, 4) is None

    def test_degree_zero_finds_nothing(self):
        assert find_algebraic_relation(pd_series(512), 0, 2) is None

    def test_insufficient_truncation(self):
        with pytest.raises(InsufficientTruncationError):
            find_algebraic_relation(pd_series(40), 2, 2)

    def test_order_beyond_series(self):
        with pytest.raises(ValueError):
            find_algebraic_relation(pd_series(128), 1, 1, order=256)


class TestNullspace:
    def test_simple_kernel(self):
        import numpy as np
        matrix = np.array([[1, 0, 1], [0, 1, 1]])
        basis = nullspace_mod(matrix, 2)
        assert basis == [(1, 1, 1)]

    def test_full_rank(self):
        import numpy as np
        assert nullspace_mod(np.eye(3, dtype=int), 5) == []

    def test_prime_check(self):
        assert is_prime(2) and is_prime(97)
        assert not is_prime(1) and not is_prime(91)
