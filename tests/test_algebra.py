import itertools
import random
import tracemalloc

import numpy as np
import pytest

from hanoiseq import algebra
from hanoiseq.algebra import (InsufficientTruncationError, Relation, Series,
                              evaluate_relation, find_algebraic_relation,
                              is_prime, nullspace_mod, period_doubling_relation,
                              poly_gcd, series_from_sequence, truncated_product)
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
        assert truncated_product(a.coeffs, b.coeffs, 2, 2).tolist() == [1, 0]

    def test_product_past_int64_raises(self):
        # 8 (q-1)^2 passes 2^63; the wrapped square would read 1, 2, q-1, 0, ...
        q = 2147483647
        f = Series(q, [q - 1] * 8)
        with pytest.raises(ValueError, match="too large for exact products"):
            truncated_product(f.coeffs, f.coeffs, f.order, q)

    def test_characteristic_two_squaring(self):
        rng = random.Random(64)
        for _ in range(25):
            order = rng.randrange(2, 80)
            coeffs = [rng.randrange(2) for _ in range(order)]
            f = Series(2, coeffs).coeffs
            square = truncated_product(f, f, order, 2).tolist()
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

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="^modulus 4 is not prime$"):
            Relation(4, ((1,), (1,)))

    def test_leading_zero_polys_trimmed(self):
        rel = Relation(2, ((1,), (1, 1), (0, 0)))
        assert len(rel.polys) == 2

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

    @pytest.mark.parametrize("degrees,name", [((-1, 2), "max_degree"),
                                              ((2, -1), "coeff_degree"),
                                              ((-3, 0), "max_degree")])
    def test_negative_degree_refused_before_any_product(self, degrees, name,
                                                        monkeypatch):
        def refuse(*args):
            raise AssertionError("product computed for a negative degree")
        monkeypatch.setattr(algebra, "truncated_product", refuse)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -"):
            find_algebraic_relation(pd_series(512), *degrees)

    def test_insufficient_truncation(self):
        with pytest.raises(InsufficientTruncationError):
            find_algebraic_relation(pd_series(40), 2, 2)

    def test_modulus_past_exact_products_refused(self):
        # 1/(1 - cX) satisfies (1 - cX) F - 1 = 0, but a residue product
        # past 2^63 would wrap; at degree 1 no series product is made
        q = 1099511627791  # the first prime above 2^40
        c = 3
        geometric = Series(q, [pow(c, n, q) for n in range(64)])
        with pytest.raises(ValueError, match=f"^modulus {q} is too large"):
            find_algebraic_relation(geometric, 1, 1)

    def test_search_peaks_below_one_equation_matrix(self):
        # the order x unknowns int64 matrix would be 165 * 2^14 * 8 B
        f = pd_series(1 << 14)
        tracemalloc.start()
        try:
            found = find_algebraic_relation(f, 4, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is not None and evaluate_relation(found, f).is_zero()
        assert peak < 165 * (1 << 14) * 8


def brute_force_basis(matrix, q):
    """The canonical null-space basis read off every vector of F_q^c: a
    column is free when some null vector ends there, and its basis vector
    is the one null vector that is 1 there and 0 at every other free column."""
    cols = matrix.shape[1]
    vectors = np.array(list(itertools.product(range(q), repeat=cols)), dtype=np.int64)
    null = vectors[~(matrix @ vectors.T % q).any(axis=0)]
    free = sorted({int(np.flatnonzero(v)[-1]) for v in null if v.any()})
    assert len(null) == q ** len(free)
    basis = []
    for f in free:
        match = [v for v in null if all(v[g] == (g == f) for g in free)]
        assert len(match) == 1
        basis.append(tuple(match[0].tolist()))
    return basis


def known_basis_matrix(rng, q, rows, pivots, cols):
    """A matrix with a known canonical null-space basis.  C is an r x cols
    echelon matrix with identity columns at the pivots and random entries
    right of each pivot; B = [I_r; random] rows, shuffled, is injective, so
    B·C has C's null space: e_f - sum_k C[k, f] e_pivot_k per free column f."""
    r = len(pivots)
    c = np.zeros((r, cols), dtype=object)
    for k, p in enumerate(pivots):
        c[k, p + 1:] = [int(x) for x in rng.integers(0, q, cols - p - 1)]
        c[:, p] = 0
        c[k, p] = 1
    b = np.vstack([np.eye(r, dtype=np.int64),
                   rng.integers(0, q, (rows - r, r))]).astype(object)
    b = b[rng.permutation(rows)]
    expected = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for k, p in enumerate(pivots):
            if p < f:
                v[p] = -c[k, f] % q
        expected.append(tuple(v))
    return np.array(b.dot(c) % q, dtype=np.int64).reshape(rows, cols), expected


def times_mod(matrix, v, q):
    """matrix·v mod q in Python integers, which cannot wrap."""
    return [sum(int(a) * x for a, x in zip(row, v)) % q for row in matrix.tolist()]


class TestNullspace:
    def test_simple_kernel(self):
        matrix = np.array([[1, 0, 1], [0, 1, 1]])
        basis = nullspace_mod(matrix.T, 2)
        assert basis == [(1, 1, 1)]

    def test_full_rank(self):
        assert nullspace_mod(np.eye(3, dtype=int), 5) == []

    def test_no_columns_and_empty_columns(self):
        assert nullspace_mod([], 7) == []
        assert nullspace_mod(np.zeros((3, 0), dtype=np.int64), 7) == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_tiny_shapes_against_enumeration(self, q):
        rng = np.random.default_rng(q)
        for _ in range(60):
            rows, cols = int(rng.integers(0, 6)), int(rng.integers(1, 6))
            matrix = rng.integers(0, q, (rows, cols))
            if rng.random() < 0.5:  # sparse, so that ranks drop often
                matrix *= rng.random((rows, cols)) < 0.3
            assert nullspace_mod(matrix.T, q) == brute_force_basis(matrix, q)

    @pytest.mark.parametrize("q", [2, 3, 7, 8191, 11863279, 3037000493])
    def test_known_bases_tall_wide_and_rank_deficient(self, q):
        # 3037000493 is the largest prime with (q - 1)^2 < 2^63
        rng = np.random.default_rng(q)
        for rows, cols, rank in [(40, 6, 6), (40, 12, 5), (5, 12, 5), (3, 9, 1),
                                 (30, 20, 0), (12, 12, 12), (60, 25, 17)]:
            pivots = sorted(rng.choice(cols, rank, replace=False).tolist())
            matrix, expected = known_basis_matrix(rng, q, rows, pivots, cols)
            basis = nullspace_mod(matrix.T, q)
            assert basis == expected
            assert all(not any(times_mod(matrix, v, q)) for v in basis)

    @pytest.mark.parametrize("q", [2, 5, 11863279, 3037000493])
    def test_random_matrices_give_canonical_null_vectors(self, q):
        rng = np.random.default_rng(q + 1)
        for rows, cols in [(50, 8), (6, 15), (20, 20), (1, 4)]:
            matrix = rng.integers(0, q, (rows, cols))
            matrix[:, rng.integers(cols)] = 0
            basis = nullspace_mod(iter(matrix.T), q)
            free = [max(i for i, x in enumerate(v) if x) for v in basis]
            assert free == sorted(set(free)) and len(basis) >= cols - rows
            for f, v in zip(free, basis):
                assert v[f] == 1 and all(v[g] == 0 for g in free if g != f)
                assert not any(times_mod(matrix, v, q))

    def test_modulus_past_exact_products_refused_before_reading(self):
        q = 1099511627791  # (q - 1)^2 passes 2^63

        def columns():
            raise AssertionError("a column was read")
            yield

        with pytest.raises(ValueError, match=f"^modulus {q} is too large"):
            nullspace_mod(columns(), q)

    def test_prime_check(self):
        assert is_prime(2) and is_prime(97)
        assert not is_prime(1) and not is_prime(91)
