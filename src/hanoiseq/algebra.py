"""Truncated formal power series over a prime field.

A series is a coefficient array c[0], ..., c[order-1] with values
reduced modulo a prime q; every operation works modulo X^order, with
multiplication one exact big-integer product (Kronecker substitution) cut
off at the order.  A relation is an identity sum_i A_i(X) F^i = 0 whose
A_i are polynomials given as coefficient lists (constant term first).

``find_algebraic_relation`` searches for such relations by linear
algebra: the unknowns are the coefficients of the A_i, each residue
coefficient gives one linear equation over F_q, and any non-trivial
null-space vector is a relation valid to the truncation order.  The
equations are never stacked: each unknown's column, a shifted power
X^j F^i, is reduced on its own.  Finding none rules out relations at this
truncation only, so callers should treat the answer as evidence rather
than a transcendence proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .words import Word


class InsufficientTruncationError(ValueError):
    """Too few series coefficients for the requested relation search."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True, eq=False)
class Series:
    """Power series modulo X^order over F_q, q prime, as one read-only
    int64 array of residues."""

    modulus: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        coeffs = np.asarray(self.coeffs, dtype=np.int64) % self.modulus
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs.any()


def truncated_product(a: np.ndarray, b: np.ndarray, order: int, q: int) -> np.ndarray:
    """a·b mod (X^order, q) for int64 arrays reduced mod q.  Each product
    coefficient sums at most min(len a, len b) terms below q^2, so past
    2^63 this raises instead of wrapping around.  Below it, by Kronecker
    substitution: each array packs into one int in the narrowest
    little-endian unsigned slots (2, 4 or 8 bytes) that hold that bound, so
    no slot of the one big-integer product carries into the next."""
    a, b = a[:order], b[:order]
    if min(len(a), len(b)) * (q - 1) ** 2 >= 1 << 63:
        raise ValueError(f"modulus {q} is too large for exact products at order {order}")
    out = np.zeros(order, dtype=np.int64)
    if len(a) and len(b):
        bound = min(len(a), len(b)) * (q - 1) ** 2
        slot = np.dtype("<u2" if bound < 1 << 16 else "<u4" if bound < 1 << 32 else "<u8")
        x, y = (int.from_bytes(v.astype(slot).tobytes(), "little") for v in (a, b))
        full = len(a) + len(b) - 1
        n = min(order, full)
        product = (x * y).to_bytes(full * slot.itemsize, "little")
        out[:n] = np.frombuffer(product, slot, n).astype(np.int64) % q
    return out


def series_from_sequence(word: Word, q: int, order: int,
                         value_map: Optional[Mapping[str, int]] = None) -> Series:
    """First `order` terms of a word as a series over F_q.

    Symbols map through value_map when given, otherwise through int();
    only the symbols that occur in those terms need a value.
    """
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    if len(word) < order:
        raise ValueError(f"sequence has {len(word)} terms but {order} are needed")
    table = np.full(len(word.alphabet), -1, dtype=np.int64)  # -1: no value
    for i, sym in enumerate(word.alphabet.symbols):
        try:  # reduced as a Python int, so that any integer value fits
            table[i] = (int(sym) if value_map is None else value_map[sym]) % q
        except (KeyError, ValueError):
            pass
    values = table.take(word.indices[:order])
    unmapped = np.flatnonzero(values < 0)
    if unmapped.size:
        raise ValueError(f"no field value for symbol {word[int(unmapped[0])]!r}")
    return Series(q, values)


def _poly_trim(p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], q: int):
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    inv = pow(b[-1], -1, q)
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        factor = a[-1] * inv % q
        shift = len(a) - len(b)
        quot[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % q
        while a and a[-1] == 0:
            a.pop()
    return _poly_trim(quot), _poly_trim(a)


def poly_gcd(a: Sequence[int], b: Sequence[int], q: int) -> tuple[int, ...]:
    """Monic greatest common divisor over F_q."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        _, r = _poly_divmod(a, b, q)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, q)
        a = tuple(c * inv % q for c in a)
    return a


@dataclass(frozen=True)
class Relation:
    """Identity sum_i polys[i](X) * F^i = 0 over F_q.

    Zero polynomials at the top are trimmed so the leading one is
    non-zero; a relation that is identically zero is rejected.
    """

    modulus: int
    polys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        polys = tuple(tuple(int(c) % self.modulus for c in p) for p in self.polys)
        while polys and not any(polys[-1]):
            polys = polys[:-1]
        if not polys:
            raise ValueError("relation must not be identically zero")
        object.__setattr__(self, "polys", polys)

    def normalized(self) -> "Relation":
        """Divide out the common polynomial factor and make the leading
        polynomial monic; null spaces determine relations only up to
        such scaling."""
        q = self.modulus
        common: tuple[int, ...] = ()
        for p in self.polys:
            common = poly_gcd(common, p, q)
        polys = []
        for p in self.polys:
            trimmed = _poly_trim(p)
            if len(common) > 1 and trimmed:
                trimmed, rem = _poly_divmod(trimmed, common, q)
                if rem:
                    raise AssertionError("content division left a remainder")
            polys.append(trimmed)
        lead = polys[-1][-1]
        inv = pow(lead, -1, q)
        polys = [tuple(c * inv % q for c in p) for p in polys]
        return Relation(q, tuple(polys))

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "polys": [list(p) for p in self.polys]}


def period_doubling_relation() -> Relation:
    """The quadratic identity annihilating the period-doubling series
    over F_2: X(1+X) F^2 + (1+X) F + 1 = 0."""
    return Relation(2, ((1,), (1, 1), (0, 1, 1)))


def evaluate_relation(rel: Relation, f: Series) -> Series:
    """Residue series sum_i polys[i](X) f^i, truncated at f's order."""
    if rel.modulus != f.modulus:
        raise ValueError("relation and series use different moduli")
    q = f.modulus
    order = f.order
    total = np.zeros(order, dtype=np.int64)
    head = rel.polys[0][:order]  # the f^0 term needs no product
    total[:len(head)] = head
    power = f.coeffs
    for i, poly in enumerate(rel.polys[1:], 1):
        if i > 1:
            power = truncated_product(power, f.coeffs, order, q)
        if any(poly):
            total += truncated_product(np.array(poly, dtype=np.int64), power, order, q)
            total %= q
    return Series(q, total)


def nullspace_mod(columns, q: int) -> list[tuple[int, ...]]:
    """Basis of the right null space modulo prime q of the matrix whose
    columns ``columns`` yields: each is reduced against the independent
    ones kept before it, in order, tracking its coordinates on the original
    columns; one that reduces to zero gives the basis vector 1 there minus
    those coordinates.  That is the canonical basis (0 at the other
    dependent columns), in ascending order.  Residues multiply in int64,
    so a modulus with (q - 1)^2 >= 2^63 raises before any work."""
    if (q - 1) ** 2 >= 1 << 63:
        raise ValueError(f"modulus {q} is too large for exact products")
    kept = []  # (pivot row, column with 1 there, its coordinates)
    null = []
    for width, column in enumerate(columns, 1):
        v = np.asarray(column, dtype=np.int64) % q
        coords = np.zeros(width, dtype=np.int64)
        coords[-1] = 1
        for pivot, u, u_coords in kept:
            c = int(v[pivot])
            if c:
                v -= c * u
                v %= q
                coords[:len(u_coords)] -= c * u_coords
                coords %= q
        if v.any():
            pivot = int(v.argmax())  # any non-zero row will do
            inv = pow(int(v[pivot]), -1, q)
            kept.append((pivot, v * inv % q, coords * inv % q))
        else:
            null.append(coords.tolist())
    return [tuple(v) + (0,) * (width - len(v)) for v in null]


def find_algebraic_relation(f: Series, max_degree: int,
                            coeff_degree: int) -> Optional[Relation]:
    """Relation with deg_F <= max_degree and polynomial coefficients of
    degree <= coeff_degree annihilating f up to its order, or None.

    Needs comfortably more equations than unknowns (an extra margin of
    32).  Deterministic: the lexicographically smallest null-space basis
    vector is returned.
    """
    for name, degree in (("max_degree", max_degree), ("coeff_degree", coeff_degree)):
        if degree < 0:
            raise ValueError(f"{name} must be >= 0, got {degree}")
    q = f.modulus
    order = f.order
    unknowns = (max_degree + 1) * (coeff_degree + 1)
    if order <= unknowns + 32:
        raise InsufficientTruncationError(
            f"{unknowns} unknowns need order > {unknowns + 32}, got {order}")
    unit = np.zeros(order, dtype=np.int64)
    unit[0] = 1
    powers = [unit, f.coeffs][:max_degree + 1]
    while len(powers) <= max_degree:
        powers.append(truncated_product(powers[-1], f.coeffs, order, q))
    basis = nullspace_mod((np.concatenate((np.zeros(j, np.int64), power[:order - j]))
                           for power in powers for j in range(coeff_degree + 1)), q)
    if not basis:
        return None
    vec = min(basis)
    width = coeff_degree + 1
    polys = tuple(vec[i * width:(i + 1) * width] for i in range(max_degree + 1))
    return Relation(q, polys)
