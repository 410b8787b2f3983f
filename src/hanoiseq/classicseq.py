"""Projections of the classical move sequence onto integer and binary
sequences, with independent combinatorial oracles.

T replaces plain moves by 1 and barred moves by 0; U counts the plain
moves cumulatively; V is U modulo 2; Z lists the lengths of the 1-runs
between consecutive 0s of a binary sequence.  The double-free oracle
recomputes U's values as the largest subset of 1..n containing no pair
{x, 2x}, without looking at the move sequence at all.
"""

from __future__ import annotations

import numpy as np

from .catalog import BINARY_ALPHABET, HANOI_ALPHABET
from .words import DomainError, IntSequence, Morphism, Word

BAR_PROJECTION = Morphism.from_rules(
    HANOI_ALPHABET,
    {"a": "1", "b": "1", "c": "1", "A": "0", "B": "0", "C": "0"},
    BINARY_ALPHABET)

_ZERO = BINARY_ALPHABET.index("0")


def derive_T(prefix: Word) -> Word:
    """Binary projection: 1 for plain moves, 0 for barred ones."""
    return BAR_PROJECTION.apply(prefix)


def derive_U(prefix: Word) -> IntSequence:
    """Running count of plain moves, the current term included."""
    if prefix.alphabet != HANOI_ALPHABET:
        raise DomainError("expected a word over the six-letter move alphabet")
    # T's index is 1 exactly at "1", a plain move
    counts = derive_T(prefix).indices.astype(np.min_scalar_type(len(prefix)))
    return IntSequence(np.cumsum(counts, dtype=counts.dtype, out=counts))


def derive_V(u: IntSequence) -> Word:
    """U reduced modulo 2: its low bit, the index of "0" or "1"."""
    bits = u.values.astype(BINARY_ALPHABET.dtype)  # the cast keeps the low bit
    bits &= 1
    return Word._of(BINARY_ALPHABET, bits)


def derive_Z(binary_prefix: Word) -> IntSequence:
    """Lengths of the 1-runs between consecutive 0s.

    Only complete runs count: anything after the last 0 of the prefix is
    dropped.  The input must begin with 0.
    """
    if binary_prefix.alphabet != BINARY_ALPHABET:
        raise DomainError("expected a word over the binary alphabet")
    idx = binary_prefix.indices
    if not len(idx) or idx[0] != _ZERO:
        raise ValueError("sequence must begin with 0")
    gaps = np.diff(np.flatnonzero(idx == _ZERO).astype(np.min_scalar_type(len(idx))))
    gaps -= 1
    return IntSequence(gaps)


def doublefree_oracle(n: int) -> int:
    """Largest subset of 1..n with no pair {x, 2x}, by exhaustive search
    inside each doubling chain x, 2x, 4x, ... for odd x."""
    if not 1 <= n <= 24:
        raise ValueError("supported for 1 <= n <= 24")
    total = 0
    for x in range(1, n + 1, 2):
        length = 0
        y = x
        while y <= n:
            length += 1
            y *= 2
        best = 0
        for mask in range(1 << length):
            if mask & (mask << 1):
                continue  # two consecutive chain members conflict
            best = max(best, mask.bit_count())
        total += best
    return total


def doublefree_exhaustive(n: int) -> int:
    """Reference maximum over every subset of 1..n (full mask sweep)."""
    if not 1 <= n <= 20:
        raise ValueError("supported for 1 <= n <= 20")
    masks = np.arange(1 << n, dtype=np.int64)
    bad = np.zeros(masks.size, dtype=bool)
    for x in range(1, n // 2 + 1):
        bad |= ((masks >> (x - 1)) & (masks >> (2 * x - 1)) & 1).astype(bool)
    sizes = np.zeros(masks.size, dtype=np.int64)
    for bit in range(n):
        sizes += (masks >> bit) & 1
    return int(sizes[~bad].max())
