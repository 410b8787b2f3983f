"""Non-uniform presentations of uniform substitution fixed points.

Given a k-uniform morphism fixed at a start symbol, there is a letter b
(distinct from the start) and a power g of the morphism whose image of b
has an interior occurrence of b: g(b) = w1 b c w2 with w1 and w2
non-empty, where c is the letter following that b.  Introducing two
fresh letters b' and c', the extended morphism g' sends b to
w1 b' c' w2, keeps every other old letter's image, and splits
g(b)g(c) = z t, with z its first letter, into the images of b' and c'.
The result is non-uniform, and its fixed point maps back onto the
original one under the coding that drops the primes.

A ``Construction`` holds only the four choices (source morphism, start,
power and expanding letter b); c, z, t, g' and the coding tau are read
off them, so tau g' = g tau holds by construction on every old letter
and on the pair b'c'.  Nothing else needs a check: b' and c' occur only
in g'(b), side by side at offsets i and i + 1 with 1 <= i <= k' - 3,
and every other image is over the old letters.  So in y = g'(y) c'
follows every b', the image of every old letter and of every b' starts
at a multiple of k', and no multiple of 2k' falls inside a b'c' pair:
coding and morphisms commute on every block of twice the width k' of g.
``validation_failures`` compares one finite prefix of the fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .words import (Alphabet, Morphism, MorphicSpec, ProlongabilityError, Word,
                    is_prolongable, spec_to_json)


class ConstructionError(ValueError):
    """The choices admit no two-letter extension."""


def _reachable(m: Morphism, start: str) -> set[int]:
    seen = {m.domain.index(start)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for i in frontier:
            for j in m.images[i].indices.tolist():
                if j not in seen:
                    seen.add(j)
                    fresh.append(j)
        frontier = fresh
    return seen


def _check_source(m: Morphism, start: str) -> None:
    if (m.uniform_width or 0) < 2:
        raise ValueError("expanding-letter search needs a uniform morphism of width >= 2")
    if not is_prolongable(m, start):
        raise ProlongabilityError(f"morphism is not prolongable at {start!r}")


def find_expanding_letter(m: Morphism, start: str) -> tuple[str, int]:
    """Smallest power p, and the first letter b != start in alphabet order
    occurring in the fixed point, with b appearing at least twice in
    m^p(b).  Fails after power 2 * alphabet size."""
    _check_source(m, start)
    reachable = _reachable(m, start)
    start_idx = m.domain.index(start)
    candidates = [i for i in range(len(m.domain.symbols))
                  if i != start_idx and i in reachable]
    bound = 2 * len(m.domain.symbols)
    for power in range(1, bound + 1):
        current = m.power(power)
        for i in candidates:
            if np.count_nonzero(current.images[i].indices == i) >= 2:
                return m.domain.symbols[i], power
    raise ConstructionError(
        f"no expanding letter distinct from {start!r} found up to power {bound}")


def _fresh_symbol(base: str, taken: set[str]) -> str:
    name = base + "'"
    while name in taken:
        name += "'"
    return name


@dataclass(frozen=True)
class Construction:
    """A non-uniform presentation of a uniform morphism's fixed point.

    Four values determine it: the k-uniform ``source`` (k >= 2),
    prolongable at ``start``; the ``power`` p, so that ``effective`` =
    source^p has the same fixed point at ``start``; and the ``expanding``
    letter b != start, whose effective image has an interior occurrence
    of b.  Everything else is derived from these, once, on first use.
    The extended alphabet is the source alphabet followed by b' and c',
    in that order.
    """

    source: Morphism
    start: str
    power: int
    expanding: str

    def __post_init__(self):
        _check_source(self.source, self.start)
        if self.expanding == self.start:
            raise ConstructionError("expanding letter must differ from the start symbol")
        if self._interior is None:
            raise ConstructionError(
                f"no interior occurrence of {self.expanding!r} with non-empty flanks")

    @cached_property
    def effective(self) -> Morphism:
        return self.source.power(self.power)

    @cached_property
    def _interior(self) -> Optional[int]:
        # first i with g(b)[i] = b and both g(b)[:i] and g(b)[i + 2:] non-empty
        b = self.source.domain.index(self.expanding)
        hits = np.flatnonzero(self.effective.images[b].indices[1:-2] == b)
        return int(hits[0]) + 1 if hits.size else None

    @cached_property
    def companion(self) -> str:
        """c: the letter after the interior b (it may equal b)."""
        return self.effective.image(self.expanding)[self._interior + 1]

    @cached_property
    def z(self) -> Word:
        return self.effective.image(self.expanding)[:1]

    @cached_property
    def t(self) -> Word:
        """g(b)g(c) without its first letter: longer than z, since k >= 2."""
        return self.effective.image(self.expanding)[1:] + self.effective.image(self.companion)

    @cached_property
    def morphism(self) -> Morphism:
        """g': b -> w1 b' c' w2, b' -> z, c' -> t, every other letter as g."""
        domain = self.source.domain
        n = len(domain.symbols)
        b_new = _fresh_symbol(self.expanding, set(domain.symbols))
        c_new = _fresh_symbol(self.companion, set(domain.symbols) | {b_new})
        extended = Alphabet(domain.symbols + (b_new, c_new))
        # old indices stay valid: the extension appends the new letters
        images = [img.indices for img in self.effective.images] + [self.z.indices,
                                                                   self.t.indices]
        b = domain.index(self.expanding)
        images[b] = images[b].copy()
        images[b][self._interior:self._interior + 2] = (n, n + 1)
        return Morphism(extended, extended, tuple(Word(extended, img) for img in images))

    @cached_property
    def coding(self) -> Morphism:
        """The coding that drops the primes."""
        extended = self.morphism.domain
        old = self.source.domain.symbols
        rules = dict(zip(extended.symbols, old + (self.expanding, self.companion)))
        return Morphism.from_rules(extended, rules, self.source.domain)

    def to_json(self) -> dict:
        data = spec_to_json(MorphicSpec(self.morphism, self.start, self.coding))
        data["provenance"] = {
            "expanding": self.expanding,
            "companion": self.companion,
            "power": self.power,
            "z": list(self.z.tokens()),
            "t": list(self.t.tokens()),
        }
        return data


def construct_nonuniform(m: Morphism, start: str) -> Construction:
    """Build the two-letter extension presenting m's fixed point at start
    as the coded fixed point of a non-uniform morphism.

    The power is that of ``find_expanding_letter``, or twice it when the
    effective image of the expanding letter b has no interior occurrence
    with non-empty flanks.  Twice always builds: with g the power's
    morphism, K = |g(b)| and b at positions i < j of g(b), g^2(b) has b at
    the four positions iK + i, iK + j, jK + i and jK + j, and only three
    of its positions (0, K^2 - 2 and K^2 - 1) are not interior.
    """
    letter, power = find_expanding_letter(m, start)
    try:
        return Construction(m, start, power, letter)
    except ConstructionError:
        return Construction(m, start, 2 * power, letter)


def validation_failures(construction: Construction, length: int) -> list[str]:
    """Empty when the coded fixed point of the output morphism equals the
    source fixed point on a length-`length` prefix.

    Nothing else needs a clause.  g'(b) is the only image holding b' or c',
    side by side strictly inside it, so c' follows every b' of y = g'(y).
    And tau g' = g tau holds on old letters and on b'c'; their images start
    at multiples of k' in y, so no multiple of 2k' splits a b'c' pair, and
    the two commute on every block of width 2k'.
    """
    primed = MorphicSpec(construction.morphism, construction.start).pure_prefix(length)
    coded = construction.coding.apply(primed)
    base = MorphicSpec(construction.effective, construction.start).pure_prefix(length)
    at = coded.first_mismatch(base)
    return [] if at is None else [f"coded fixed point disagrees with the source at index {at}"]
