"""Non-uniform presentations of uniform substitution fixed points.

Given a k-uniform morphism g fixed at a start symbol, there is a letter
b (distinct from the start) that some power of g maps to a word
containing b twice.  After squaring that power enough, its image of b
decomposes as w1 b c w2 with w1 and w2 non-empty, where c is the letter
following the interior b.  Introducing two fresh letters b' and c', the
extended morphism sends b to w1 b' c' w2, keeps every other old letter,
and splits g(b)g(c) = z t into two pieces of different lengths that
become the images of b' and c'.  The result is non-uniform, its fixed
point maps back onto the original one under the coding that drops the
primes, and the images of whole blocks of twice the uniform width
commute with that coding.  ``validation_failures`` checks all of this
on finite prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .words import (Alphabet, DomainError, Morphism, MorphicSpec,
                    ProlongabilityError, Word, is_prolongable, spec_to_json)


class ConstructionError(ValueError):
    """No valid expanding-letter decomposition was found."""


def verify_fixed_point_equality(spec_a: MorphicSpec, spec_b: MorphicSpec,
                                length: int) -> bool:
    """Do two specs produce identical coded prefixes of the given length?"""
    if spec_a.output_alphabet != spec_b.output_alphabet:
        raise DomainError("specs produce sequences over different alphabets")
    return spec_a.prefix(length) == spec_b.prefix(length)


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


def find_expanding_letter(m: Morphism, start: str) -> tuple[str, int]:
    """Smallest power p, and the first letter b != start in alphabet order
    occurring in the fixed point, with b appearing at least twice in
    m^p(b).  Fails after power 2 * alphabet size."""
    width = m.uniform_width
    if width is None or width < 2:
        raise ValueError("expanding-letter search needs a uniform morphism of width >= 2")
    if not is_prolongable(m, start):
        raise ProlongabilityError(f"morphism is not prolongable at {start!r}")
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

    The extended alphabet is the source alphabet followed by the two new
    letters, in that order.  ``effective`` is the source morphism raised
    to ``power``; its fixed point at ``start`` is the same sequence as
    the source's.
    """

    source: Morphism
    start: str
    power: int
    expanding: str
    companion: str
    w1: Word
    w2: Word
    w3: Word
    z: Word
    t: Word
    morphism: Morphism
    coding: Morphism
    block_length: int
    effective: Morphism

    def __post_init__(self):
        problems = self._invariant_problems()
        if problems:
            raise ConstructionError("; ".join(problems))

    @property
    def primed_expanding(self) -> str:
        return self.morphism.domain.symbols[-2]

    @property
    def primed_companion(self) -> str:
        return self.morphism.domain.symbols[-1]

    def _invariant_problems(self) -> list[str]:
        problems = []
        if self.expanding == self.start:
            problems.append("expanding letter must differ from the start symbol")
        if not len(self.w1) or not len(self.w2):
            problems.append("w1 and w2 must be non-empty")
        if not len(self.z) or not len(self.t):
            problems.append("z and t must be non-empty")
        if len(self.z) == len(self.t):
            problems.append("z and t must have different lengths")
        bc = (self.expanding, self.companion)
        if self.z.tokens() + self.t.tokens() != self.w1.tokens() + bc + self.w3.tokens():
            problems.append("z t must spell out w1 b c w3")
        if self.effective.image(self.expanding).tokens() != (
                self.w1.tokens() + bc + self.w2.tokens()):
            problems.append("effective image of b must spell out w1 b c w2")
        primed = (self.primed_expanding, self.primed_companion)
        for sym in self.source.domain.symbols:
            want = (self.w1.tokens() + primed + self.w2.tokens()
                    if sym == self.expanding else self.effective.image(sym).tokens())
            if self.morphism.image(sym).tokens() != want:
                problems.append(f"output image of {sym!r} is wrong")
        if self.morphism.image(self.primed_expanding).tokens() != self.z.tokens():
            problems.append("image of the primed expanding letter must be z")
        if self.morphism.image(self.primed_companion).tokens() != self.t.tokens():
            problems.append("image of the primed companion letter must be t")
        if self.morphism.uniform_width is not None:
            problems.append("output morphism must not be uniform")
        if self.block_length != 2 * (self.effective.uniform_width or 0):
            problems.append("block length must be twice the effective width")
        return problems

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

    The companion is whatever letter follows the first interior
    occurrence of the expanding letter (it may equal it); squaring makes
    room when no interior occurrence leaves both flanks non-empty.  The
    split of w1 b c w3 keeps z a single letter, so the two new images
    always have different lengths.
    """
    letter, power = find_expanding_letter(m, start)
    g = m.power(power)
    domain = m.domain
    b_idx = domain.index(letter)
    interior = None
    for _ in range(3):
        image = g.images[b_idx].indices.tolist()
        for i in range(1, len(image) - 2):
            if image[i] == b_idx:
                interior = i
                break
        if interior is not None:
            break
        g = g.power(2)
        power *= 2
    if interior is None:
        raise ConstructionError(
            f"no interior occurrence of {letter!r} with non-empty flanks")
    c_idx = image[interior + 1]
    companion = domain.symbols[c_idx]
    w1 = Word(domain, image[:interior])
    w2 = Word(domain, image[interior + 2:])
    glued = image + g.images[c_idx].indices.tolist()  # w1 b c w3
    w3 = Word(domain, glued[interior + 2:])
    z = Word(domain, glued[:1])
    t = Word(domain, glued[1:])
    taken = set(domain.symbols)
    b_new = _fresh_symbol(letter, taken)
    taken.add(b_new)
    c_new = _fresh_symbol(companion, taken)
    extended = Alphabet(domain.symbols + (b_new, c_new))
    b_new_idx = extended.index(b_new)
    c_new_idx = extended.index(c_new)
    images = []
    for i in range(len(domain.symbols)):
        if i == b_idx:
            images.append(Word(extended,
                               image[:interior] + [b_new_idx, c_new_idx]
                               + image[interior + 2:]))
        else:
            # old indices stay valid: the extension appends new symbols
            images.append(Word(extended, g.images[i].indices))
    images.append(Word(extended, z.indices))
    images.append(Word(extended, t.indices))
    gprime = Morphism(extended, extended, tuple(images))
    drop_primes = {sym: sym for sym in domain.symbols}
    drop_primes[b_new] = letter
    drop_primes[c_new] = companion
    coding = Morphism.from_rules(extended, drop_primes, domain)
    return Construction(
        source=m, start=start, power=power,
        expanding=letter, companion=companion,
        w1=w1, w2=w2, w3=w3, z=z, t=t,
        morphism=gprime, coding=coding,
        block_length=2 * g.uniform_width, effective=g)


def validation_failures(construction: Construction, length: int) -> list[str]:
    """Empty when the construction checks out on a length-`length` prefix.

    Clauses: (i) the coded fixed point of the output morphism equals the
    source fixed point; (ii) coding and morphism application commute on
    every full block of the output fixed point; (iii) every primed
    expanding letter is immediately followed by the primed companion.
    """
    failures = []
    primed = MorphicSpec(construction.morphism, construction.start).pure_prefix(length)
    coded = construction.coding.apply(primed)
    base = MorphicSpec(construction.effective, construction.start).pure_prefix(length)
    at = coded.first_mismatch(base)
    if at is not None:
        failures.append(f"coded fixed point disagrees with the source at index {at}")
    bad_block = _first_noncommuting_block(construction, primed)
    if bad_block is not None:
        failures.append(f"coding does not commute with the morphisms on block {bad_block}")
    bp = construction.morphism.domain.index(construction.primed_expanding)
    cp = construction.morphism.domain.index(construction.primed_companion)
    indices = primed.indices
    stray = np.flatnonzero((indices[:-1] == bp) & (indices[1:] != cp))
    if stray.size:
        failures.append(
            f"primed expanding letter at index {stray[0]} is not followed by its companion")
    return failures


def _first_noncommuting_block(construction: Construction, primed: Word) -> Optional[int]:
    """First full block j of the word on which coding-after-morphism and
    effective-after-coding give different images, or None.

    Both sides are morphic images, so the images of all full blocks are
    computed at once and cut at the block boundaries; while the image
    lengths of the blocks agree, the boundaries of both sides line up.
    """
    ell = construction.block_length
    blocks = primed[:len(primed) // ell * ell]
    left = construction.coding.apply(construction.morphism.apply(blocks)).indices
    right = construction.effective.apply(construction.coding.apply(blocks)).indices
    sizes = construction.morphism._lengths.take(blocks.indices).reshape(-1, ell).sum(axis=1)
    uneven = np.flatnonzero(sizes != ell * construction.effective.uniform_width)
    # blocks before the first uneven one start at the same offset on both sides
    aligned = int(uneven[0]) if uneven.size else len(sizes)
    ends = np.cumsum(sizes[:aligned])
    end = int(ends[-1]) if aligned else 0
    differ = np.flatnonzero(left[:end] != right[:end])
    if differ.size:
        return int(np.searchsorted(ends, differ[0], side="right"))
    return aligned if uneven.size else None
