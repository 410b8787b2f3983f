"""Periodic patterns with holes and their self-filled limit sequences.

A pattern is a finite block of tokens plus a distinguished hole token,
written ``.``.  Repeating the block forever and replacing the stream of
holes, in order, by the sequence under construction itself pins down a
unique hole-free limit, provided the block does not begin with a hole.

``toeplitz_expand`` computes limit prefixes level by level: the j-th
hole of the periodic stream carries the value of position j of the
limit, and j is always strictly smaller than the hole's own position, so
the holes of a length-n prefix are filled, in one assignment to the hole
columns of the period-by-period table, by the shorter prefix holding as
many symbols as there are holes.  The levels' cells are counted before
any is filled, and a prefix that would fill more than 2^28 of them is
refused: their number grows with the share of holes in the pattern.
``fill_pass`` performs a single filling step on a finite prefix, holes
included, for inspecting the intermediate stages of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .words import Alphabet, DomainError, TokenSeq, Word, _tokens

HOLE = "."
# cells one expansion may fill, rows x period summed over its levels: about 1 s
_FILL_CELLS_MAX = 1 << 28


class NonConvergentError(ValueError):
    """The pattern cannot pin down a hole-free limit."""


def _check_pattern(pattern: tuple[str, ...]) -> None:
    if not pattern:
        raise NonConvergentError("pattern must not be empty")
    if pattern[0] == HOLE:
        raise NonConvergentError("pattern must not begin with a hole")


@dataclass(frozen=True)
class ToeplitzSpec:
    """A periodic pattern whose holes are filled by the sequence itself."""

    pattern: tuple[str, ...]
    alphabet: Alphabet

    def __post_init__(self):
        pattern = _tokens(self.pattern)
        object.__setattr__(self, "pattern", pattern)
        _check_pattern(pattern)
        if HOLE in self.alphabet:
            raise ValueError(f"hole token {HOLE!r} collides with an alphabet symbol")
        for tok in pattern:
            if tok != HOLE and tok not in self.alphabet:
                raise DomainError(f"pattern symbol {tok!r} is not in the alphabet")

    @classmethod
    def from_tokens(cls, tokens: TokenSeq,
                    alphabet: Optional[Alphabet] = None) -> "ToeplitzSpec":
        toks = _tokens(tokens)
        if alphabet is None:
            _check_pattern(toks)  # before its symbols make an alphabet
            seen: list[str] = []
            for t in toks:
                if t != HOLE and t not in seen:
                    seen.append(t)
            alphabet = Alphabet(tuple(seen))
        return cls(toks, alphabet)

    def prefix(self, length: int) -> Word:
        return toeplitz_expand(self, length)


def toeplitz_expand(spec: ToeplitzSpec, length: int) -> Word:
    """Hole-free prefix of the limit obtained by self-filling the pattern."""
    if length < 0:
        raise ValueError("length must be >= 0")
    alphabet = spec.alphabet
    period = len(spec.pattern)
    is_hole = np.array([t == HOLE for t in spec.pattern])
    cells = np.array([0 if t == HOLE else alphabet.index(t) for t in spec.pattern],
                     dtype=alphabet.dtype)
    holes_before = np.concatenate(([0], np.cumsum(is_hole)))
    hole_columns = np.flatnonzero(is_hole)
    # the holes of a length-n prefix take the first holes(n) < n symbols
    # of the limit, so the prefix lengths shrink level by level down to 0
    lengths = [length]
    work = 0
    while lengths[-1]:
        n = lengths[-1]
        work += -(-n // period) * period
        if work > _FILL_CELLS_MAX:
            raise ValueError(f"toeplitz budget exceeded: a length-{length} prefix of this "
                             f"{period}-token pattern fills more than {_FILL_CELLS_MAX} cells")
        lengths.append(int((n // period) * holes_before[period] + holes_before[n % period]))
    out = np.empty(0, dtype=alphabet.dtype)
    for n in reversed(lengths[:-1]):
        # one row per period; the hole columns take the shorter prefix in
        # row order, and the holes past n get zeros that the cut drops
        rows = -(-n // period)
        level = np.tile(cells, (rows, 1))
        fill = np.zeros(rows * len(hole_columns), dtype=alphabet.dtype)
        fill[:len(out)] = out
        level[:, hole_columns] = fill.reshape(rows, len(hole_columns))
        out = level.ravel()[:n]
    return Word._of(alphabet, out)


def fill_pass(tokens: TokenSeq) -> tuple[str, ...]:
    """One filling step: replace the holes, in order, by the sequence itself.

    Works on a finite prefix; the replacement values are drawn from the
    unmodified input, so holes may receive holes again.
    """
    seq = _tokens(tokens)
    out = list(seq)
    j = 0
    for i, tok in enumerate(seq):
        if tok == HOLE:
            if j >= len(seq):
                raise NonConvergentError("prefix too short to fill its own holes")
            out[i] = seq[j]
            j += 1
    return tuple(out)
