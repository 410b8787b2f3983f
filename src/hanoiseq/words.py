"""Alphabets, words, morphisms, codings and iterative fixed points.

Words are immutable sequences of symbol indices over a fixed alphabet,
stored as one read-only numpy array of the smallest unsigned dtype that
holds the alphabet (``uint8`` up to 256 symbols).  Equality and hashing
are by value, and ``Word + Word`` concatenates.  Symbols are arbitrary
text tokens; barred letters are written as the matching uppercase token,
so the bar of ``a`` is ``A`` and ``a C b a`` reads "a, c-bar, b, a".  A
morphism sends every symbol of its domain alphabet to a word over its
codomain alphabet and extends to words by concatenating the images.  A
coding is the symbol-to-symbol case: a morphism whose images are single
letters, that is, a 1-uniform morphism.

A morphism whose image of a chosen start symbol begins with that symbol
(and whose remainder never dies out under iteration) has a unique
infinite fixed point starting there.  MorphicSpec bundles the morphism,
the start symbol and an optional output coding; its ``prefix`` method
materializes finite prefixes of the (coded) fixed point level by level.
Each level expands, in one whole-array gather, only the letters the
previous level added, and the last level only the letters the requested
length needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

import numpy as np

TokenSeq = Union[str, Iterable[str]]


class DomainError(ValueError):
    """A symbol or word does not belong to the expected alphabet."""


class ProlongabilityError(ValueError):
    """The morphism has no iterative fixed point at the given start symbol."""


def _tokens(spec: TokenSeq) -> tuple[str, ...]:
    if isinstance(spec, str):
        return tuple(spec.split())
    return tuple(spec)


def _padded(rows: list[np.ndarray], dtype) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Rows stacked into one zero-padded table, plus the mask of the real
    cells (None when all rows have the same length).  Rows of unequal
    length are padded to a power-of-two width, because numpy gathers rows
    of 2, 4 or 8 cells several times faster than rows of 3, 5 or 6."""
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    width = int(lengths.max())
    uniform = bool((lengths == width).all())
    if not uniform:
        width = 1 << (width - 1).bit_length()
    table = np.zeros((len(rows), width), dtype=dtype)
    for i, row in enumerate(rows):
        table[i, :len(row)] = row
    if uniform:
        return table, None
    return table, np.arange(width) < lengths[:, None]


def _concat_rows(table: np.ndarray, mask: Optional[np.ndarray],
                 letters: np.ndarray) -> np.ndarray:
    """The table rows of the letters, concatenated, padding dropped."""
    rows = table.take(letters, axis=0).ravel()
    return rows if mask is None else rows.compress(mask.take(letters, axis=0).ravel())


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct symbol tokens.

    ``dtype`` is the smallest unsigned integer type that holds every
    symbol index; words over the alphabet store their indices in it.
    """

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    dtype: np.dtype = field(init=False, repr=False, compare=False)
    _objects: np.ndarray = field(init=False, repr=False, compare=False)
    _text: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        symbols = _tokens(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValueError("alphabet needs at least one symbol")
        index: dict[str, int] = {}
        for pos, sym in enumerate(symbols):
            if not sym:
                raise ValueError("empty symbol token")
            if sym in index:
                raise ValueError(f"duplicate symbol {sym!r}")
            index[sym] = pos
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "dtype", np.min_scalar_type(len(symbols) - 1))
        object.__setattr__(self, "_objects", np.array(symbols, dtype=object))
        # each symbol's UTF-8 bytes plus the separating space, for text()
        encoded = [np.frombuffer(s.encode() + b" ", dtype=np.uint8) for s in symbols]
        object.__setattr__(self, "_text", _padded(encoded, np.uint8))

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise DomainError(
                f"symbol {symbol!r} is not in the alphabet {list(self.symbols)}"
            ) from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self._index


@dataclass(frozen=True, eq=False)
class Word:
    """Finite sequence of symbol indices over an alphabet (may be empty).

    ``indices`` is a read-only numpy array of ``alphabet.dtype``.  Indices
    given from outside (a tuple, list or array) are range-checked before
    they are cast, so a negative or too-large index raises DomainError
    instead of wrapping around.
    """

    alphabet: Alphabet
    indices: np.ndarray = ()

    def __post_init__(self):
        indices = self.indices
        n = len(self.alphabet.symbols)
        if isinstance(indices, np.ndarray):
            bad = indices.size and (indices.min() < 0 or indices.max() >= n)
        else:
            indices = tuple(indices)
            bad = indices and (min(indices) < 0 or max(indices) >= n)
        if bad:
            raise DomainError("word index out of range for its alphabet")
        array = np.array(indices, dtype=self.alphabet.dtype)
        array.flags.writeable = False
        object.__setattr__(self, "indices", array)

    @classmethod
    def _of(cls, alphabet: Alphabet, indices: np.ndarray) -> "Word":
        # trusted indices (computed from words over the same alphabet): no rescan
        word = object.__new__(cls)
        indices = np.asarray(indices, dtype=alphabet.dtype)
        indices.flags.writeable = False
        object.__setattr__(word, "alphabet", alphabet)
        object.__setattr__(word, "indices", indices)
        return word

    @classmethod
    def from_tokens(cls, alphabet: Alphabet, tokens: TokenSeq) -> "Word":
        return cls._of(alphabet, np.array([alphabet.index(t) for t in _tokens(tokens)],
                                          dtype=alphabet.dtype))

    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet._objects.take(self.indices).tolist())

    def text(self) -> str:
        table, mask = self.alphabet._text
        return _concat_rows(table, mask, self.indices)[:-1].tobytes().decode()

    def support(self) -> tuple[str, ...]:
        """Symbols that actually occur, in alphabet order."""
        used = np.bincount(self.indices, minlength=len(self.alphabet.symbols))
        return tuple(s for s, count in zip(self.alphabet.symbols, used) if count)

    def startswith(self, other: "Word") -> bool:
        return (self.alphabet == other.alphabet and len(other) <= len(self)
                and np.array_equal(self.indices[:len(other)], other.indices))

    def first_mismatch(self, other: "Word") -> Optional[int]:
        """First index below both lengths where the two words spell
        different tokens, or None; the alphabets may differ."""
        n = min(len(self), len(other))
        # other's symbols as indices into self's alphabet, -1 if absent
        lookup = np.array([self.alphabet._index.get(s, -1)
                           for s in other.alphabet.symbols], dtype=np.int64)
        differ = np.flatnonzero(self.indices[:n] != lookup.take(other.indices[:n]))
        return int(differ[0]) if differ.size else None

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Word._of(self.alphabet, self.indices[key])
        return self.alphabet.symbols[self.indices.item(key)]

    def __iter__(self):
        return iter(self.tokens())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (self.alphabet == other.alphabet
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash((self.alphabet, self.indices.tobytes()))

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise DomainError("cannot concatenate words over different alphabets")
        return Word._of(self.alphabet, np.concatenate((self.indices, other.indices)))


@dataclass(frozen=True)
class Morphism:
    """Map from symbols to words, extended to words by concatenation."""

    domain: Alphabet
    codomain: Alphabet
    images: tuple[Word, ...]
    # images as one zero-padded table of codomain indices, with the mask of
    # real cells (None when the morphism is uniform), and the image lengths
    _table: np.ndarray = field(init=False, repr=False, compare=False)
    _mask: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != len(self.domain.symbols):
            raise ValueError("exactly one image per domain symbol required")
        for img in images:
            if img.alphabet != self.codomain:
                raise DomainError("image word is not over the codomain alphabet")
        table, mask = _padded([img.indices for img in images], self.codomain.dtype)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "_lengths",
                           np.array([len(img) for img in images], dtype=np.int64))

    @classmethod
    def from_rules(cls, domain: Alphabet, rules: Mapping[str, TokenSeq],
                   codomain: Optional[Alphabet] = None) -> "Morphism":
        codomain = domain if codomain is None else codomain
        unknown = set(rules) - set(domain.symbols)
        if unknown:
            raise DomainError(f"rules mention symbols outside the domain: {sorted(unknown)}")
        images = []
        for sym in domain.symbols:
            if sym not in rules:
                raise ValueError(f"no image given for symbol {sym!r}")
            images.append(Word.from_tokens(codomain, rules[sym]))
        return cls(domain, codomain, tuple(images))

    def image(self, symbol: str) -> Word:
        return self.images[self.domain.index(symbol)]

    def _expand(self, letters: np.ndarray) -> np.ndarray:
        return _concat_rows(self._table, self._mask, letters)

    def apply(self, word: Word) -> Word:
        if word.alphabet != self.domain:
            raise DomainError("word is not over this morphism's domain alphabet")
        return Word._of(self.codomain, self._expand(word.indices))

    @property
    def uniform_width(self) -> Optional[int]:
        """Common image length k when the morphism is k-uniform, else None."""
        return self._table.shape[1] if self._mask is None else None

    @property
    def is_erasing(self) -> bool:
        return not self._lengths.all()

    def power(self, n: int) -> "Morphism":
        """n-fold composition of an endomorphism with itself."""
        if self.domain != self.codomain:
            raise DomainError("powers need domain == codomain")
        if n < 1:
            raise ValueError("power must be >= 1")
        result = self
        for _ in range(n - 1):
            result = Morphism(self.domain, self.codomain,
                              tuple(result.apply(img) for img in self.images))
        return result


def _mortal_letters(m: Morphism) -> frozenset[int]:
    # letters whose iterated image eventually becomes the empty word
    images = [img.indices.tolist() for img in m.images]
    mortal = {i for i, img in enumerate(images) if not img}
    changed = True
    while changed:
        changed = False
        for i, img in enumerate(images):
            if i not in mortal and img and all(j in mortal for j in img):
                mortal.add(i)
                changed = True
    return frozenset(mortal)


def is_prolongable(m: Morphism, start: str) -> bool:
    """True when m(start) begins with start and its tail keeps producing
    symbols under iteration (so the iterative fixed point exists)."""
    if m.domain != m.codomain:
        raise DomainError("prolongability needs domain == codomain")
    i0 = m.domain.index(start)
    img = m.images[i0].indices.tolist()
    if len(img) < 2 or img[0] != i0:
        return False
    mortal = _mortal_letters(m)
    return any(i not in mortal for i in img[1:])


@dataclass(frozen=True)
class MorphicSpec:
    """A morphism, a start symbol and an optional output coding.

    Without a coding the spec denotes the pure fixed point of the
    morphism; with one, a 1-uniform morphism on the same alphabet, it
    denotes the symbol-wise image of that fixed point.  Construction
    fails unless the morphism is prolongable at the start symbol.
    """

    morphism: Morphism
    start: str
    coding: Optional[Morphism] = None

    def __post_init__(self):
        if self.morphism.domain != self.morphism.codomain:
            raise DomainError("fixed points need an endomorphism")
        if not is_prolongable(self.morphism, self.start):
            raise ProlongabilityError(
                f"image of {self.start!r} must begin with it and keep growing under iteration")
        if self.coding is not None:
            if self.coding.domain != self.morphism.domain:
                raise DomainError("coding domain must match the morphism alphabet")
            if self.coding.uniform_width != 1:
                raise ValueError("a coding must map every symbol to exactly one symbol")

    @property
    def output_alphabet(self) -> Alphabet:
        return self.coding.codomain if self.coding else self.morphism.domain

    @property
    def radix(self) -> Optional[int]:
        return self.morphism.uniform_width

    def pure_prefix(self, length: int) -> Word:
        """Length-`length` prefix of the uncoded fixed point."""
        if length < 0:
            raise ValueError("length must be >= 0")
        m = self.morphism
        width = m.uniform_width
        longest = int(m._lengths.max())
        out = np.empty(length, dtype=m.domain.dtype)
        if length:
            out[0] = m.domain.index(self.start)
        # out[:filled] is a prefix of the fixed point x = m(x), and it is
        # the image of x[:done]; so the image of x[done:filled] is the next
        # stretch of x.  x[0] is the start symbol before anything is
        # expanded.  Each letter is expanded once, and only the letters
        # whose images reach `length` symbols are expanded.
        done = filled = 0
        while filled < length:
            letters = out[done:max(filled, 1)]
            rest = length - filled
            if width:
                letters = letters[:-(-rest // width)]
            elif len(letters) * longest > rest:
                ends = np.cumsum(m._lengths.take(letters))
                letters = letters[:int(np.searchsorted(ends, rest)) + 1]
            image = m._expand(letters)[:rest]
            done = max(filled, 1)
            out[filled:filled + len(image)] = image
            filled += len(image)
        return Word._of(m.domain, out)

    def prefix(self, length: int) -> Word:
        word = self.pure_prefix(length)
        return self.coding.apply(word) if self.coding else word


def spec_to_json(spec: MorphicSpec) -> dict:
    """Plain-dict form: alphabet, rules, start and optional coding."""
    data = {
        "alphabet": list(spec.morphism.domain.symbols),
        "rules": {s: list(spec.morphism.image(s).tokens())
                  for s in spec.morphism.domain.symbols},
        "start": spec.start,
    }
    if spec.coding is not None:
        data["coding"] = {s: spec.coding.image(s)[0]
                          for s in spec.coding.domain.symbols}
    return data


def spec_from_json(data: Mapping) -> MorphicSpec:
    alphabet = Alphabet(tuple(data["alphabet"]))
    morphism = Morphism.from_rules(alphabet, data["rules"])
    coding = None
    if data.get("coding"):
        rules = data["coding"]
        # the codomain lists the image symbols in the order they first occur
        seen = dict.fromkeys(t for s in alphabet.symbols for t in _tokens(rules.get(s, ())))
        coding = Morphism.from_rules(alphabet, rules, Alphabet(tuple(seen)))
    return MorphicSpec(morphism, data["start"], coding)
