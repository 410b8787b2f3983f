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

A non-erasing morphism (no image is empty) whose image of a chosen start
symbol is that symbol followed by at least one more is prolongable there,
and has a unique infinite fixed point starting with it.  MorphicSpec
bundles the morphism, the start symbol and an optional output coding;
its ``prefix`` method materializes finite prefixes of the (coded) fixed
point from their own earlier letters, each expanded once and in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

import numpy as np

TokenSeq = Union[str, Iterable[str]]
_CHUNK = 1 << 16  # letters per gather, so its 8-byte index stays at 512 KiB
_SEPARATORS = {"text": b" ", "json": b", "}  # after each rendered item


class DomainError(ValueError):
    """A symbol or word does not belong to the expected alphabet."""


class ProlongabilityError(ValueError):
    """The morphism has no iterative fixed point at the given start symbol."""


def _tokens(spec: TokenSeq) -> tuple[str, ...]:
    if isinstance(spec, str):
        return tuple(spec.split())
    return tuple(spec)


def _padded(rows: list[np.ndarray], pad: int) -> tuple[np.ndarray, Optional[int]]:
    """Rows stacked into one table of the smallest dtype that holds ``pad``,
    a value no row holds, with short rows filled with it; plus that pad (None
    when all rows have the same length).  Unequal rows are padded to a
    power-of-two width: numpy gathers 2^16 rows of 4 cells 2.8-2.9 times as
    fast as rows of 3, and the gather and pad drop 1.1-1.25 times."""
    width = max(len(row) for row in rows)
    uniform = all(len(row) == width for row in rows)
    if not uniform:
        width = 1 << (width - 1).bit_length()
    table = np.full((len(rows), width), pad, dtype=np.min_scalar_type(pad))
    for i, row in enumerate(rows):
        table[i, :len(row)] = row
    return table, None if uniform else pad


def _concat_rows(table: np.ndarray, pad: Optional[int], letters: np.ndarray) -> np.ndarray:
    """The table rows of the letters, concatenated, pad cells dropped;
    gathered ``_CHUNK`` letters at a time, uniform rows straight into the
    one output array."""
    if len(letters) <= _CHUNK:
        rows = table.take(letters, axis=0).ravel()
        return rows if pad is None else rows.compress(rows != pad)
    if pad is None:
        out = np.empty((len(letters), table.shape[1]), dtype=table.dtype)
        for i in range(0, len(letters), _CHUNK):
            table.take(letters[i:i + _CHUNK], axis=0, out=out[i:i + _CHUNK])
        return out.ravel()
    return np.concatenate([_concat_rows(table, pad, letters[i:i + _CHUNK])
                           for i in range(0, len(letters), _CHUNK)])


def _pieces(cells_of, items, fmt: str):
    """The items in text or, for fmt "json", as one JSON array, rendered and
    decoded ``_CHUNK`` at a time: ``cells_of(run)`` gives each item's UTF-8
    bytes and the format's separator, which is dropped after the last item."""
    if fmt == "json":
        yield "["
    for start in range(0, len(items), _CHUNK):
        cells = cells_of(items[start:start + _CHUNK])
        last = start + _CHUNK >= len(items)
        yield str(cells[:-len(_SEPARATORS[fmt])] if last else cells, "utf-8")
    if fmt == "json":
        yield "]"


def _byte_rows(texts) -> tuple[np.ndarray, Optional[int]]:
    # 0xFF is never a byte of UTF-8
    return _padded([np.frombuffer(t.encode(), dtype=np.uint8) for t in texts], 0xFF)


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
    # per format, (table, pad): each symbol as a byte row, followed by the
    # separator (in a JSON array, the symbol as json.dumps escapes it)
    _cells: dict = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_cells", {
            "text": _byte_rows(s + " " for s in symbols),
            "json": _byte_rows(json.dumps(s) + ", " for s in symbols)})

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
        """The tokens separated by single spaces, in one gather."""
        return str(_concat_rows(*self.alphabet._cells["text"], self.indices)[:-1], "utf-8")

    def pieces(self, fmt: str):
        """The tokens as ``text()`` spells them or, for fmt "json", as
        ``json.dumps`` writes them, in pieces of at most ``_CHUNK`` tokens."""
        return _pieces(lambda run: _concat_rows(*self.alphabet._cells[fmt], run),
                       self.indices, fmt)

    def first_mismatch(self, other: "Word") -> Optional[int]:
        """First index below both lengths where the two words spell
        different tokens, or None; the alphabets may differ."""
        n = min(len(self), len(other))
        # other's symbols as indices into self's alphabet; a symbol self's
        # alphabet lacks gets its size, in the smallest dtype that holds it
        absent = len(self.alphabet)
        lookup = np.array([self.alphabet._index.get(s, absent)
                           for s in other.alphabet.symbols], dtype=np.min_scalar_type(absent))
        # indexing keeps a uint8 index at one byte; take would widen it to eight
        differ = self.indices[:n] != lookup[other.indices[:n]]
        return int(differ.argmax()) if differ.any() else None

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
    # images as one table of codomain indices, short rows filled with the pad,
    # the codomain size (None when the morphism is uniform)
    _table: np.ndarray = field(init=False, repr=False, compare=False)
    _pad: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != len(self.domain.symbols):
            raise ValueError("exactly one image per domain symbol required")
        for img in images:
            if img.alphabet != self.codomain:
                raise DomainError("image word is not over the codomain alphabet")
        table, pad = _padded([img.indices for img in images], len(self.codomain))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_pad", pad)

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

    def apply(self, word: Word) -> Word:
        if word.alphabet != self.domain:
            raise DomainError("word is not over this morphism's domain alphabet")
        return Word._of(self.codomain, _concat_rows(self._table, self._pad, word.indices))

    @property
    def uniform_width(self) -> Optional[int]:
        """Common image length k when the morphism is k-uniform, else None."""
        return self._table.shape[1] if self._pad is None else None

    @property
    def is_erasing(self) -> bool:
        return not all(self.images)

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


def is_prolongable(m: Morphism, start: str) -> bool:
    """True when m is non-erasing and m(start) is start followed by at
    least one more symbol, so that the iterates of start grow without end
    and converge to an infinite fixed point."""
    if m.domain != m.codomain:
        raise DomainError("prolongability needs domain == codomain")
    i0 = m.domain.index(start)
    img = m.images[i0].indices.tolist()
    return not m.is_erasing and len(img) >= 2 and img[0] == i0


@dataclass(frozen=True)
class MorphicSpec:
    """A morphism, a start symbol and an optional output coding.

    Without a coding the spec denotes the pure fixed point of the
    morphism; with one, a 1-uniform morphism on the same alphabet, it
    denotes the symbol-wise image of that fixed point.  Construction
    fails unless the morphism is prolongable at the start symbol, so this
    is the one place that refuses an erasing morphism.
    """

    morphism: Morphism
    start: str
    coding: Optional[Morphism] = None

    def __post_init__(self):
        if not is_prolongable(self.morphism, self.start):
            raise ProlongabilityError(
                f"image of {self.start!r} must begin with it and have another symbol, "
                "and no image may be empty")
        if self.coding is not None:
            if self.coding.domain != self.morphism.domain:
                raise DomainError("coding domain must match the morphism alphabet")
            if self.coding.uniform_width != 1:
                raise ValueError("a coding must map every symbol to exactly one symbol")

    def pure_prefix(self, length: int) -> Word:
        """Length-`length` prefix of the uncoded fixed point."""
        if length < 0:
            raise ValueError("length must be >= 0")
        m = self.morphism
        out = np.empty(length, dtype=m.domain.dtype)
        if length:
            out[0] = m.domain.index(self.start)
        # out[:filled] is a prefix of the fixed point x = m(x), and it is
        # the image of x[:done]; so the image of the next known letters
        # x[done:filled] is the next stretch of x.  x[0] is the start
        # symbol, whose image begins with it, before anything is expanded.
        done = filled = 0
        while filled < length:
            letters = out[done:max(filled, 1)][:_CHUNK]
            image = _concat_rows(m._table, m._pad, letters)[:length - filled]
            out[filled:filled + len(image)] = image
            done += len(letters)
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
