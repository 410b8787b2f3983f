"""The named sequences shipped with the library.

Every entry is either a MorphicSpec or, for sequences built through a
hole-filling pattern, a ToeplitzSpec; both expose ``prefix(length)``.
Erasing morphisms are rejected at registration time, and every morphic
entry is validated for prolongability when it is constructed.
"""

from __future__ import annotations

from typing import Union

from .toeplitz import ToeplitzSpec
from .words import Alphabet, Morphism, MorphicSpec, Word

CatalogEntry = Union[MorphicSpec, ToeplitzSpec]


class UnknownSequenceError(KeyError):
    """Requested name is not in the catalog."""


HANOI_ALPHABET = Alphabet(("a", "b", "c", "A", "B", "C"))
LAZY_ALPHABET = Alphabet(("a", "b", "A", "B"))
CYCLIC_STATE_ALPHABET = Alphabet(("f", "g", "h", "u", "v", "w"))
CYCLIC_MOVE_ALPHABET = Alphabet(("a", "b", "c"))
BINARY_ALPHABET = Alphabet(("0", "1"))
FIBONACCI_ALPHABET = Alphabet(("a", "b"))
TERNARY_ALPHABET = Alphabet(("0", "1", "2"))
Z_UNIFORM_ALPHABET = Alphabet(("0", "1", "2", "4"))

_CATALOG: dict[str, CatalogEntry] = {}


def _register(name: str, entry: CatalogEntry) -> None:
    if name in _CATALOG:
        raise ValueError(f"duplicate catalog key {name!r}")
    if isinstance(entry, MorphicSpec) and entry.morphism.is_erasing:
        raise ValueError(f"{name}: erasing morphisms are not supported")
    _CATALOG[name] = entry


_register("classical-hanoi", MorphicSpec(
    Morphism.from_rules(HANOI_ALPHABET, {
        "a": "a C", "b": "c B", "c": "b A",
        "A": "a c", "B": "c b", "C": "b a"}),
    "a"))

_register("lazy-hanoi", MorphicSpec(
    Morphism.from_rules(LAZY_ALPHABET, {
        "a": "a b a", "A": "a b A", "b": "B A b", "B": "B A B"}),
    "a"))

_register("cyclic-hanoi", MorphicSpec(
    Morphism.from_rules(CYCLIC_STATE_ALPHABET, {
        "f": "f v f", "g": "g w g", "h": "h u h",
        "u": "f g", "v": "g h", "w": "h f"}),
    "f",
    Morphism.from_rules(CYCLIC_STATE_ALPHABET, {
        "f": "a", "w": "a", "g": "c", "u": "c", "h": "b", "v": "b"},
        CYCLIC_MOVE_ALPHABET)))

_register("classical-hanoi-nonuniform", MorphicSpec(
    Morphism.from_rules(HANOI_ALPHABET, {
        "a": "a C b", "b": "B", "c": "A c",
        "A": "a c b", "B": "b", "C": "a c"}),
    "a"))

_register("lazy-hanoi-nonuniform", MorphicSpec(
    Morphism.from_rules(LAZY_ALPHABET, {
        "a": "a b a B", "b": "A b", "A": "a b A B", "B": "A B"}),
    "a"))

_register("period-doubling", MorphicSpec(
    Morphism.from_rules(BINARY_ALPHABET, {"1": "1 0", "0": "1 1"}),
    "1"))

_register("thue-morse", MorphicSpec(
    Morphism.from_rules(BINARY_ALPHABET, {"0": "0 1", "1": "1 0"}),
    "0"))

_register("fibonacci", MorphicSpec(
    Morphism.from_rules(FIBONACCI_ALPHABET, {"a": "a b", "b": "a"}),
    "a"))

_register("z-nonuniform", MorphicSpec(
    Morphism.from_rules(TERNARY_ALPHABET, {"2": "2 1 0", "1": "2 0", "0": "1"}),
    "2"))

_register("z-uniform", MorphicSpec(
    Morphism.from_rules(Z_UNIFORM_ALPHABET, {
        "2": "2 1", "1": "0 2", "0": "0 4", "4": "2 0"}),
    "2",
    Morphism.from_rules(Z_UNIFORM_ALPHABET, {"0": "0", "1": "1", "2": "2", "4": "1"},
                        TERNARY_ALPHABET)))

_register("paperfolding",
          ToeplitzSpec.from_tokens("0 . 1 .", alphabet=BINARY_ALPHABET))

_register("classical-hanoi-toeplitz",
          ToeplitzSpec.from_tokens("a C b . c B a . b A c .", alphabet=HANOI_ALPHABET))


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog_lookup(name: str) -> CatalogEntry:
    """Registered entry for the name, or UnknownSequenceError listing keys."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownSequenceError(
            f"unknown sequence {name!r}; available: {', '.join(catalog_names())}"
        ) from None


def catalog_prefix(name: str, length: int) -> Word:
    return catalog_lookup(name).prefix(length)


def morphic_entry(name: str) -> MorphicSpec:
    """Like catalog_lookup but rejects entries with no morphism behind them."""
    entry = catalog_lookup(name)
    if not isinstance(entry, MorphicSpec):
        raise UnknownSequenceError(
            f"{name!r} is generated by a Toeplitz pattern, not a morphism")
    return entry
