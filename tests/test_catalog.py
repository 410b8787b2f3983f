import pytest

from hanoiseq import catalog
from hanoiseq.catalog import (UnknownSequenceError, catalog_lookup,
                              catalog_names, catalog_prefix, morphic_entry)
from hanoiseq.toeplitz import ToeplitzSpec
from hanoiseq.words import MorphicSpec

REQUIRED = (
    "classical-hanoi", "lazy-hanoi", "cyclic-hanoi",
    "classical-hanoi-nonuniform", "lazy-hanoi-nonuniform",
    "period-doubling", "thue-morse", "fibonacci",
    "z-nonuniform", "z-uniform", "paperfolding",
)


def test_required_names_present():
    names = catalog_names()
    for name in REQUIRED:
        assert name in names


def test_classical_hanoi_rules():
    spec = catalog_lookup("classical-hanoi")
    images = {s: spec.morphism.image(s).text() for s in spec.morphism.domain.symbols}
    assert images == {"a": "a C", "b": "c B", "c": "b A",
                      "A": "a c", "B": "c b", "C": "b a"}
    assert spec.start == "a"


def test_lazy_hanoi_rules():
    spec = catalog_lookup("lazy-hanoi")
    images = {s: spec.morphism.image(s).text() for s in spec.morphism.domain.symbols}
    assert images == {"a": "a b a", "A": "a b A", "b": "B A b", "B": "B A B"}


def test_unknown_name_lists_keys():
    with pytest.raises(UnknownSequenceError) as err:
        catalog_lookup("no-such-seq")
    message = err.value.args[0]
    assert "no-such-seq" in message
    assert "classical-hanoi" in message


def test_paperfolding_is_toeplitz_backed():
    entry = catalog_lookup("paperfolding")
    assert isinstance(entry, ToeplitzSpec)
    assert entry.prefix(15).text() == "0 0 1 0 0 1 1 0 0 0 1 1 0 1 1"
    with pytest.raises(UnknownSequenceError):
        morphic_entry("paperfolding")


def test_no_morphic_entry_erases():
    for name in catalog_names():
        entry = catalog_lookup(name)
        if isinstance(entry, MorphicSpec):
            assert not entry.morphism.is_erasing


def test_prefix_helper_matches_entry():
    assert catalog_prefix("thue-morse", 16).text() == \
        catalog_lookup("thue-morse").prefix(16).text()


def test_a_name_is_registered_once():
    with pytest.raises(ValueError, match="^duplicate catalog key 'thue-morse'$"):
        catalog._register("thue-morse", morphic_entry("thue-morse"))
    assert catalog_lookup("thue-morse") is morphic_entry("thue-morse")
