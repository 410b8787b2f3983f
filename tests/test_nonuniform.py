import dataclasses
import tracemalloc
import types

import pytest

from hanoiseq.catalog import morphic_entry
from hanoiseq.nonuniform import (Construction, ConstructionError, construct_nonuniform,
                                 find_expanding_letter, validation_failures)
from hanoiseq.words import Morphism, MorphicSpec, Word

UNIFORM_NAMES = ("classical-hanoi", "lazy-hanoi", "period-doubling",
                 "thue-morse", "z-uniform")


def same_prefix(name_a, name_b, length):
    return morphic_entry(name_a).prefix(length) == morphic_entry(name_b).prefix(length)


class TestFixedPointEquality:
    def test_classical_presentations_agree(self):
        assert same_prefix("classical-hanoi-nonuniform", "classical-hanoi", 10 ** 4)

    def test_lazy_presentations_agree(self):
        assert same_prefix("lazy-hanoi-nonuniform", "lazy-hanoi", 10 ** 4)

    def test_identity(self):
        assert same_prefix("period-doubling", "period-doubling", 4096)

    def test_detects_difference(self):
        assert not same_prefix("period-doubling", "thue-morse", 16)

    def test_same_alphabet_as_uniform_counterparts(self):
        # the hand-built non-uniform morphisms add no letters, unlike the
        # generic two-letter extension
        assert morphic_entry("classical-hanoi-nonuniform").morphism.domain == \
            morphic_entry("classical-hanoi").morphism.domain
        assert morphic_entry("lazy-hanoi-nonuniform").morphism.domain == \
            morphic_entry("lazy-hanoi").morphism.domain


class TestFindExpandingLetter:
    def test_thue_morse(self):
        spec = morphic_entry("thue-morse")
        letter, power = find_expanding_letter(spec.morphism, "0")
        assert (letter, power) == ("1", 2)
        image = spec.morphism.power(power).image(letter)
        assert image.text() == "1 0 0 1"
        assert image.tokens().count("1") == 2

    def test_classical_skips_start_symbol(self):
        spec = morphic_entry("classical-hanoi")
        letter, power = find_expanding_letter(spec.morphism, "a")
        assert letter != "a"
        assert (letter, power) == ("b", 2)
        image = spec.morphism.power(power).image(letter)
        assert image.tokens().count("b") >= 2

    def test_period_doubling_needs_power_two(self):
        spec = morphic_entry("period-doubling")
        letter, power = find_expanding_letter(spec.morphism, "1")
        assert (letter, power) == ("0", 2)
        image = spec.morphism.power(power).image(letter)
        assert image.tokens().count("0") >= 2

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            find_expanding_letter(morphic_entry("fibonacci").morphism, "a")


class TestConstruct:
    @pytest.mark.parametrize("name", UNIFORM_NAMES)
    def test_alphabet_grows_by_two(self, name):
        spec = morphic_entry(name)
        construction = construct_nonuniform(spec.morphism, spec.start)
        assert len(construction.morphism.domain.symbols) == \
            len(spec.morphism.domain.symbols) + 2

    @pytest.mark.parametrize("name", UNIFORM_NAMES)
    def test_validates_on_prefix(self, name):
        spec = morphic_entry(name)
        construction = construct_nonuniform(spec.morphism, spec.start)
        assert not validation_failures(construction, 2 ** 12)

    def test_output_is_not_uniform(self):
        spec = morphic_entry("period-doubling")
        construction = construct_nonuniform(spec.morphism, spec.start)
        assert construction.morphism.uniform_width is None
        assert len(construction.z) == 1
        assert len(construction.t) == 2 * construction.effective.uniform_width - 1

    def test_expanding_letter_differs_from_start(self):
        for name in UNIFORM_NAMES:
            spec = morphic_entry(name)
            construction = construct_nonuniform(spec.morphism, spec.start)
            assert construction.expanding != spec.start

    def test_refuses_letter_without_interior_occurrence(self):
        # thue-morse sends 1 to "1 0": no occurrence of 1 has two flanks
        tm = morphic_entry("thue-morse").morphism
        with pytest.raises(ConstructionError, match="no interior occurrence"):
            Construction(tm, "0", 1, "1")
        assert Construction(tm, "0", 4, "1").companion == "0"

    def test_refuses_choices_no_derivation_can_mend(self):
        tm = morphic_entry("thue-morse").morphism
        with pytest.raises(ConstructionError, match="differ from the start"):
            Construction(tm, "0", 2, "0")
        with pytest.raises(ValueError, match="width >= 2"):
            Construction(morphic_entry("fibonacci").morphism, "a", 2, "b")
        # period-doubling sends 0 to "1 1"
        with pytest.raises(ValueError, match="not prolongable"):
            Construction(morphic_entry("period-doubling").morphism, "0", 2, "1")

    def test_four_values_determine_it(self):
        spec = morphic_entry("lazy-hanoi")
        construction = construct_nonuniform(spec.morphism, spec.start)
        assert [f.name for f in dataclasses.fields(construction)] == \
            ["source", "start", "power", "expanding"]
        assert construction == Construction(spec.morphism, spec.start,
                                            construction.power, construction.expanding)

    def test_coded_prefix_equals_source(self):
        spec = morphic_entry("thue-morse")
        construction = construct_nonuniform(spec.morphism, spec.start)
        primed = MorphicSpec(construction.morphism, spec.start).pure_prefix(4096)
        assert construction.coding.apply(primed) == spec.prefix(4096)

    def test_validation_diagnoses_broken_construction(self):
        # a garbled image of c' derails the coded fixed point; no derived
        # value can be garbled, so the attributes validation reads are
        # copied onto a stand-in with the broken morphism
        spec = morphic_entry("thue-morse")
        good = construct_nonuniform(spec.morphism, spec.start)
        extended = good.morphism.domain
        bad_t = Word(extended, good.t.indices[::-1])
        assert bad_t.indices.tolist() != good.t.indices.tolist()
        broken = types.SimpleNamespace(
            start=good.start, coding=good.coding, effective=good.effective,
            morphism=Morphism(extended, extended, good.morphism.images[:-1] + (bad_t,)))
        assert not validation_failures(good, 2 ** 10)
        assert validation_failures(broken, 2 ** 10)

    def test_validation_peaks_below_64_mb_at_its_cap(self):
        # the prefixes of the two fixed points, not images of whole blocks
        spec = morphic_entry("classical-hanoi")
        construction = construct_nonuniform(spec.morphism, spec.start)
        tracemalloc.start()
        try:
            failures = validation_failures(construction, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures == []
        assert peak < 64 * 10 ** 6

    def test_json_provenance(self):
        spec = morphic_entry("period-doubling")
        construction = construct_nonuniform(spec.morphism, spec.start)
        data = construction.to_json()
        assert data["provenance"]["expanding"] == construction.expanding
        assert data["provenance"]["power"] == construction.power
        primed_expanding = construction.morphism.domain.symbols[-2]
        assert data["rules"][primed_expanding] == list(construction.z.tokens())
