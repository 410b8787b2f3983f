import numpy as np
import pytest

from hanoiseq.catalog import BINARY_ALPHABET, HANOI_ALPHABET, catalog_prefix
from hanoiseq.toeplitz import (NonConvergentError, ToeplitzSpec, fill_pass,
                               toeplitz_expand)
from hanoiseq.words import DomainError

PAPERFOLDING = ToeplitzSpec.from_tokens("0 . 1 .", alphabet=BINARY_ALPHABET)
HANOI_PATTERN = ToeplitzSpec.from_tokens("a C b . c B a . b A c .",
                                         alphabet=HANOI_ALPHABET)


def test_paperfolding_limit_prefix():
    assert toeplitz_expand(PAPERFOLDING, 15).text() == \
        "0 0 1 0 0 1 1 0 0 0 1 1 0 1 1"


def test_hanoi_pattern_gives_classical_prefix():
    expanded = toeplitz_expand(HANOI_PATTERN, 16)
    assert expanded == catalog_prefix("classical-hanoi", 16)


def test_hole_free_pattern_is_periodic():
    spec = ToeplitzSpec.from_tokens("x y")
    assert toeplitz_expand(spec, 5).tokens() == ("x", "y", "x", "y", "x")


def test_matches_morphic_generation_to_100k():
    assert toeplitz_expand(HANOI_PATTERN, 10 ** 5) == \
        catalog_prefix("classical-hanoi", 10 ** 5)


def test_intermediate_fill_stage():
    # one pass over the periodic pattern must give the next periodic stage
    stage0 = ("0 . 1 .".split()) * 4
    stage1 = fill_pass(stage0)
    assert stage1 == tuple("0 0 1 . 0 1 1 .".split()) * 2


def test_fill_is_idempotent_on_hole_free_prefixes():
    limit = toeplitz_expand(PAPERFOLDING, 64).tokens()
    assert fill_pass(limit) == limit


def test_repeated_fill_converges_to_limit():
    length = 256
    stage = list(PAPERFOLDING.pattern) * (length // len(PAPERFOLDING.pattern))
    for _ in range(10):
        stage = list(fill_pass(stage))
    assert tuple(stage) == toeplitz_expand(PAPERFOLDING, length).tokens()


def test_leading_hole_rejected():
    with pytest.raises(NonConvergentError):
        ToeplitzSpec.from_tokens(". 0 1", alphabet=BINARY_ALPHABET)


def test_all_holes_rejected():
    with pytest.raises(NonConvergentError):
        ToeplitzSpec.from_tokens(". . .", alphabet=BINARY_ALPHABET)


def test_pattern_symbol_outside_alphabet():
    with pytest.raises(DomainError):
        ToeplitzSpec.from_tokens("0 2 .", alphabet=BINARY_ALPHABET)


def test_length_zero():
    assert len(toeplitz_expand(PAPERFOLDING, 0)) == 0


class Filled(Exception):
    """Raised in place of np.tile: a level of the expansion was filled."""


def _no_filling(*args, **kwargs):
    raise Filled


def test_fill_budget_refuses_before_any_level_is_filled(monkeypatch):
    monkeypatch.setattr(np, "tile", _no_filling)
    spec = ToeplitzSpec.from_tokens("a" + " ." * 9999)
    with pytest.raises(ValueError, match=r"^toeplitz budget exceeded: a length-1000000 "
                                         r"prefix of this 10000-token pattern fills more "
                                         r"than 268435456 cells$"):
        toeplitz_expand(spec, 10 ** 6)


@pytest.mark.parametrize("pattern,length", [
    ("0 . 1 .", 2 ** 24),
    ("a C b . c B a . b A c .", 2 ** 24),
    # the alternating Hanoi solution for 26 disks, the longest that is solved
    ("a C b . c B a . b A c .", 2 ** 26 - 1),
    ("a . .", 2 ** 24),
])
def test_fill_budget_admits_the_catalog_patterns_at_their_caps(pattern, length,
                                                               monkeypatch):
    # admitted means that the first level gets filled
    monkeypatch.setattr(np, "tile", _no_filling)
    with pytest.raises(Filled):
        toeplitz_expand(ToeplitzSpec.from_tokens(pattern), length)
