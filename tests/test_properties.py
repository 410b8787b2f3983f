"""Derandomized property tests: random morphisms, codings, patterns and
words against plain-Python reference implementations kept here."""

import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hanoiseq import hanoi
from hanoiseq.algebra import Relation, poly_gcd, truncated_product
from hanoiseq.automaton import dfao_from_uniform_morphism
from hanoiseq.catalog import BINARY_ALPHABET, HANOI_ALPHABET, catalog_prefix
from hanoiseq.classicseq import derive_U, derive_Z
from hanoiseq.hanoi import factor_census, squarefree_check
from hanoiseq.nonuniform import (ConstructionError, _first_noncommuting_block,
                                 construct_nonuniform, validation_failures)
from hanoiseq.toeplitz import HOLE, ToeplitzSpec, fill_pass, toeplitz_expand
from hanoiseq.words import (Alphabet, Morphism, MorphicSpec, Word, spec_from_json,
                            spec_to_json)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def alphabet_of(size: int) -> Alphabet:
    return Alphabet(tuple(f"s{i}" for i in range(size)))


@st.composite
def morphisms(draw, uniform=None, max_letters=6):
    """Non-erasing morphism over 1-6 letters, images of 1-4 letters, whose
    image of letter 0 starts with 0 and has length >= 2 (so it is
    prolongable at letter 0)."""
    size = draw(st.integers(1, max_letters))
    if uniform is None:
        uniform = draw(st.booleans())
    width = draw(st.integers(2, 4))
    images = []
    for i in range(size):
        length = width if uniform else draw(st.integers(2 if i == 0 else 1, 4))
        image = draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length))
        if i == 0:
            image[0] = 0
        images.append(image)
    return images


def coding_of(domain: Alphabet, codomain: Alphabet, table) -> Morphism:
    """The 1-uniform morphism sending domain letter i to codomain letter table[i]."""
    return Morphism(domain, codomain, tuple(Word(codomain, (j,)) for j in table))


def build_spec(images, coding_table=None) -> MorphicSpec:
    alphabet = alphabet_of(len(images))
    morphism = Morphism(alphabet, alphabet, tuple(Word(alphabet, img) for img in images))
    coding = None
    if coding_table is not None:
        coding = coding_of(alphabet, alphabet_of(max(coding_table) + 1), coding_table)
    return MorphicSpec(morphism, "s0", coding)


def reference_prefix(images, length, coding_table=None):
    current = [0]
    while len(current) < length:
        current = [j for i in current for j in images[i]]
    current = current[:length]
    return [coding_table[i] for i in current] if coding_table else current


@PROPERTY
@given(st.data(), st.integers(0, 300))
def test_prefix_matches_reference_expansion(data, length):
    images = data.draw(morphisms())
    coding_table = data.draw(st.none() | st.lists(
        st.integers(0, 2), min_size=len(images), max_size=len(images)))
    spec = build_spec(images, coding_table)
    assert spec.prefix(length).indices.tolist() == \
        reference_prefix(images, length, coding_table)


@PROPERTY
@given(st.data())
def test_automaton_evaluates_the_prefix(data):
    images = data.draw(morphisms(uniform=True))
    coding_table = data.draw(st.none() | st.lists(
        st.integers(0, 2), min_size=len(images), max_size=len(images)))
    spec = build_spec(images, coding_table)
    dfao = dfao_from_uniform_morphism(spec)
    prefix = spec.prefix(200).tokens()
    assert [dfao.eval(i) for i in range(200)] == list(prefix)


@PROPERTY
@given(st.data(), st.integers(0, 200))
def test_coded_spec_survives_json(data, length):
    images = data.draw(morphisms())
    morphism = build_spec(images).morphism
    domain = morphism.domain
    names = data.draw(st.permutations(["t0", "t1", "t2", "t3"]))
    table = data.draw(st.lists(st.sampled_from(names), min_size=len(images),
                               max_size=len(images)))
    rules = dict(zip(domain.symbols, table))
    # spec_from_json lists the image symbols in the order they first occur
    seen = Alphabet(tuple(dict.fromkeys(table)))
    spec = MorphicSpec(morphism, "s0", Morphism.from_rules(domain, rules, seen))
    assert spec_from_json(spec_to_json(spec)).prefix(length) == spec.prefix(length)
    # over a codomain in another order, or with unused symbols, the terms survive
    wide = MorphicSpec(morphism, "s0", Morphism.from_rules(domain, rules, Alphabet(names)))
    again = spec_from_json(spec_to_json(wide))
    assert again.output_alphabet == seen
    assert again.prefix(length).tokens() == wide.prefix(length).tokens()


@PROPERTY
@given(st.data())
def test_coding_images_must_be_single_letters(data):
    spec = build_spec(data.draw(morphisms()))
    domain = spec.morphism.domain
    lengths = [1] * len(domain)
    lengths[data.draw(st.integers(0, len(domain) - 1))] = data.draw(st.sampled_from([0, 2]))
    coding = Morphism(domain, BINARY_ALPHABET,
                      tuple(Word(BINARY_ALPHABET, [1] * k) for k in lengths))
    with pytest.raises(ValueError, match="exactly one symbol"):
        MorphicSpec(spec.morphism, spec.start, coding)
    as_json = spec_to_json(spec)
    as_json["coding"] = {s: " ".join(["1"] * k) for s, k in zip(domain.symbols, lengths)}
    with pytest.raises(ValueError):
        spec_from_json(as_json)


@PROPERTY
@given(st.lists(st.integers(0, 5), max_size=40), st.integers(0, 10), st.integers(0, 10))
def test_word_identity_is_by_value(indices, head, tail):
    padded = [0] * head + indices + [1] * tail
    built = [Word(HANOI_ALPHABET, tuple(indices)),
             Word(HANOI_ALPHABET, list(indices)),
             Word(HANOI_ALPHABET, np.array(indices, dtype=np.int64)),
             Word(HANOI_ALPHABET, padded)[head:head + len(indices)]]
    for word in built:
        assert word == built[0]
        assert hash(word) == hash(built[0])
        assert word.indices.tolist() == indices
    assert len(set(built)) == 1
    if indices:
        other = list(indices)
        other[-1] = (other[-1] + 1) % 6
        assert Word(HANOI_ALPHABET, other) != built[0]


@st.composite
def patterns(draw):
    symbols = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-1, symbols - 1), min_size=1, max_size=8))
    cells[0] = max(cells[0], 0)
    return [HOLE if c < 0 else f"x{c}" for c in cells]


@PROPERTY
@given(patterns(), st.integers(1, 200))
def test_repeated_fill_pass_converges_to_expansion(pattern, length):
    spec = ToeplitzSpec.from_tokens(pattern)
    stage = tuple((pattern * length)[:length])
    while HOLE in stage:
        stage = fill_pass(stage)
    assert stage == toeplitz_expand(spec, length).tokens()


@PROPERTY
@given(morphisms(uniform=True, max_letters=4))
def test_construction_validates_or_raises(images):
    spec = build_spec(images)
    try:
        construction = construct_nonuniform(spec.morphism, spec.start)
    except ConstructionError:
        return
    assert not validation_failures(construction, 512)


def reference_noncommuting_block(construction, primed):
    ell = construction.block_length
    for j in range(len(primed) // ell):
        block = primed[j * ell:(j + 1) * ell]
        left = construction.coding.apply(construction.morphism.apply(block))
        right = construction.effective.apply(construction.coding.apply(block))
        if left != right:
            return j
    return None


@PROPERTY
@given(st.data())
def test_first_noncommuting_block_matches_block_loop(data):
    # the source letters commute by construction; one extra letter gets a
    # random image, and the word carries it at a few random places, so the
    # first failing block (if any) can come late
    source = alphabet_of(data.draw(st.integers(1, 3)))
    n_src = len(source.symbols)
    extended = Alphabet(source.symbols + ("bad",))
    width = data.draw(st.integers(1, 3))
    letter = st.integers(0, n_src - 1)
    effective_images = [data.draw(st.lists(letter, min_size=width, max_size=width))
                        for _ in range(n_src)]
    bad_image = data.draw(st.lists(st.integers(0, n_src), max_size=2 * width))
    construction = types.SimpleNamespace(
        block_length=data.draw(st.integers(1, 4)),
        effective=Morphism(source, source, tuple(Word(source, img)
                                                 for img in effective_images)),
        morphism=Morphism(extended, extended, tuple(
            Word(extended, img) for img in effective_images + [bad_image])),
        coding=coding_of(extended, source, tuple(range(n_src)) + (data.draw(letter),)))
    primed = data.draw(st.lists(letter, min_size=8, max_size=60))
    for _ in range(data.draw(st.integers(0, 3))):
        primed.insert(data.draw(st.integers(0, len(primed))), n_src)
    word = Word(extended, primed)
    assert _first_noncommuting_block(construction, word) == \
        reference_noncommuting_block(construction, word)


@PROPERTY
@given(st.lists(st.integers(0, 5), max_size=80), st.integers(1, 30), st.booleans())
def test_factor_census_matches_window_scan(indices, width, aligned):
    # widths above 24 take the unpacked path: 6^25 does not fit in 64 bits
    word = Word(HANOI_ALPHABET, indices)
    step = width if aligned else 1
    expected = {tuple(indices[i:i + width])
                for i in range(0, len(indices) - width + 1, step)}
    got = factor_census(word, width, aligned)
    assert {tuple(b.indices.tolist()) for b in got} == expected
    assert all(b.alphabet == HANOI_ALPHABET for b in got)


@PROPERTY
@given(st.lists(st.integers(0, 5), max_size=200))
def test_derive_U_is_the_running_plain_count(indices):
    plain = {HANOI_ALPHABET.index(s) for s in "abc"}
    expected, total = [], 0
    for i in indices:
        total += i in plain
        expected.append(total)
    assert derive_U(Word(HANOI_ALPHABET, indices)).values.tolist() == expected


@PROPERTY
@given(st.lists(st.integers(0, 1), max_size=200))
def test_derive_Z_lists_the_gaps_between_zeros(bits):
    bits = [0] + bits
    zeros = [i for i, b in enumerate(bits) if b == BINARY_ALPHABET.index("0")]
    expected = [b - a - 1 for a, b in zip(zeros, zeros[1:])]
    assert derive_Z(Word(BINARY_ALPHABET, bits)).values.tolist() == expected


@PROPERTY
@given(st.lists(st.integers(0, 5), max_size=50), st.lists(st.integers(0, 3), max_size=50))
def test_first_mismatch_compares_tokens(left, right):
    other = Alphabet(("a", "B", "x", "c"))  # shares "a" and "c" with the move letters
    a, b = Word(HANOI_ALPHABET, left), Word(other, right)
    ta, tb = a.tokens(), b.tokens()
    expected = next((i for i in range(min(len(ta), len(tb))) if ta[i] != tb[i]), None)
    assert a.first_mismatch(b) == expected


CLASSICAL = catalog_prefix("classical-hanoi", 1100).indices.tolist()


@PROPERTY
@given(st.integers(0, 1000), st.integers(0, 40), st.lists(st.integers(0, 2), max_size=20),
       st.booleans(), st.integers(1, 40))
def test_squarefree_check_finds_the_earliest_square(start, length, tail, doubled, max_period):
    # a square-free stretch of the classical sequence, then a tail over three
    # letters: the earliest square starts late and often has several periods;
    # doubling the whole word puts a long square in front of the short ones
    indices = CLASSICAL[start:start + length] + tail
    if doubled:
        indices += indices
    n = len(indices)
    expected = next(((pos, p) for pos in range(n)
                     for p in range(1, min(max_period, (n - pos) // 2) + 1)
                     if indices[pos:pos + p] == indices[pos + p:pos + 2 * p]), None)
    assert squarefree_check(Word(HANOI_ALPHABET, indices), max_period) == expected


def poly_times(a, b, q):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


@PROPERTY
@given(st.data(), st.sampled_from((2, 3, 5, 7)))
def test_relation_normalized_is_idempotent(data, q):
    # a random common factor makes the content division do real work
    coeffs = st.lists(st.integers(0, q - 1), max_size=4)
    polys = data.draw(st.lists(coeffs, min_size=1, max_size=4))
    factor = data.draw(coeffs.filter(any))
    polys = [poly_times(p, factor, q) for p in polys]
    assume(any(any(p) for p in polys))
    once = Relation(q, tuple(polys)).normalized()
    assert once.normalized() == once
    assert once.polys[-1][-1] == 1
    common = ()
    for p in once.polys:
        common = poly_gcd(common, p, q)
    assert len(common) == 1  # no common factor left


def reference_replay(tokens, disks, variant):
    """Plain replay that rescans the peg of every disk after each move; the
    message of a variant violation, or the trace as ``Trace.to_json`` gives it."""
    pegs = [list(range(disks, 0, -1)), [], []]
    peg_of = [0] * (disks + 1)
    seen = [False] * (disks + 1)
    moves, legal, events, error = [], [], [], None
    for step, move in enumerate(tokens, start=1):
        if move not in hanoi.MOVE_PEGS:
            return f"unknown move {move!r} at step {step}"
        if move not in variant.moves:
            return f"move {move} is not allowed in the {variant.name} variant (step {step})"
        src, dst = hanoi.MOVE_PEGS[move]
        moves.append(move)
        if not pegs[src]:
            legal.append(False)
            error = f"step {step}, move {move}: peg {hanoi.PEG_NAMES[src]} is empty"
            break
        disk = pegs[src][-1]
        if pegs[dst] and pegs[dst][-1] < disk:
            legal.append(False)
            error = (f"step {step}, move {move}: disk {disk} cannot cover smaller "
                     f"disk {pegs[dst][-1]} on peg {hanoi.PEG_NAMES[dst]}")
            break
        pegs[dst].append(pegs[src].pop())
        peg_of[disk] = dst
        legal.append(True)
        home = peg_of[1] if disks else 0
        if home:
            size = 1
            while size < disks and peg_of[size + 1] == home:
                size += 1
            for n in range(1, size + 1):
                if not seen[n]:
                    seen[n] = True
                    events.append([step, n, hanoi.PEG_NAMES[home]])
    return {"disks": disks, "variant": variant.name,
            "initial": [list(range(disks, 0, -1)), [], []], "moves": moves,
            "legal": legal, "events": events, "final": pegs, "error": error}


def replay(tokens, disks, variant):
    try:
        return hanoi.simulate(tokens, disks, variant).to_json()
    except hanoi.VariantViolationError as exc:
        return str(exc)


def is_legal(pegs, move):
    # the definition: a disk to move, and nothing smaller where it lands
    src, dst = hanoi.MOVE_PEGS[move]
    return bool(pegs[src]) and (not pegs[dst] or pegs[src][-1] < pegs[dst][-1])


@st.composite
def move_words(draw):
    """A variant, 0-6 disks and a walk of mostly legal moves, so that towers
    form; about one move in ten is any of the variant's moves (often
    illegal), and some words end in a move outside the variant."""
    variant = draw(st.sampled_from(sorted(hanoi.VARIANTS.values(), key=lambda v: v.name)))
    disks = draw(st.integers(0, 6))
    allowed = [m for m in hanoi.MOVE_ORDER if m in variant.moves]
    pegs = [list(range(disks, 0, -1)), [], []]
    tokens = []
    for _ in range(draw(st.integers(0, 120))):
        legal = [m for m in allowed if is_legal(pegs, m)]
        move = draw(st.sampled_from(legal if legal and draw(st.integers(0, 9)) else allowed))
        tokens.append(move)
        if not is_legal(pegs, move):
            break
        src, dst = hanoi.MOVE_PEGS[move]
        pegs[dst].append(pegs[src].pop())
    foreign = [m for m in hanoi.MOVE_ORDER if m not in variant.moves] + ["x"]
    if draw(st.integers(0, 9)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(foreign)))
    return tokens, disks, variant


@PROPERTY
@given(move_words())
def test_simulate_matches_reference_replay(case):
    tokens, disks, variant = case
    assert replay(tokens, disks, variant) == reference_replay(tokens, disks, variant)
    word = " ".join(tokens)
    assert replay(word, disks, variant) == reference_replay(word.split(), disks, variant)


def test_simulate_matches_reference_on_catalog_prefixes():
    for name, variant in (("classical-hanoi", hanoi.CLASSICAL),
                          ("cyclic-hanoi", hanoi.CYCLIC), ("lazy-hanoi", hanoi.LAZY)):
        for disks in range(0, 7):
            word = catalog_prefix(name, 3 ** disks + 5)
            assert replay(word, disks, variant) == \
                reference_replay(word.tokens(), disks, variant), (name, disks)


@PROPERTY
@given(st.lists(st.integers(0, 2), max_size=7), st.sampled_from(hanoi.MOVE_ORDER))
def test_apply_accepts_exactly_a_smaller_disk_onto_a_larger(places, move):
    # disk d goes on peg places[d - 1]; placing the largest first keeps pegs sorted
    pegs = [[], [], []]
    for disk in range(len(places), 0, -1):
        pegs[places[disk - 1]].append(disk)
    state = hanoi.HanoiState(tuple(tuple(p) for p in pegs))
    src, dst = hanoi.MOVE_PEGS[move]
    if is_legal(pegs, move):
        pegs[dst].append(pegs[src].pop())
        assert state.apply(move) == hanoi.HanoiState(tuple(tuple(p) for p in pegs))
    else:
        refusal = hanoi.DiskOrderError if pegs[src] else hanoi.EmptySourceError
        with pytest.raises(refusal):
            state.apply(move)


def _exact_product(a, b, order, q):
    out = [0] * order
    for i, x in enumerate(a[:order]):
        for j, y in enumerate(b[:order - i]):
            out[i + j] += x * y
    return [c % q for c in out]


@st.composite
def reduced_arrays(draw, q, max_size=40):
    # residues, with the extreme q - 1 common so that products reach their bound
    return draw(st.lists(st.one_of(st.just(q - 1), st.integers(0, q - 1)), max_size=max_size))


@PROPERTY
@given(st.data(), st.integers(2, hanoi._MODULUS_MAX), st.integers(0, 50))
def test_truncated_product_is_exact_up_to_the_modulus_cap(data, q, order):
    a, b = data.draw(reduced_arrays(q)), data.draw(reduced_arrays(q))
    got = truncated_product(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), order, q)
    assert got.dtype == np.int64 and got.tolist() == _exact_product(a, b, order, q)


@PROPERTY
@given(st.integers(1 << 28, 1 << 40), st.integers(0, 2))
def test_truncated_product_refuses_past_int64(q, extra):
    # the longest product whose coefficients all stay below 2^63, and longer
    terms = ((1 << 63) - 1) // (q - 1) ** 2 + extra
    a = np.full(terms, q - 1, dtype=np.int64)
    if extra:
        with pytest.raises(ValueError):
            truncated_product(a, a, terms, q)
    else:
        got = truncated_product(a, a, terms, q)
        assert got.tolist() == _exact_product([q - 1] * terms, [q - 1] * terms, terms, q)
