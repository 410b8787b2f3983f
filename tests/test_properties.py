"""Derandomized property tests: random morphisms, codings, patterns and
words against plain-Python reference implementations kept here."""

import collections
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hanoiseq import cli, hanoi
from hanoiseq.algebra import Relation, poly_gcd, truncated_product
from hanoiseq.automaton import dfao_from_uniform_morphism, kernel_explore
from hanoiseq.catalog import (BINARY_ALPHABET, HANOI_ALPHABET, catalog_lookup,
                              catalog_names, catalog_prefix)
from hanoiseq.classicseq import IntSequence, derive_U, derive_Z
from hanoiseq.hanoi import factor_census, squarefree_check
from hanoiseq.nonuniform import (Construction, ConstructionError, construct_nonuniform,
                                 find_expanding_letter, validation_failures)
from hanoiseq.toeplitz import HOLE, ToeplitzSpec, fill_pass, toeplitz_expand
from hanoiseq.words import (Alphabet, Morphism, MorphicSpec, ProlongabilityError, Word,
                            is_prolongable, spec_from_json, spec_to_json)

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


def reference_prefix(images, length, coding_table=None, start=0):
    current = [start]
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


MORPHIC = tuple(name for name in catalog_names()
                if isinstance(catalog_lookup(name), MorphicSpec))
# images of lengths 9 and 1: one step's 2^16 letters give 2^16 to 9 * 2^16 more
SKEWED = [[0, 1, 2, 1, 0, 2, 2, 1, 0], [2], [1]]


@pytest.mark.parametrize("name", MORPHIC + ("skewed",))
def test_long_prefixes_match_reference_expansion(name):
    # a prefix grows by the images of at most 2^16 letters a step; for these
    # morphisms the first full step writes from 2^16 symbols on and the next
    # before 2^19, so a step that dropped, repeated or misordered letters shows
    spec = build_spec(SKEWED) if name == "skewed" else catalog_lookup(name)
    images = [img.indices.tolist() for img in spec.morphism.images]
    coding_table = spec.coding and [img.indices.item(0) for img in spec.coding.images]
    start = spec.morphism.domain.index(spec.start)
    expected = reference_prefix(images, 2 ** 19 + 3, coding_table, start)
    for length in (0, 1, 5, 2 ** 16 - 1, 2 ** 16 + 1, 2 ** 17 + 3, 2 ** 19 + 3):
        assert spec.prefix(length).indices.tolist() == expected[:length]


@PROPERTY
@given(st.data())
def test_automaton_evaluates_the_prefix(data):
    images = data.draw(morphisms(uniform=True))
    coding_table = data.draw(st.none() | st.lists(
        st.integers(0, 2), min_size=len(images), max_size=len(images)))
    spec = build_spec(images, coding_table)
    dfao = dfao_from_uniform_morphism(spec)
    prefix = spec.prefix(200)
    assert [dfao.eval(i) for i in range(200)] == list(prefix)
    assert dfao.eval_many(np.arange(200)) == prefix
    ns = data.draw(st.lists(st.integers(0, 10 ** 18), max_size=20))
    assert dfao.eval_many(ns).tokens() == tuple(dfao.eval(n) for n in ns)


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
    assert again.coding.codomain == seen
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


def reference_prolongable(images, start) -> bool:
    """Non-erasing, the start's image begins with it, and the iterates of
    the start still grow after as many steps as there are letters (lengths
    counted letter by letter, no word built)."""
    if any(not img for img in images) or images[start][:1] != [start]:
        return False
    counts = [int(i == start) for i in range(len(images))]
    sizes = []
    for _ in range(len(images) + 1):
        counts = [sum(counts[i] * img.count(j) for i, img in enumerate(images))
                  for j in range(len(images))]
        sizes.append(sum(counts))
    return sizes[-1] > sizes[-2]


@PROPERTY
@given(st.data())
def test_prolongable_is_the_reference_on_morphisms_that_may_erase(data):
    size = data.draw(st.integers(1, 5))
    start = data.draw(st.integers(0, size - 1))
    images = [data.draw(st.lists(st.integers(0, size - 1), max_size=3)) for _ in range(size)]
    if data.draw(st.booleans()):
        images[start] = [start] + images[start]
    alphabet = alphabet_of(size)
    morphism = Morphism(alphabet, alphabet, tuple(Word(alphabet, img) for img in images))
    expected = reference_prolongable(images, start)
    assert is_prolongable(morphism, f"s{start}") == expected
    if expected:
        MorphicSpec(morphism, f"s{start}")
    else:
        with pytest.raises(ProlongabilityError):
            MorphicSpec(morphism, f"s{start}")


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


def reference_noncommuting_block(construction, primed):
    """First full block of twice the uniform width on which coding after g'
    and g after coding differ, or None."""
    ell = 2 * construction.effective.uniform_width
    for j in range(len(primed) // ell):
        block = primed[j * ell:(j + 1) * ell]
        left = construction.coding.apply(construction.morphism.apply(block))
        right = construction.effective.apply(construction.coding.apply(block))
        if left != right:
            return j
    return None


@PROPERTY
@given(morphisms(uniform=True, max_letters=4))
def test_construction_validates_or_raises(images):
    spec = build_spec(images)
    try:
        construction = construct_nonuniform(spec.morphism, spec.start)
    except ConstructionError:
        return
    assert not validation_failures(construction, 512)
    # block commutation holds without a clause of its own
    primed = MorphicSpec(construction.morphism, construction.start).pure_prefix(512)
    assert reference_noncommuting_block(construction, primed) is None


@PROPERTY
@given(morphisms(uniform=True, max_letters=4))
def test_twice_the_expanding_power_always_builds(images):
    # b twice in g(b) puts b at four places of g^2(b), only three of them not interior
    spec = build_spec(images)
    try:
        letter, power = find_expanding_letter(spec.morphism, spec.start)
    except ConstructionError:
        return
    Construction(spec.morphism, spec.start, 2 * power, letter)  # raises if it cannot build


@PROPERTY
@given(morphisms(uniform=True, max_letters=4))
def test_construction_identities_hold_letter_by_letter(images):
    # with tau the coding, g the effective morphism and g' the extension
    spec = build_spec(images)
    try:
        construction = construct_nonuniform(spec.morphism, spec.start)
    except ConstructionError:
        return
    tau, g, gp = construction.coding, construction.effective, construction.morphism
    b, c = construction.expanding, construction.companion
    bp, cp = gp.domain.symbols[-2:]  # the extension appends b', c'
    for sym in spec.morphism.domain.symbols:
        assert tau.apply(gp.image(sym)) == g.apply(tau.image(sym))
    assert tau.apply(gp.image(bp) + gp.image(cp)) == g.image(b) + g.image(c)
    for sym in gp.domain.symbols:
        tokens = gp.image(sym).tokens()
        at_bp = [i for i, x in enumerate(tokens) if x == bp]
        at_cp = [i for i, x in enumerate(tokens) if x == cp]
        assert len(at_bp) == (sym == b)
        assert [i + 1 for i in at_bp] == at_cp
    assert len(construction.z) != len(construction.t)
    assert gp.uniform_width is None


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
    message of a variant violation, or the trace as ``replay`` lists it."""
    pegs = [list(range(disks, 0, -1)), [], []]
    peg_of = [0] * (disks + 1)
    seen = [False] * (disks + 1)
    moves, events, error = [], [], None
    for step, move in enumerate(tokens, start=1):
        if move not in hanoi.MOVE_PEGS:
            return f"unknown move {move!r} at step {step}"
        if move not in variant.moves:
            return f"move {move} is not allowed in the {variant.name} variant (step {step})"
        src, dst = hanoi.MOVE_PEGS[move]
        moves.append(move)
        if not pegs[src]:
            error = f"step {step}, move {move}: peg {hanoi.PEG_NAMES[src]} is empty"
            break
        disk = pegs[src][-1]
        if pegs[dst] and pegs[dst][-1] < disk:
            error = (f"step {step}, move {move}: disk {disk} cannot cover smaller "
                     f"disk {pegs[dst][-1]} on peg {hanoi.PEG_NAMES[dst]}")
            break
        pegs[dst].append(pegs[src].pop())
        peg_of[disk] = dst
        home = peg_of[1] if disks else 0
        if home:
            size = 1
            while size < disks and peg_of[size + 1] == home:
                size += 1
            for n in range(1, size + 1):
                if not seen[n]:
                    seen[n] = True
                    events.append([step, n, hanoi.PEG_NAMES[home]])
    return {"disks": disks, "variant": variant.name, "moves": moves,
            "events": events, "final": pegs, "error": error}


# the six moves and one token that is no move, for words with a foreign token
REPLAY_ALPHABET = Alphabet(hanoi.MOVE_ORDER + ("x",))


def replay(word, disks, variant):
    """The fields of ``simulate``'s trace as plain lists, or the message of a
    variant violation."""
    try:
        trace = hanoi.simulate(word, disks, variant)
    except hanoi.VariantViolationError as exc:
        return str(exc)
    return {"disks": trace.disks, "variant": trace.variant.name,
            "moves": list(trace.moves.tokens()), "events": [list(e) for e in trace.events],
            "final": [list(p) for p in trace.final], "error": trace.error}


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
    word = Word.from_tokens(REPLAY_ALPHABET, tokens)
    assert replay(word, disks, variant) == reference_replay(tokens, disks, variant)


@PROPERTY
@given(move_words())
def test_tower_peg_is_the_reference_completion_at_the_last_move(case):
    tokens, disks, variant = case
    reference = reference_replay(tokens, disks, variant)
    if isinstance(reference, str):
        return  # a move outside the variant raises before any trace
    completions = [e[0] for e in reference["events"] if e[1] == disks]
    # the word as drawn, and cut where the reference first completes the tower
    for cut in {len(tokens), *completions}:
        expected = reference_replay(tokens[:cut], disks, variant)
        event = next((e for e in expected["events"] if e[1] == disks), None)
        solved = (expected["error"] is None and event is not None
                  and event[0] == len(expected["moves"]))
        trace = hanoi.simulate(Word.from_tokens(REPLAY_ALPHABET, tokens[:cut]),
                               disks, variant)
        assert trace.tower_peg() == (event[2] if solved else None)


@PROPERTY
@given(move_words())
def test_event_for_is_the_event_of_that_size(case):
    # sizes -1 and 0 have no event, though events[size - 1] would name one
    tokens, disks, variant = case
    try:
        trace = hanoi.simulate(Word.from_tokens(REPLAY_ALPHABET, tokens), disks, variant)
    except hanoi.VariantViolationError:
        return
    for size in range(-1, disks + 2):
        assert trace.event_for(size) == next((e for e in trace.events if e[1] == size), None)


def test_simulate_matches_reference_on_catalog_prefixes():
    for name, variant in (("classical-hanoi", hanoi.CLASSICAL),
                          ("cyclic-hanoi", hanoi.CYCLIC), ("lazy-hanoi", hanoi.LAZY)):
        for disks in range(0, 7):
            word = catalog_prefix(name, 3 ** disks + 5)
            assert replay(word, disks, variant) == \
                reference_replay(word.tokens(), disks, variant), (name, disks)


@PROPERTY
@given(st.lists(st.sampled_from(hanoi.MOVE_ORDER), max_size=40), st.integers(0, 6),
       st.sampled_from(hanoi.MOVE_ORDER))
def test_apply_accepts_exactly_a_smaller_disk_onto_a_larger(walk, disks, move):
    # the legal moves of the drawn walk reach some stacks; then one more move
    pegs = [list(range(disks, 0, -1)), [], []]
    tokens = []
    for step in walk:
        if is_legal(pegs, step):
            src, dst = hanoi.MOVE_PEGS[step]
            pegs[dst].append(pegs[src].pop())
            tokens.append(step)
    trace = hanoi.simulate(Word.from_tokens(HANOI_ALPHABET, tokens + [move]), disks)
    src, dst = hanoi.MOVE_PEGS[move]
    if is_legal(pegs, move):
        pegs[dst].append(pegs[src].pop())
        assert trace.error is None
    else:
        refusal = "cannot cover smaller disk" if pegs[src] else "is empty"
        assert trace.error.startswith(f"step {len(tokens) + 1}, move {move}: ")
        assert refusal in trace.error
    assert trace.final == tuple(tuple(p) for p in pegs)


def reference_olive(disks, target):
    """The alternating rule as a walk on three stacks: odd steps move the
    smallest disk one peg on, forward (I->II->III) when the target is II
    for N odd or III for N even, backward otherwise; even steps make the
    only legal move that leaves it alone."""
    step_dir = 1 if target == ("II" if disks % 2 else "III") else -1
    floor = disks + 1
    pegs = [[floor, *range(disks, 0, -1)], [floor], [floor]]
    home = 0
    move_of = {p: m for m, p in hanoi.MOVE_PEGS.items()}
    out = []
    for step in range(1, 2 ** disks):
        if step % 2:
            src, dst = home, (home + step_dir) % 3
            home = dst
        else:
            # the optimal walk passes no whole tower: never two bare pegs here
            i, j = (home + 1) % 3, (home + 2) % 3
            src, dst = (i, j) if pegs[i][-1] < pegs[j][-1] else (j, i)
        pegs[dst].append(pegs[src].pop())
        out.append(move_of[src, dst])
    return out


@pytest.mark.parametrize("disks", range(1, 15))
@pytest.mark.parametrize("target", ("II", "III"))
def test_olive_solve_is_the_reference_alternating_walk(disks, target):
    assert list(hanoi.olive_solve(disks, target).tokens()) == reference_olive(disks, target)


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
@given(st.data(), st.integers(2, cli._MODULUS_MAX), st.integers(0, 50))
def test_truncated_product_is_exact_up_to_the_modulus_cap(data, q, order):
    a, b = data.draw(reduced_arrays(q)), data.draw(reduced_arrays(q))
    got = truncated_product(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), order, q)
    assert got.dtype == np.int64 and got.tolist() == _exact_product(a, b, order, q)


# (q, len a, len b) whose bound min(len a, len b)·(q − 1)^2 sits just below
# and at the 2- and 4-byte slot limits: 65522 and 65536 = 2^16 (twice), then
# 4294836225 and 4294967296 = 2^32 (twice); with every coefficient q − 1 the
# top product coefficient equals the bound
SLOT_EDGES = [(182, 2, 2), (129, 4, 4), (129, 4, 9), (65536, 1, 1), (32769, 4, 4),
              (32769, 9, 4)]


@pytest.mark.parametrize("q,len_a,len_b", SLOT_EDGES)
def test_truncated_product_is_exact_at_the_slot_edges(q, len_a, len_b):
    a, b = [q - 1] * len_a, [q - 1] * len_b
    full = len_a + len_b - 1
    for order in (full - 1, full, full + 3):  # cut, whole, and a zero tail
        got = truncated_product(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                                order, q)
        assert got.dtype == np.int64 and got.tolist() == _exact_product(a, b, order, q)


@pytest.mark.parametrize("q", [2, 11863279])
def test_truncated_product_with_an_empty_operand_is_zero(q):
    a = np.full(5, q - 1, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    for order in (0, 3, 8):
        for x, y in ((a, empty), (empty, a), (empty, empty)):
            got = truncated_product(x, y, order, q)
            assert got.dtype == np.int64
            assert got.tolist() == _exact_product(x.tolist(), y.tolist(), order, q)


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


# tokens that JSON escapes or writes in several bytes: a quote, a backslash,
# a control character, non-ASCII letters and one outside the BMP
TOKEN_CHARS = st.sampled_from(['a', 'Z', '0', ' ', 'é', '"', '\\', '\x01', '☃',
                               '\U0001F600'])


@PROPERTY
@given(st.lists(st.text(TOKEN_CHARS, min_size=1, max_size=3), min_size=1, max_size=12,
                unique=True), st.data())
def test_word_renders_like_join_and_json_dumps(symbols, data):
    alphabet = Alphabet(tuple(symbols))
    indices = data.draw(st.lists(st.integers(0, len(symbols) - 1), max_size=60))
    word = Word(alphabet, indices)
    tokens = [symbols[i] for i in indices]
    assert word.text() == " ".join(tokens)
    assert "".join(word.pieces("json")) == json.dumps(tokens)


@PROPERTY
@given(st.lists(st.sampled_from([0, 9, 10, 99, 100, 2 ** 63 - 1])
                | st.integers(0, 2 ** 63 - 1), max_size=60))
def test_int_sequence_renders_like_join_and_json_dumps(values):
    sequence = IntSequence(np.array(values, dtype=np.int64))
    assert sequence.text() == " ".join(map(str, values))
    assert "".join(sequence.pieces("json")) == json.dumps(values)


def reference_kernel(indices, radix, depth):
    """Representatives and the least merge overlap of kernel_explore, each
    subsequence compared with each class over the whole overlap."""
    reps, seqs, overlaps = [], [], []
    queue = collections.deque([(0, 0)])
    while queue:
        e, r = queue.popleft()
        sub = indices[r::radix ** e]
        if not sub:
            continue
        for seq in seqs:
            m = min(len(sub), len(seq))
            if sub[:m] == seq[:m]:
                overlaps.append(m)
                break
        else:
            reps.append((e, r))
            seqs.append(sub)
            if e < depth:
                queue.extend((e + 1, r + j * radix ** e) for j in range(radix))
    return tuple(reps), min(overlaps) if overlaps else len(indices)


@PROPERTY
@given(st.data(), st.integers(1, 600), st.integers(2, 4), st.integers(0, 6))
def test_kernel_explore_matches_whole_overlap_comparison(data, length, radix, depth):
    images = data.draw(morphisms(uniform=True, max_letters=4))
    coding_table = data.draw(st.none() | st.lists(
        st.integers(0, 1), min_size=len(images), max_size=len(images)))
    word = build_spec(images, coding_table).prefix(length)
    report = kernel_explore(word, radix, depth)
    assert (report.representatives, report.consistent_up_to) == \
        reference_kernel(word.indices.tolist(), radix, depth)
    assert report.class_count == len(report.representatives)


@pytest.mark.parametrize("length,depth", [(2 ** 12, 6), (2 ** 14, 4)])
def test_kernel_explore_matches_whole_overlap_comparison_on_fibonacci(length, depth):
    word = catalog_prefix("fibonacci", length)
    report = kernel_explore(word, 2, depth)
    assert (report.representatives, report.consistent_up_to) == \
        reference_kernel(word.indices.tolist(), 2, depth)
