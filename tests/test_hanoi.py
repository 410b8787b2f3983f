import random
import tracemalloc

import numpy as np
import pytest

from hanoiseq.catalog import HANOI_ALPHABET, catalog_names, catalog_prefix
from hanoiseq.hanoi import (CLASSICAL, CYCLIC, LAZY, MOVE_ORDER, MOVE_PEGS,
                            PEG_NAMES, UnreachableError, Variant,
                            VariantViolationError, bfs_optimal, factor_census,
                            olive_solve, simulate, solution_length,
                            squarefree_check, variant_by_name,
                            verify_classical_prefix)
from hanoiseq.words import Word

FIVE_TRIPLES = {"a C b", "a c B", "A c b", "a c b", "A c B"}
EIGHT_QUADRUPLES = {"a b a B", "a b A B", "a B A b", "a B A B",
                    "A b a b", "A B a b", "A B A b", "A B A B"}


def tower(disks, peg="I"):
    """Three bottom-to-top stacks with every disk on the named peg."""
    stacks = [(), (), ()]
    stacks[PEG_NAMES.index(peg)] = tuple(range(disks, 0, -1))
    return tuple(stacks)


def moves(tokens):
    return Word.from_tokens(HANOI_ALPHABET, tokens)


def reversed_walk(tokens):
    """The walk back: the moves in reverse order, each with its pegs swapped."""
    return [move.swapcase() for move in reversed(tokens)]


class TestApplyMove:
    # the one move rule, as simulate applies it from the standard start
    def test_simple_transfer(self):
        trace = simulate(moves("a"), 2, CLASSICAL)
        assert trace.error is None
        assert trace.final == ((2,), (1,), ())

    def test_larger_onto_smaller(self):
        trace = simulate(moves("a a"), 2, CLASSICAL)
        assert trace.error == "step 2, move a: disk 2 cannot cover smaller disk 1 on peg II"
        assert trace.final == ((2,), (1,), ())  # the refused move leaves the stacks

    def test_empty_source(self):
        trace = simulate(moves("A"), 1, CLASSICAL)
        assert trace.error == "step 1, move A: peg II is empty"
        assert trace.final == tower(1)

    def test_zero_disks_refuse_every_move(self):
        for move in MOVE_ORDER:
            trace = simulate(moves(move), 0, CLASSICAL)
            source = PEG_NAMES[MOVE_PEGS[move][0]]
            assert trace.error == f"step 1, move {move}: peg {source} is empty"
            assert trace.final == ((), (), ())

    def test_swapped_case_is_the_reversed_move(self):
        for move in MOVE_ORDER:
            src, dst = MOVE_PEGS[move]
            assert MOVE_PEGS[move.swapcase()] == (dst, src)

    def test_reversed_walk_undoes_a_legal_walk(self):
        rng = random.Random(10)
        for _ in range(200):
            disks = rng.randrange(1, 6)
            walk = list(olive_solve(disks, rng.choice(("II", "III"))).tokens())
            walk = walk[:rng.randrange(len(walk) + 1)]
            trace = simulate(moves(walk + reversed_walk(walk)), disks, CLASSICAL)
            assert trace.error is None
            assert trace.final == tower(disks)

    def test_final_stacks_keep_every_disk_in_order(self):
        rng = random.Random(11)
        for _ in range(200):
            disks = rng.randrange(0, 6)
            walk = [rng.choice(MOVE_ORDER) for _ in range(rng.randrange(0, 40))]
            final = simulate(moves(walk), disks, CLASSICAL).final
            assert sorted(d for stack in final for d in stack) == list(range(1, disks + 1))
            for stack in final:
                assert list(stack) == sorted(stack, reverse=True)


class TestSimulate:
    def test_three_disk_events(self):
        trace = simulate(catalog_prefix("classical-hanoi", 7), 3, CLASSICAL)
        assert trace.error is None
        assert trace.events == ((1, 1, "II"), (3, 2, "III"), (7, 3, "II"))
        assert trace.final == tower(3, "II")

    def test_empty_word(self):
        trace = simulate(Word(HANOI_ALPHABET), 4, CLASSICAL)
        assert trace.error is None
        assert trace.events == ()
        assert trace.final == tower(4)

    def test_variant_violation(self):
        with pytest.raises(VariantViolationError):
            simulate(Word.from_tokens(HANOI_ALPHABET, "a c"), 2, LAZY)

    def test_illegal_move_embedded(self):
        trace = simulate(catalog_prefix("classical-hanoi", 3), 1, CLASSICAL)
        assert trace.moves.text() == "a C"
        assert trace.error == "step 2, move C: peg I is empty"
        assert trace.final == ((), (1,), ())
        assert trace.event_for(1) == (1, 1, "II")

    def test_trace_fields(self):
        trace = simulate(moves("a C b"), 2, CLASSICAL)
        assert trace.moves.tokens() == ("a", "C", "b")
        assert trace.events == ((1, 1, "II"), (3, 2, "III"))
        assert trace.final == ((), (), (2, 1))
        assert trace.error is None
        assert trace.tower_peg() == "III"

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            Variant("empty", frozenset())
        with pytest.raises(ValueError):
            variant_by_name("frame-stewart")


class TestClassicalPrefix:
    @pytest.mark.parametrize("disks", range(1, 11))
    def test_prefix_solves(self, disks):
        assert verify_classical_prefix(disks)

    def test_prefix_nesting(self):
        long = catalog_prefix("classical-hanoi", 2 ** 16 - 1)
        for k in range(1, 16):
            assert long[:2 ** k - 1] == catalog_prefix("classical-hanoi", 2 ** k - 1)


def is_legal(pegs, move):
    # the definition: a disk to move, and nothing smaller where it lands
    src, dst = MOVE_PEGS[move]
    return bool(pegs[src]) and (not pegs[dst] or pegs[src][-1] < pegs[dst][-1])


def _depth_limited_search(variant, disks, target_peg, limit):
    # independent optimality oracle: plain iterative deepening over states,
    # each a tuple of three bottom-to-top stacks
    start = tower(disks)
    goal = tower(disks, target_peg)
    moves = [m for m in MOVE_ORDER if m in variant.moves]

    def dfs(state, depth, visited):
        if state == goal:
            return True
        if depth == 0:
            return False
        for move in moves:
            if not is_legal(state, move):
                continue
            src, dst = MOVE_PEGS[move]
            pegs = list(state)
            pegs[src], pegs[dst] = state[src][:-1], state[dst] + state[src][-1:]
            nxt = tuple(pegs)
            if visited.get(nxt, -1) >= depth - 1:
                continue
            visited[nxt] = depth - 1
            if dfs(nxt, depth - 1, visited):
                return True
        return False

    for depth in range(limit + 1):
        if dfs(start, depth, {start: depth}):
            return depth
    return None


class TestBfsOptimal:
    @pytest.mark.parametrize("disks", range(1, 9))
    def test_classical_count(self, disks):
        target = "II" if disks % 2 else "III"
        length, word = bfs_optimal(CLASSICAL, disks, "I", target)
        assert length == 2 ** disks - 1
        trace = simulate(word, disks, CLASSICAL)
        assert trace.error is None
        assert trace.final == tower(disks, target)

    def test_zero_disks(self):
        assert bfs_optimal(CLASSICAL, 0, "I", "II") == (0, Word(catalog_prefix("classical-hanoi", 1).alphabet))

    def test_cyclic_two_disks_against_search_oracle(self):
        assert bfs_optimal(CYCLIC, 2, "I", "II")[0] == \
            _depth_limited_search(CYCLIC, 2, "II", 12)
        assert bfs_optimal(CYCLIC, 2, "I", "III")[0] == \
            _depth_limited_search(CYCLIC, 2, "III", 12)

    def test_lazy_two_disks_against_search_oracle(self):
        assert bfs_optimal(LAZY, 2, "I", "III")[0] == \
            _depth_limited_search(LAZY, 2, "III", 12)

    def test_witness_is_deterministic(self):
        first = bfs_optimal(CYCLIC, 4, "I", "III")
        second = bfs_optimal(CYCLIC, 4, "I", "III")
        assert first == second

    def test_same_pegs_rejected(self):
        with pytest.raises(ValueError):
            bfs_optimal(CLASSICAL, 2, "I", "I")
        with pytest.raises(ValueError, match="source and target pegs must differ"):
            bfs_optimal(CLASSICAL, 0, "III", "III")

    def test_unreachable(self):
        only_a = Variant("only-a", frozenset(("a",)))
        with pytest.raises(UnreachableError):
            bfs_optimal(only_a, 1, "I", "III")


class TestOlive:
    def test_one_disk(self):
        assert olive_solve(1, "II").text() == "a"

    def test_two_disks_to_three(self):
        word = olive_solve(2, "III")
        assert len(word) == 3
        trace = simulate(word, 2, CLASSICAL)
        assert trace.error is None
        assert trace.final == tower(2, "III")

    def test_three_disks_matches_classical_prefix(self):
        assert olive_solve(3, "II") == catalog_prefix("classical-hanoi", 7)

    @pytest.mark.parametrize("disks", range(1, 9))
    def test_parity_target_reproduces_classical_prefix(self, disks):
        target = "II" if disks % 2 else "III"
        assert olive_solve(disks, target) == \
            catalog_prefix("classical-hanoi", 2 ** disks - 1)

    @pytest.mark.parametrize("disks", range(1, 7))
    @pytest.mark.parametrize("target", ("II", "III"))
    def test_always_legal_optimal_and_on_target(self, disks, target):
        word = olive_solve(disks, target)
        assert len(word) == bfs_optimal(CLASSICAL, disks, "I", target)[0]
        trace = simulate(word, disks, CLASSICAL)
        assert trace.error is None
        assert trace.final == tower(disks, target)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            olive_solve(2, "I")

    @pytest.mark.parametrize("target", ("II", "III"))
    def test_twenty_disks_peak_below_16_mib(self, target):
        # 2^20 - 1 one-byte moves: the prefix, and for II its mirror with
        # the coding's 8-byte gather index (about 10 MiB in all)
        tracemalloc.start()
        try:
            word = olive_solve(20, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == 2 ** 20 - 1
        assert peak < 16 * 2 ** 20


class TestVariantSequences:
    @pytest.mark.parametrize("disks", range(1, 7))
    def test_cyclic_sequence_solves_cyclic_puzzle(self, disks):
        trace = simulate(catalog_prefix("cyclic-hanoi", 8 * 3 ** disks), disks, CYCLIC)
        event = trace.event_for(disks)
        assert event is not None
        step, _, peg = event
        assert step == bfs_optimal(CYCLIC, disks, "I", peg)[0]

    @pytest.mark.parametrize("disks", range(1, 7))
    def test_lazy_sequence_solves_lazy_puzzle(self, disks):
        trace = simulate(catalog_prefix("lazy-hanoi", 8 * 3 ** disks), disks, LAZY)
        event = trace.event_for(disks)
        assert event is not None
        step, _, peg = event
        assert step == bfs_optimal(LAZY, disks, "I", peg)[0]


class TestFactorCensus:
    def test_width_one_sliding_is_support(self, classical_64k):
        blocks = factor_census(classical_64k[:100], 1)
        assert {b.text() for b in blocks} == set(classical_64k[:100].tokens())

    def test_classical_aligned_triples(self):
        blocks = factor_census(catalog_prefix("classical-hanoi", 2 ** 12), 3,
                               aligned=True)
        assert {b.text() for b in blocks} == FIVE_TRIPLES

    def test_lazy_aligned_quadruples(self):
        blocks = factor_census(catalog_prefix("lazy-hanoi", 3 ** 8), 4,
                               aligned=True)
        texts = {b.text() for b in blocks}
        assert texts <= EIGHT_QUADRUPLES

    def test_width_larger_than_word(self):
        assert factor_census(catalog_prefix("classical-hanoi", 3), 4) == set()

    def test_sliding_superset_of_aligned(self):
        word = catalog_prefix("lazy-hanoi", 200)
        assert factor_census(word, 4, aligned=True) <= factor_census(word, 4)


def _brute_earliest_square(tokens, max_period):
    n = len(tokens)
    for pos in range(n):
        for period in range(1, min(max_period, (n - pos) // 2) + 1):
            if tokens[pos:pos + period] == tokens[pos + period:pos + 2 * period]:
                return pos, period
    return None


def _run_length_earliest_square(word, max_period):
    # the per-period run-length scan squarefree_check used before its byte
    # search: every period compares the whole word
    n = len(word)
    if n < 2:
        return None
    arr = word.indices
    best = None
    for period in range(1, min(max_period, n // 2) + 1):
        mismatch = np.flatnonzero(arr[:-period] != arr[period:])
        bounds = np.empty(mismatch.size + 2, dtype=np.int64)
        bounds[0] = -1
        bounds[1:-1] = mismatch
        bounds[-1] = n - period
        runs = np.diff(bounds) - 1  # lengths of agreeing stretches
        hits = np.flatnonzero(runs >= period)
        if hits.size:
            position = int(bounds[hits[0]]) + 1
            if best is None or position < best[0]:
                best = (position, period)
                if position == 0:
                    break
    return best


class TestSquarefree:
    def test_classical_prefix_squarefree(self):
        word = catalog_prefix("classical-hanoi", 2000)
        assert squarefree_check(word, 1000) is None

    def test_lazy_first_square(self):
        word = catalog_prefix("lazy-hanoi", 9)
        assert squarefree_check(word, 4) == (5, 2)
        assert _brute_earliest_square(word.tokens(), 4) == (5, 2)
        assert word[5:9].text() == "b a b a"

    def test_trivial_square(self):
        word = Word.from_tokens(catalog_prefix("classical-hanoi", 1).alphabet, "a a")
        assert squarefree_check(word, 3) == (0, 1)

    def test_agrees_with_brute_scan_on_random_binary_words(self):
        rng = random.Random(99)
        from hanoiseq.catalog import BINARY_ALPHABET
        for _ in range(50):
            n = rng.randrange(2, 40)
            word = Word(BINARY_ALPHABET, tuple(rng.randrange(2) for _ in range(n)))
            assert squarefree_check(word, n) == \
                _brute_earliest_square(word.tokens(), n)

    def test_period_cap_respected(self):
        word = catalog_prefix("lazy-hanoi", 9)
        assert squarefree_check(word, 1) is None

    def test_budget_guard(self):
        word = catalog_prefix("classical-hanoi", 20001)
        with pytest.raises(ValueError):
            squarefree_check(word, 10000)
        assert squarefree_check(word, 64) is None

    @pytest.mark.parametrize("tokens,max_period,square", [
        # a period-3 square at 1 before the period-1 square at 7
        ("a b c A b c A B B", 4, (1, 3)),
        # periods 2 and 4 both at 1, and a period-1 square later
        ("c a b a b a b a b C C", 5, (1, 2)),
        # period 3 at 1 ends on the last symbol, the very end the square
        # of period 1 at 2 leaves to the longer periods
        ("b c a a c a a", 3, (1, 3)),
        ("a b c A b c A", 3, (1, 3)),
        # max_period below n // 2 hides the only square
        ("a b c a b c", 2, None),
        ("a b c a b c", 3, (0, 3)),
        ("a b c A b c a b c A b c", 5, None),
    ])
    def test_position_bound_cases(self, tokens, max_period, square):
        word = moves(tokens)
        assert _brute_earliest_square(word.tokens(), max_period) == square
        assert _run_length_earliest_square(word, max_period) == square
        assert squarefree_check(word, max_period) == square

    @pytest.mark.parametrize("name", catalog_names())
    def test_agrees_with_run_length_scan_on_the_catalog(self, name):
        for length, max_period in ((10_000, 5_000), (200_000, 64)):
            word = catalog_prefix(name, length)
            assert squarefree_check(word, max_period) == \
                _run_length_earliest_square(word, max_period)

    def test_agrees_with_run_length_scan_on_planted_squares(self):
        # square-free classical stretches or random words over the six
        # letters, with up to three squares copied in at random places
        rng = random.Random(30)
        classical = catalog_prefix("classical-hanoi", 5000).indices.tolist()
        for _ in range(600):
            n = rng.randrange(0, 300)
            if rng.random() < 0.5:
                start = rng.randrange(5000 - n)
                indices = classical[start:start + n]
            else:
                indices = [rng.randrange(6) for _ in range(n)]
            for _ in range(rng.randrange(4) if n >= 2 else 0):
                period = rng.randrange(1, n // 2 + 1)
                at = rng.randrange(n - 2 * period + 1)
                indices[at + period:at + 2 * period] = indices[at:at + period]
            word = Word(HANOI_ALPHABET, indices)
            max_period = rng.randrange(1, 200)
            assert squarefree_check(word, max_period) == \
                _run_length_earliest_square(word, max_period)

    def test_capped_scan_peaks_below_8_bytes_per_symbol(self):
        # one byte per compared cell, reused by every period; the run-length
        # scan's int64 temporaries took about 33 bytes a symbol
        word = catalog_prefix("classical-hanoi", 10 ** 6)
        tracemalloc.start()
        try:
            assert squarefree_check(word, 64) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10 ** 6


# (refused call, message) that no other test reaches; each raises ValueError
REFUSALS = [
    (lambda: bfs_optimal(CLASSICAL, 2, "IV", "II"), "unknown peg 'IV'; use I, II or III"),
    (lambda: Variant("odd", frozenset(("a", "x"))), "unknown moves ['x']"),
    (lambda: solution_length(CLASSICAL, 0), "disk count must be >= 1"),
    (lambda: bfs_optimal(CLASSICAL, -1), "disk count must be >= 0"),
    (lambda: factor_census(catalog_prefix("classical-hanoi", 8), 0), "width must be >= 1"),
    (lambda: squarefree_check(catalog_prefix("classical-hanoi", 8), 0),
     "max_period must be >= 1"),
]


@pytest.mark.parametrize("call,message", REFUSALS, ids=[r[1] for r in REFUSALS])
def test_refusal(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (ValueError, message)
