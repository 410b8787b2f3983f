"""Disk-and-peg semantics for the six move letters and the restricted
puzzle variants, with a breadth-first optimality oracle.

Moves: ``a`` I->II, ``b`` II->III, ``c`` III->I; the uppercase letters
are the reversed moves, so ``C`` takes the top disk from peg I to peg
III.  A state keeps each peg as a stack listed bottom to top; radii
must increase strictly downward, so the top of a peg is its last entry
and always its smallest disk.  One rule decides every move: each peg
stands on a floor of radius N + 1, and a move is legal exactly when
the top of its source is smaller than the top of its target.

``simulate`` is the one place that moves disks.  It replays a move word
from the standard start (all disks on peg I), recording for every
sub-tower size the first step at which disks 1..n stand together on a
peg other than peg I, and the final stacks.  An illegal move aborts the
replay and is embedded in the returned trace; a move outside the
variant's allowed set raises instead, since the caller picked the
variant.  A word solves N disks exactly when ``Trace.tower_peg`` is a peg.

The alternating solver moves none either: the walk of its rule is the
catalog's self-filling pattern ``a C b . c B a . b A c .`` (see
``olive_solve``), with the pegs II and III exchanged for the other target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import HANOI_ALPHABET, catalog_lookup
from .words import Morphism, Word

MOVE_ORDER = HANOI_ALPHABET.symbols
MOVE_PEGS = {"a": (0, 1), "b": (1, 2), "c": (2, 0),
             "A": (1, 0), "B": (2, 1), "C": (0, 2)}
_PEG_MOVE = {pegs: move for move, pegs in MOVE_PEGS.items()}
PEG_NAMES = ("I", "II", "III")
# every move with pegs II and III exchanged (peg p to -p mod 3): a<->C, b<->B, c<->A
_MIRROR = Morphism.from_rules(HANOI_ALPHABET, {
    move: _PEG_MOVE[-src % 3, -dst % 3] for move, (src, dst) in MOVE_PEGS.items()})

# budgets: square scans (check_scan_budget; 10^6 symbols ~0.02 s) and moves (solution_length)
_FULL_SCAN_MAX = 10_000
_CAPPED_SCAN_MAX = 1_000_000
_CAPPED_PERIOD = 64
_MOVES_MAX = 1 << 26  # the slowest request: hanoi solve or verify --disks 26, ~9-13 s, 0.14 GB


class VariantViolationError(ValueError):
    """A move outside the variant's allowed subset."""


class UnreachableError(ValueError):
    """The BFS exhausted the state graph without reaching the target."""


def peg_index(name: str) -> int:
    try:
        return PEG_NAMES.index(name)
    except ValueError:
        raise ValueError(f"unknown peg {name!r}; use I, II or III") from None


@dataclass(frozen=True)
class Variant:
    """A named subset of the six moves."""

    name: str
    moves: frozenset

    def __post_init__(self):
        moves = frozenset(self.moves)
        object.__setattr__(self, "moves", moves)
        if not moves:
            raise ValueError("variant needs at least one move")
        bad = moves - set(MOVE_ORDER)
        if bad:
            raise ValueError(f"unknown moves {sorted(bad)}")


CLASSICAL = Variant("classical", frozenset(MOVE_ORDER))
CYCLIC = Variant("cyclic", frozenset(("a", "b", "c")))
LAZY = Variant("lazy", frozenset(("a", "A", "b", "B")))
VARIANTS = {"classical": CLASSICAL, "cyclic": CYCLIC, "lazy": LAZY}


def variant_by_name(name: str) -> Variant:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}; available: {', '.join(sorted(VARIANTS))}") from None


@dataclass(frozen=True)
class Trace:
    """Replay record: executed moves, completion events, final stacks.

    Events are (step, size, peg) triples marking the first step at which
    disks 1..size stand together on the named non-initial peg; steps are
    1-based.  Towers form one disk at a time, so event i is the tower of
    size i + 1.  ``final`` holds pegs I, II and III as tuples of disk
    radii, each listed bottom to top.  ``error`` carries the diagnosis of
    the aborting step, if any; that step is the last of ``moves`` and the
    only illegal one.
    """

    disks: int
    variant: Variant
    moves: Word
    events: tuple[tuple[int, int, str], ...]
    final: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    error: Optional[str] = None

    def event_for(self, size: int) -> Optional[tuple[int, int, str]]:
        return self.events[size - 1] if 0 < size <= len(self.events) else None

    def tower_peg(self) -> Optional[str]:
        """The peg where all the disks first stand together if they do so at
        the last replayed move, else None (as after an illegal last move)."""
        event = self.event_for(self.disks)
        return event[2] if event and event[0] == len(self.moves) else None


def simulate(word: Word, disks: int, variant: Variant = CLASSICAL) -> Trace:
    """Replay a move word on N disks from the standard start."""
    symbols = word.alphabet.symbols
    floor = disks + 1
    pegs = [[floor, *range(disks, 0, -1)], [floor], [floor]]
    # each letter's (source stack, target stack, target peg), None off the variant
    rules = [(pegs[MOVE_PEGS[move][0]], pegs[MOVE_PEGS[move][1]], MOVE_PEGS[move][1])
             if move in variant.moves else None for move in symbols]
    events: list[tuple[int, int, str]] = []
    done = 0  # disks 1..done have stood together on a non-initial peg
    error = None
    step = 0
    for step, index in enumerate(memoryview(word.indices), start=1):
        rule = rules[index]
        if rule is None:
            move = symbols[index]
            raise VariantViolationError(
                f"unknown move {move!r} at step {step}" if move not in MOVE_PEGS else
                f"move {move} is not allowed in the {variant.name} variant (step {step})")
        source, target, dst = rule
        disk = source[-1]
        if not disk < target[-1]:
            move = symbols[index]
            error = f"step {step}, move {move}: " + (
                f"peg {PEG_NAMES[MOVE_PEGS[move][0]]} is empty" if disk == floor else
                f"disk {disk} cannot cover smaller disk {target[-1]} on peg {PEG_NAMES[dst]}")
            break
        target.append(source.pop())
        # disk 1 stays on top of any tower 1..k, so one can only form as disk
        # 1 lands; entry k + 1 from the top is k + 1 exactly when it has
        if disk == 1 and dst:
            while len(target) > done + 1 and target[-done - 1] == done + 1:
                done += 1
                events.append((step, done, PEG_NAMES[dst]))
    final = tuple(tuple(p[1:]) for p in pegs)
    return Trace(disks, variant, word[:step], tuple(events), final, error)


def classical_target(disks: int) -> str:
    """Where 2^N - 1 classical moves take N disks: II for odd N, III for even."""
    return "II" if disks % 2 else "III"


# the catalog sequence whose prefix solves each variant, cut by solution_length
SOLUTION_SEQUENCES = {CLASSICAL: "classical-hanoi", CYCLIC: "cyclic-hanoi", LAZY: "lazy-hanoi"}


def solution_length(variant: Variant, disks: int) -> int:
    """Moves after which the variant's catalog sequence first completes N
    disks: 2^N - 1 classical, (3^N - 1)/2 lazy (the transfer I->II), and
    for cyclic R_N, the optimal transfer I->III, from Q_n = 2 R_{n-1} + 1
    and R_n = 2 R_{n-1} + Q_{n-1} + 2, or 1 move to peg II for one disk.
    Refuses N disks when that length is past the moves budget, checking
    2^N - 1, the shortest of the three, before computing any power."""
    if disks < 1:
        raise ValueError("disk count must be >= 1")
    if disks >= (_MOVES_MAX + 1).bit_length():
        raise ValueError(f"moves budget exceeded: {disks} disks need at least "
                         f"2^{disks} - 1 moves, more than {_MOVES_MAX}")
    length = 2 ** disks - 1
    if variant == LAZY:
        length = (3 ** disks - 1) // 2
    elif variant == CYCLIC and disks > 1:
        q = r = 0
        for _ in range(disks):
            q, r = 2 * r + 1, 2 * r + q + 2
        length = r
    if length > _MOVES_MAX:
        raise ValueError(f"moves budget exceeded: {disks} disks need {length} moves "
                         f"in the {variant.name} variant, more than {_MOVES_MAX}")
    return length


def verify_classical_prefix(disks: int) -> bool:
    """Does the length-(2^N - 1) prefix of the classical sequence move the
    tower to peg II (N odd) or III (N even), completing exactly at the end?"""
    steps = solution_length(CLASSICAL, disks)
    word = catalog_lookup(SOLUTION_SEQUENCES[CLASSICAL]).prefix(steps)
    return simulate(word, disks, CLASSICAL).tower_peg() == classical_target(disks)


def bfs_optimal(variant: Variant, disks: int,
                source: str = "I", target: str = "II") -> tuple[int, Word]:
    """Minimal move count under the variant plus one witness word.

    Breadth-first search over the 3^N disk-position states; ties are
    broken by the fixed move order a < b < c < A < B < C, so the witness
    is deterministic.
    """
    if disks < 0:
        raise ValueError("disk count must be >= 0")
    src = peg_index(source)
    dst = peg_index(target)
    if src == dst:
        raise ValueError("source and target pegs must differ")
    rules = [(move, *MOVE_PEGS[move]) for move in MOVE_ORDER if move in variant.moves]
    weights = [3 ** d for d in range(disks)]
    floor = disks + 1
    start = sum(w * src for w in weights)
    goal = sum(w * dst for w in weights)
    parent: dict[int, Optional[tuple[int, str]]] = {start: None}
    queue: deque[int] = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            break
        tops = [floor, floor, floor]  # smallest disk per peg
        rest = state
        for disk in range(1, disks + 1):
            rest, peg = divmod(rest, 3)
            if disk < tops[peg]:
                tops[peg] = disk
        for move, a, b in rules:
            disk = tops[a]
            if disk < tops[b]:
                nxt = state + (b - a) * weights[disk - 1]
                if nxt not in parent:
                    parent[nxt] = (state, move)
                    queue.append(nxt)
    if goal not in parent:
        raise UnreachableError(
            f"peg {PEG_NAMES[dst]} unreachable from {PEG_NAMES[src]} with "
            f"{disks} disks under the {variant.name} variant")
    path: list[str] = []
    state = goal
    while parent[state] is not None:
        state, move = parent[state]
        path.append(move)
    path.reverse()
    return len(path), Word.from_tokens(HANOI_ALPHABET, path)


def olive_solve(disks: int, target: str) -> Word:
    """Alternating solution: odd steps cycle the smallest disk, even steps
    make the only legal move that leaves it alone.

    Toward the classical target (II for N odd, III for N even) the walk is
    the prefix of ``classical-hanoi-toeplitz``, ``a C b . c B a . b A c .``
    self-filled: the even cells ``a b c`` cycle disk 1 I->II->III->I,
    cells 1, 5 and 9 (``C B A``) move disk 2 the other way round, and the
    holes repeat the word for disks >= 3, which move as a tower of N - 2
    disks, to the same peg by parity.  Toward the other peg disk 1 cycles
    backwards: the same walk with pegs II and III exchanged.
    """
    steps = solution_length(CLASSICAL, disks)
    if peg_index(target) == 0:
        raise ValueError("target must be II or III")
    word = catalog_lookup("classical-hanoi-toeplitz").prefix(steps)
    return word if target == classical_target(disks) else _MIRROR.apply(word)


def factor_census(word: Word, width: int, aligned: bool = False) -> set[Word]:
    """Distinct width-letter blocks of the word.

    Aligned mode only counts blocks starting at multiples of the width;
    otherwise every starting position is scanned.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    idx = word.indices
    if width > len(idx):
        return set()
    windows = sliding_window_view(idx, width)[::width if aligned else 1]
    radix = len(word.alphabet.symbols)
    if radix ** width <= 2 ** 63:
        # each block packed into one integer, its letters as base-radix digits
        packed = np.zeros(len(windows), dtype=np.uint64)
        for col in range(width):
            packed *= np.uint64(radix)
            packed += windows[:, col]
        packed.sort()
        distinct = packed[np.concatenate(([True], packed[1:] != packed[:-1]))]
        digits = np.uint64(radix) ** np.arange(width - 1, -1, -1, dtype=np.uint64)
        blocks = distinct[:, None] // digits % np.uint64(radix)
    else:
        blocks = np.unique(windows, axis=0)
    return {Word._of(word.alphabet, block) for block in blocks}


def check_scan_budget(length: int, max_period: int) -> None:
    """Refuse a square scan past its budget: every period up to 10^4
    symbols, periods <= 64 up to 10^6."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if length > _CAPPED_SCAN_MAX or (length > _FULL_SCAN_MAX and max_period > _CAPPED_PERIOD):
        raise ValueError("scan budget exceeded: full period range up to 10^4 symbols, "
                         "periods <= 64 up to 10^6 symbols")


def squarefree_check(word: Word, max_period: int) -> Optional[tuple[int, int]]:
    """Earliest square ww with period <= max_period, or None.

    Returns (position, period), minimizing position first and period
    second.  For period p, a byte search finds the first p agreeing cells
    of word[:-p] == word[p:]; once a square at b is known, a longer period
    wins only before b, so only the first b - 1 + 2p symbols are compared.
    """
    n = len(word)
    check_scan_budget(n, max_period)
    arr = word.indices
    agree = bytearray(n)  # word[:-p] == word[p:], written in place for each p
    cells = np.frombuffer(agree, dtype=bool)
    best: Optional[tuple[int, int]] = None
    for period in range(1, min(max_period, n // 2) + 1):
        end = n if best is None else min(n, best[0] - 1 + 2 * period)
        np.equal(arr[:end - period], arr[period:end], out=cells[:end - period])
        position = agree.find(b"\x01" * period, 0, end - period)
        if position >= 0:  # before best[0], as the bound leaves no room at or after it
            best = (position, period)
            if position == 0:
                break
    return best
