"""Disk-and-peg semantics for the six move letters and the restricted
puzzle variants, with a breadth-first optimality oracle.

Moves: ``a`` I->II, ``b`` II->III, ``c`` III->I; the uppercase letters
are the reversed moves, so ``C`` takes the top disk from peg I to peg
III.  A state keeps each peg as a stack listed bottom to top; radii
must increase strictly downward, so the top of a peg is its last entry
and always its smallest disk.

``simulate`` replays a move word from the standard start (all disks on
peg I), recording for every sub-tower size the first step at which
disks 1..n stand together on a peg other than peg I.  An illegal move
aborts the replay and is embedded in the returned trace; a move outside
the variant's allowed set raises instead, since the caller picked the
variant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import HANOI_ALPHABET, catalog_lookup
from .words import Word

MOVE_ORDER = ("a", "b", "c", "A", "B", "C")
MOVE_PEGS = {"a": (0, 1), "b": (1, 2), "c": (2, 0),
             "A": (1, 0), "B": (2, 1), "C": (0, 2)}
_PEG_MOVE = {pegs: move for move, pegs in MOVE_PEGS.items()}
PEG_NAMES = ("I", "II", "III")

# scan budgets for squarefree_check (see that function)
_FULL_SCAN_MAX = 10_000
_CAPPED_SCAN_MAX = 1_000_000
_CAPPED_PERIOD = 64


class IllegalMoveError(ValueError):
    """A move that the current state does not permit."""


class EmptySourceError(IllegalMoveError):
    """The move's source peg holds no disk."""


class DiskOrderError(IllegalMoveError):
    """The move would place a disk on a smaller one."""


class VariantViolationError(ValueError):
    """A move outside the variant's allowed subset."""


class UnreachableError(ValueError):
    """The BFS exhausted the state graph without reaching the target."""


def bar(move: str) -> str:
    """The reverse of a move; an involution exchanging source and target."""
    if move not in MOVE_PEGS:
        raise ValueError(f"unknown move {move!r}")
    return move.swapcase()


def peg_index(name: Union[str, int]) -> int:
    if isinstance(name, int) and 0 <= name < 3:
        return name
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
class HanoiState:
    """Three pegs, each a bottom-to-top stack of disk radii."""

    pegs: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        pegs = tuple(tuple(p) for p in self.pegs)
        object.__setattr__(self, "pegs", pegs)
        if len(pegs) != 3:
            raise ValueError("a state has exactly three pegs")
        seen: set[int] = set()
        for stack in pegs:
            for below, above in zip(stack, stack[1:]):
                if above >= below:
                    raise ValueError("disks must shrink towards the top of a peg")
            seen.update(stack)
        total = sum(len(p) for p in pegs)
        if len(seen) != total or (seen and seen != set(range(1, total + 1))):
            raise ValueError("disks must be exactly the radii 1..N, each once")

    @classmethod
    def initial(cls, disks: int, peg: Union[str, int] = 0) -> "HanoiState":
        if disks < 0:
            raise ValueError("disk count must be >= 0")
        stacks: list[tuple[int, ...]] = [(), (), ()]
        stacks[peg_index(peg)] = tuple(range(disks, 0, -1))
        return cls(tuple(stacks))

    @property
    def disks(self) -> int:
        return sum(len(p) for p in self.pegs)

    def top(self, peg: int) -> Optional[int]:
        stack = self.pegs[peg]
        return stack[-1] if stack else None

    def apply(self, move: str) -> "HanoiState":
        if move not in MOVE_PEGS:
            raise ValueError(f"unknown move {move!r}")
        src, dst = MOVE_PEGS[move]
        source = self.pegs[src]
        if not source:
            raise EmptySourceError(f"move {move}: peg {PEG_NAMES[src]} is empty")
        disk = source[-1]
        target = self.pegs[dst]
        if target and target[-1] < disk:
            raise DiskOrderError(
                f"move {move}: disk {disk} cannot cover smaller disk "
                f"{target[-1]} on peg {PEG_NAMES[dst]}")
        stacks = list(self.pegs)
        stacks[src] = source[:-1]
        stacks[dst] = target + (disk,)
        return HanoiState(tuple(stacks))


@dataclass(frozen=True)
class Trace:
    """Replay record: executed moves, per-step legality, completion events.

    Events are (step, size, peg) triples marking the first step at which
    disks 1..size stand together on the named non-initial peg; steps are
    1-based.  ``error`` carries the diagnosis of the aborting step, if any.
    """

    disks: int
    variant: Variant
    initial: HanoiState
    moves: tuple[str, ...]
    legal: tuple[bool, ...]
    events: tuple[tuple[int, int, str], ...]
    final: HanoiState
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def event_for(self, size: int) -> Optional[tuple[int, int, str]]:
        for event in self.events:
            if event[1] == size:
                return event
        return None

    def to_json(self) -> dict:
        return {
            "disks": self.disks,
            "variant": self.variant.name,
            "initial": [list(p) for p in self.initial.pegs],
            "moves": list(self.moves),
            "legal": list(self.legal),
            "events": [list(e) for e in self.events],
            "final": [list(p) for p in self.final.pegs],
            "error": self.error,
        }


def _move_tokens(moves) -> list[str]:
    if isinstance(moves, Word):
        return list(moves.tokens())
    if isinstance(moves, str):
        return moves.split()
    return list(moves)


def simulate(moves, disks: int, variant: Variant = CLASSICAL) -> Trace:
    """Replay a move word on N disks from the standard start."""
    tokens = _move_tokens(moves)
    pegs: list[list[int]] = [list(range(disks, 0, -1)), [], []]
    peg_of = [0] * (disks + 1)
    seen = [False] * (disks + 1)
    executed: list[str] = []
    legal: list[bool] = []
    events: list[tuple[int, int, str]] = []
    error = None
    for step, move in enumerate(tokens, start=1):
        if move not in MOVE_PEGS:
            raise VariantViolationError(f"unknown move {move!r} at step {step}")
        if move not in variant.moves:
            raise VariantViolationError(
                f"move {move} is not allowed in the {variant.name} variant (step {step})")
        src, dst = MOVE_PEGS[move]
        executed.append(move)
        if not pegs[src]:
            legal.append(False)
            error = f"step {step}, move {move}: peg {PEG_NAMES[src]} is empty"
            break
        disk = pegs[src][-1]
        if pegs[dst] and pegs[dst][-1] < disk:
            legal.append(False)
            error = (f"step {step}, move {move}: disk {disk} cannot cover smaller "
                     f"disk {pegs[dst][-1]} on peg {PEG_NAMES[dst]}")
            break
        pegs[src].pop()
        pegs[dst].append(disk)
        peg_of[disk] = dst
        legal.append(True)
        if disks:
            home = peg_of[1]
            if home != 0:
                size = 1
                while size < disks and peg_of[size + 1] == home:
                    size += 1
                for n in range(1, size + 1):
                    if not seen[n]:
                        seen[n] = True
                        events.append((step, n, PEG_NAMES[home]))
    final = HanoiState(tuple(tuple(p) for p in pegs))
    return Trace(disks, variant, HanoiState.initial(disks), tuple(executed),
                 tuple(legal), tuple(events), final, error)


def verify_classical_prefix(disks: int) -> bool:
    """Does the length-(2^N - 1) prefix of the classical sequence move the
    tower to peg II (N odd) or III (N even), completing exactly at the end?"""
    if disks < 1:
        raise ValueError("disk count must be >= 1")
    steps = 2 ** disks - 1
    word = catalog_lookup("classical-hanoi").prefix(steps)
    trace = simulate(word, disks, CLASSICAL)
    if not trace.ok:
        return False
    target = 1 if disks % 2 else 2
    if trace.event_for(disks) != (steps, disks, PEG_NAMES[target]):
        return False
    return trace.final.pegs[target] == tuple(range(disks, 0, -1))


def bfs_optimal(variant: Variant, disks: int,
                source: Union[str, int] = "I",
                target: Union[str, int] = "II") -> tuple[int, Word]:
    """Minimal move count under the variant plus one witness word.

    Breadth-first search over the 3^N disk-position states; ties are
    broken by the fixed move order a < b < c < A < B < C, so the witness
    is deterministic.
    """
    if disks < 0:
        raise ValueError("disk count must be >= 0")
    if disks == 0:
        return 0, Word(HANOI_ALPHABET)
    src = peg_index(source)
    dst = peg_index(target)
    if src == dst:
        raise ValueError("source and target pegs must differ")
    moves = [m for m in MOVE_ORDER if m in variant.moves]
    move_pegs = [MOVE_PEGS[m] for m in moves]
    weights = [3 ** d for d in range(disks)]
    start = sum(w * src for w in weights)
    goal = sum(w * dst for w in weights)
    parent: dict[int, Optional[tuple[int, str]]] = {start: None}
    queue: deque[int] = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            break
        tops = [0, 0, 0]  # smallest disk per peg, 0 for empty
        rest = state
        for disk in range(1, disks + 1):
            rest, peg = divmod(rest, 3)
            if tops[peg] == 0:
                tops[peg] = disk
        for move, (a, b) in zip(moves, move_pegs):
            disk = tops[a]
            if disk == 0 or (tops[b] and tops[b] < disk):
                continue
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


def olive_solve(disks: int, target: Union[str, int]) -> Word:
    """Alternating solution: odd steps cycle the smallest disk, even steps
    make the only legal move that leaves it alone.

    The smallest disk circulates I->II->III->I when the tower should land
    on II with N odd or on III with N even, and the other way round
    otherwise; this choice reproduces the classical sequence prefixes.
    """
    if disks < 1:
        raise ValueError("disk count must be >= 1")
    dst = peg_index(target)
    if dst == 0:
        raise ValueError("target must be II or III")
    forward = (dst == 1) == (disks % 2 == 1)
    step_dir = 1 if forward else -1
    pegs: list[list[int]] = [list(range(disks, 0, -1)), [], []]
    home = 0
    out: list[str] = []
    for step in range(1, 2 ** disks):
        if step % 2:
            nxt = (home + step_dir) % 3
            out.append(_PEG_MOVE[(home, nxt)])
            pegs[home].pop()
            pegs[nxt].append(1)
            home = nxt
        else:
            i, j = (p for p in range(3) if p != home)
            top_i = pegs[i][-1] if pegs[i] else None
            top_j = pegs[j][-1] if pegs[j] else None
            if top_i is None and top_j is None:
                raise RuntimeError("no move available away from the smallest disk")
            if top_j is None or (top_i is not None and top_i < top_j):
                a, b = i, j
            else:
                a, b = j, i
            out.append(_PEG_MOVE[(a, b)])
            pegs[b].append(pegs[a].pop())
    return Word.from_tokens(HANOI_ALPHABET, out)


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


def squarefree_check(word: Word, max_period: int) -> Optional[tuple[int, int]]:
    """Earliest square ww with period <= max_period, or None.

    Returns (position, period), minimizing position first and period
    second.  Budget: unrestricted periods are scanned for words up to
    10^4 symbols; longer words (up to 10^6) only with max_period <= 64.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    n = len(word)
    if n > _CAPPED_SCAN_MAX or (n > _FULL_SCAN_MAX and max_period > _CAPPED_PERIOD):
        raise ValueError(
            "scan budget exceeded: full period range up to 10^4 symbols, "
            "periods <= 64 up to 10^6 symbols")
    if n < 2:
        return None
    arr = word.indices
    best: Optional[tuple[int, int]] = None
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
