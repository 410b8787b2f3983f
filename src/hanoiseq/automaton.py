"""Finite automata with output for uniform substitution fixed points.

A k-uniform morphism with images ``m(s) = m(s)[0] ... m(s)[k-1]`` turns
into an automaton whose states are the alphabet symbols and whose
transition on digit d moves to the d-th letter of the state's image.
Reading the base-k digits of n most significant first, starting from
the start symbol, lands on the n-th letter of the fixed point; the
output map (a coding, identity when absent) then yields term n of the
sequence in O(log n) steps.  No leading zero digits are read, so the
evaluation is well defined whether or not the start state loops on 0.

``kernel_explore`` gathers finite-prefix evidence for the size of the
set of subsequences n -> a(k^e n + r): it closes the exponent/residue
pairs under digit refinement and merges pairs whose subsequences agree
on the whole overlap available inside the prefix.  Agreement on a
finite prefix is evidence, never proof, and the report records how much
overlap backed each merge.  A sequence that is not k-automatic opens a
new class almost every time, so the comparisons carry a work budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .words import Alphabet, MorphicSpec, Word


# kernel_explore's work budget: a comparison costs its overlap in symbols
# plus a fixed charge for the call (about 2 us against about 1 ns per symbol),
# so the budget is about 0.5 s of comparing
_KERNEL_WORK_MAX = 1 << 29
_COMPARISON_COST = 2048
# symbols compared before the rest of an overlap
_HEAD = 64


class NonUniformError(ValueError):
    """Automaton construction needs a k-uniform morphism with k >= 2."""


@dataclass(frozen=True)
class Dfao:
    """Deterministic finite automaton with per-state output."""

    states: Alphabet
    radix: int
    initial: str
    transitions: tuple[tuple[int, ...], ...]
    output: tuple[str, ...]

    def __post_init__(self):
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        n = len(self.states.symbols)
        if len(self.transitions) != n or len(self.output) != n:
            raise ValueError("transition and output tables must cover every state")
        for row in self.transitions:
            if len(row) != self.radix or not all(0 <= t < n for t in row):
                raise ValueError("transition table must be total and in range")

    def eval(self, n: int) -> str:
        """Output symbol for index n (msd-first digit walk)."""
        if n < 0:
            raise ValueError("index must be >= 0")
        digits: list[int] = []
        while n:
            n, d = divmod(n, self.radix)
            digits.append(d)
        state = self.states.index(self.initial)
        table = self.transitions
        for d in reversed(digits):
            state = table[state][d]
        return self.output[state]

    def eval_many(self, ns) -> Word:
        """``eval`` at every index of an int64 array, as one word: one table
        lookup per digit position, most significant first, and no step
        above an index's leading digit."""
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and ns.min() < 0:
            raise ValueError("index must be >= 0")
        k = self.radix
        steps = np.array(self.transitions, dtype=np.intp).ravel()
        states = np.full(ns.shape, self.states.index(self.initial), dtype=np.intp)
        power, top = 1, int(ns.max()) if ns.size else 0
        while power * k <= top:
            power *= k
        higher = np.zeros_like(ns)  # ns // (power * k)
        while power:
            quotient = ns // power
            digits = quotient - higher * k
            states = np.where(quotient > 0, steps.take(states * k + digits), states)
            higher, power = quotient, power // k
        outputs = Alphabet(tuple(dict.fromkeys(self.output)))
        return Word._of(outputs, np.array([outputs.index(s) for s in self.output]).take(states))


def dfao_from_uniform_morphism(spec: MorphicSpec) -> Dfao:
    """Automaton evaluating the spec's sequence from base-k digits."""
    width = spec.morphism.uniform_width
    if width is None or width < 2:
        raise NonUniformError("spec's morphism must be k-uniform with k >= 2")
    alphabet = spec.morphism.domain
    transitions = tuple(tuple(img.indices.tolist()) for img in spec.morphism.images)
    if spec.coding is not None:
        output = tuple(img[0] for img in spec.coding.images)
    else:
        output = alphabet.symbols
    return Dfao(alphabet, width, spec.start, transitions, output)


@dataclass(frozen=True)
class KernelReport:
    """Finite-prefix evidence about the radix-k kernel of a sequence."""

    radix: int
    depth: int
    prefix_length: int
    representatives: tuple[tuple[int, int], ...]
    class_count: int
    consistent_up_to: int
    insufficient_evidence: bool


def kernel_explore(prefix: Word, radix: int, depth: int) -> KernelReport:
    """Close {(e, r)} under digit refinement and merge on agreeing overlaps.

    Exponent/residue pairs index the subsequences n -> prefix[k^e n + r];
    children (e+1, r + j k^e) are explored only for pairs that opened a
    new class, and only while e < depth.  Raises ValueError before a
    comparison would take the work past _KERNEL_WORK_MAX.
    """
    if radix < 2:
        raise ValueError("radix must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not len(prefix):
        raise ValueError("prefix must not be empty")
    seq = prefix.indices
    reps: list[tuple[int, int]] = []
    rep_seqs: list[np.ndarray] = []
    overlaps: list[int] = []
    # a depth-d residue r can be as large as k^d - 1; a shorter prefix
    # cannot even place one term of every depth-level subsequence
    insufficient = len(seq) < radix ** depth
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    work = comparisons = 0
    while queue:
        e, r = queue.popleft()
        sub = seq[r::radix ** e]
        if not len(sub):
            insufficient = True
            continue
        matched = False
        for rep_seq in rep_seqs:
            m = min(len(sub), len(rep_seq))
            work += m + _COMPARISON_COST
            if work > _KERNEL_WORK_MAX:
                raise ValueError(
                    f"kernel budget exceeded: after {comparisons} comparisons against "
                    f"{len(reps)} classes the work passes {_KERNEL_WORK_MAX} symbols "
                    f"(overlap plus {_COMPARISON_COST} per comparison)")
            comparisons += 1
            head = min(m, _HEAD)  # most unequal pairs already differ there
            if (np.array_equal(sub[:head], rep_seq[:head])
                    and np.array_equal(sub[head:m], rep_seq[head:m])):
                overlaps.append(m)
                matched = True
                break
        if not matched:
            reps.append((e, r))
            rep_seqs.append(sub)
            if e < depth:
                step = radix ** e
                for j in range(radix):
                    queue.append((e + 1, r + j * step))
    return KernelReport(
        radix=radix,
        depth=depth,
        prefix_length=len(seq),
        representatives=tuple(reps),
        class_count=len(reps),
        consistent_up_to=min(overlaps) if overlaps else len(seq),
        insufficient_evidence=insufficient,
    )
