"""Finite automata with output for uniform substitution fixed points.

A k-uniform morphism with images ``m(s) = m(s)[0] ... m(s)[k-1]`` is
an automaton whose states are the alphabet symbols and whose transition
on digit d moves to the d-th letter of the state's image: ``Dfao`` reads
the spec's own (|A|, k) image table.  Reading the base-k digits of n
most significant first, from the start symbol, lands on the n-th letter
of the fixed point; the spec's coding, if any, then yields term n in
O(log n) steps.  The start symbol begins its own image (prolongability),
so the start state loops on 0 and leading zero digits change nothing.

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
from functools import cached_property

import numpy as np

from .words import MorphicSpec, Word


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
    """The automaton of a k-uniform spec, read from the spec itself."""

    spec: MorphicSpec

    def __post_init__(self):
        if self.radix is None or self.radix < 2:
            raise NonUniformError("spec's morphism must be k-uniform with k >= 2")

    @property
    def radix(self) -> int:
        return self.spec.morphism.uniform_width

    @cached_property
    def _walk(self) -> tuple[int, int, list[list[int]], tuple[str, ...]]:
        # plain Python rows: a list lookup costs a fraction of a numpy one
        morphism, coding = self.spec.morphism, self.spec.coding
        output = (morphism.domain.symbols if coding is None
                  else tuple(img[0] for img in coding.images))
        return (self.radix, morphism.domain.index(self.spec.start),
                morphism._table.tolist(), output)

    def eval(self, n: int) -> str:
        """Output symbol for index n (msd-first digit walk)."""
        if n < 0:
            raise ValueError("index must be >= 0")
        radix, state, rows, output = self._walk
        digits: list[int] = []
        while n:
            n, d = divmod(n, radix)
            digits.append(d)
        for d in reversed(digits):
            state = rows[state][d]
        return output[state]

    def eval_many(self, ns) -> Word:
        """``eval`` at every index of an int64 array, as one word over the
        alphabet of the spec's prefixes: one table lookup per digit
        position, most significant first."""
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and ns.min() < 0:
            raise ValueError("index must be >= 0")
        morphism, k = self.spec.morphism, self.radix
        alphabet = morphism.domain
        # the transition table digit-major: cell d * |A| + s holds delta(s, d)
        columns = morphism._table.T.ravel()
        states = np.full(ns.shape, alphabet.index(self.spec.start), dtype=alphabet.dtype)
        power, top = 1, int(ns.max()) if ns.size else 0
        while power * k <= top:
            power *= k
        while power:  # a shorter index reads leading zeros: no move
            cells = ns // power
            cells %= k
            cells *= len(alphabet)
            cells += states
            states = columns.take(cells)
            power //= k
        word = Word._of(alphabet, states)
        return self.spec.coding.apply(word) if self.spec.coding else word


def dfao_from_uniform_morphism(spec: MorphicSpec) -> Dfao:
    """Automaton evaluating the spec's sequence from base-k digits."""
    return Dfao(spec)


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
    # cannot even place one term of every depth-level subsequence (and
    # k >= 2, so no depth past the prefix's bit length changes the answer)
    insufficient = len(seq) < radix ** min(depth, len(seq).bit_length())
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    work = comparisons = 0
    while queue:
        e, r = queue.popleft()
        sub = seq[r::radix ** e]
        if not len(sub):
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
