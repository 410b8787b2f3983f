"""Tower of Hanoi move sequences, substitution morphisms, automata with
output, Toeplitz constructions, and desk-scale verification oracles."""

from .algebra import (InsufficientTruncationError, Relation, Series,
                      evaluate_relation, find_algebraic_relation,
                      period_doubling_relation, series_from_sequence)
from .automaton import (Dfao, KernelReport, NonUniformError,
                        dfao_from_uniform_morphism, kernel_explore)
from .catalog import (UnknownSequenceError, catalog_lookup, catalog_names,
                      catalog_prefix, morphic_entry)
from .classicseq import (BAR_PROJECTION, derive_T, derive_U, derive_V, derive_Z,
                         doublefree_exhaustive, doublefree_oracle)
from .hanoi import (CLASSICAL, CYCLIC, LAZY, Trace, UnreachableError, Variant,
                    VariantViolationError, bfs_optimal, factor_census,
                    olive_solve, simulate, squarefree_check, variant_by_name,
                    verify_classical_prefix)
from .nonuniform import (Construction, ConstructionError, construct_nonuniform,
                         find_expanding_letter, validation_failures)
from .toeplitz import HOLE, NonConvergentError, ToeplitzSpec, fill_pass, toeplitz_expand
from .words import (Alphabet, DomainError, IntSequence, Morphism, MorphicSpec,
                    ProlongabilityError, Word, is_prolongable, spec_from_json,
                    spec_to_json)

__version__ = "0.1.0"
