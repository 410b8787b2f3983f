"""Command line interface for sequence generation and verification.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 when a checked property turns out false, 2 on usage errors (unknown
names, bad flags, out-of-range arguments).  Output is deterministic:
the same argv always produces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (InsufficientTruncationError, evaluate_relation,
                      find_algebraic_relation, period_doubling_relation,
                      series_from_sequence)
from .automaton import NonUniformError, dfao_from_uniform_morphism, kernel_explore
from .catalog import UnknownSequenceError, catalog_prefix, morphic_entry
from .classicseq import derive_T, derive_U, derive_V, derive_Z, doublefree_oracle
from .hanoi import (VariantViolationError, bfs_optimal, factor_census,
                    olive_solve, simulate, squarefree_check, variant_by_name,
                    verify_classical_prefix)
from .nonuniform import (ConstructionError, construct_nonuniform,
                         validation_failures)
from .toeplitz import NonConvergentError, ToeplitzSpec, toeplitz_expand
from .words import DomainError, ProlongabilityError

_SEQUENCE_FOR_VARIANT = {
    "classical": "classical-hanoi",
    "cyclic": "cyclic-hanoi",
    "lazy": "lazy-hanoi",
}


def _emit(args, lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_value_map(text):
    if text is None:
        return None
    mapping = {}
    for item in text.split(","):
        sym, _, value = item.partition("=")
        if not sym or not value:
            raise ValueError(f"bad --map entry {item!r}; use sym=value,sym=value")
        mapping[sym] = int(value)
    return mapping


def cmd_generate(args) -> int:
    word = catalog_prefix(args.name, args.length)
    _emit(args, [word.text()],
          {"name": args.name, "length": args.length, "tokens": list(word.tokens())})
    return 0


def cmd_compare(args) -> int:
    left = catalog_prefix(args.name_a, args.length)
    right = catalog_prefix(args.name_b, args.length)
    mismatch = left.first_mismatch(right)
    payload = {"name_a": args.name_a, "name_b": args.name_b,
               "length": args.length, "equal": mismatch is None,
               "first_mismatch": mismatch}
    if mismatch is None:
        _emit(args, [f"equal on the first {args.length} symbols"], payload)
        return 0
    _emit(args, [f"first mismatch at index {mismatch}: "
                 f"{left[mismatch]} vs {right[mismatch]}"], payload)
    return 1


def _sequence_solution(variant_name: str, disks: int):
    """Truncate the variant's catalog sequence at the first completion event."""
    if disks < 1:
        raise ValueError("disk count must be >= 1")
    variant = variant_by_name(variant_name)
    name = _SEQUENCE_FOR_VARIANT[variant_name]
    length = 256
    while True:
        word = catalog_prefix(name, length)
        trace = simulate(word, disks, variant)
        event = trace.event_for(disks)
        if event is not None:
            return word[:event[0]], event[2]
        if not trace.ok:
            raise RuntimeError(
                f"{name} aborted before completing {disks} disks: {trace.error}")
        if length >= 1 << 26:
            raise RuntimeError(f"no completion event for {disks} disks found")
        length *= 4


def cmd_hanoi_solve(args) -> int:
    if args.olive and args.variant != "classical":
        print("error: the alternating solver applies to the classical variant only",
              file=sys.stderr)
        return 2
    if args.olive:
        target = args.target or ("II" if args.disks % 2 else "III")
        word = olive_solve(args.disks, target)
        trace = simulate(word, args.disks, variant_by_name(args.variant))
        if not trace.ok:
            print(f"error: alternating solution is illegal: {trace.error}",
                  file=sys.stderr)
            return 1
        peg = target
        method = "olive"
    else:
        word, peg = _sequence_solution(args.variant, args.disks)
        method = "sequence"
    lines = [word.text(), f"moves: {len(word)}", f"peg: {peg}"]
    payload = {"variant": args.variant, "disks": args.disks, "method": method,
               "moves": list(word.tokens()), "steps": len(word), "peg": peg}
    status = 0
    if args.target and peg != args.target:
        lines.append(f"target check: reached {peg}, wanted {args.target}")
        payload["target_ok"] = False
        status = 1
    if args.check_optimal:
        best, _ = bfs_optimal(variant_by_name(args.variant), args.disks, "I", peg)
        payload["optimal_steps"] = best
        payload["optimal"] = best == len(word)
        lines.append(f"optimal: {best} moves by search, "
                     f"{'matches' if best == len(word) else 'MISMATCH'}")
        if best != len(word):
            status = 1
    _emit(args, lines, payload)
    return status


def cmd_hanoi_verify(args) -> int:
    ok = verify_classical_prefix(args.disks)
    steps = 2 ** args.disks - 1
    peg = "II" if args.disks % 2 else "III"
    lines = [f"disks: {args.disks}", f"moves: {steps}", f"peg: {peg}",
             f"result: {'ok' if ok else 'FAILED'}"]
    _emit(args, lines, {"disks": args.disks, "moves": steps, "peg": peg, "ok": ok})
    return 0 if ok else 1


def cmd_hanoi_bfs(args) -> int:
    variant = variant_by_name(args.variant)
    length, word = bfs_optimal(variant, args.disks, args.source, args.target)
    _emit(args, [f"optimal: {length}", word.text()],
          {"variant": args.variant, "disks": args.disks, "source": args.source,
           "target": args.target, "optimal": length, "moves": list(word.tokens())})
    return 0


def cmd_toeplitz(args) -> int:
    spec = ToeplitzSpec.from_tokens(args.pattern)
    word = toeplitz_expand(spec, args.length)
    lines = [word.text()]
    payload = {"pattern": list(spec.pattern), "length": args.length,
               "tokens": list(word.tokens())}
    status = 0
    if args.expect:
        other = catalog_prefix(args.expect, args.length)
        equal = word.tokens() == other.tokens()
        payload["expect"] = args.expect
        payload["equal"] = equal
        lines.append(f"matches {args.expect}: {'yes' if equal else 'NO'}")
        if not equal:
            status = 1
    _emit(args, lines, payload)
    return status


def cmd_census(args) -> int:
    word = catalog_prefix(args.seq, args.length)
    blocks = factor_census(word, args.width, aligned=args.aligned)
    texts = sorted(b.text() for b in blocks)
    _emit(args, [f"blocks: {len(texts)}"] + texts,
          {"seq": args.seq, "length": args.length, "width": args.width,
           "aligned": args.aligned, "blocks": [t.split() for t in texts]})
    return 0


def cmd_squarefree(args) -> int:
    word = catalog_prefix(args.seq, args.length)
    max_period = args.max_period or max(1, args.length // 2)
    hit = squarefree_check(word, max_period)
    payload = {"seq": args.seq, "length": args.length, "max_period": max_period,
               "square": list(hit) if hit else None}
    if hit is None:
        _emit(args, [f"no square with period <= {max_period} "
                     f"in the first {args.length} symbols"], payload)
        return 0
    position, period = hit
    block = word[position:position + 2 * period]
    _emit(args, [f"square at position {position}, period {period}: {block.text()}"],
          payload)
    return 1


def cmd_kernel(args) -> int:
    word = catalog_prefix(args.seq, args.length)
    report = kernel_explore(word, args.radix, args.depth)
    lines = [
        f"classes: {report.class_count}",
        f"representatives: " + " ".join(f"({e},{r})" for e, r in report.representatives),
        f"consistent up to overlap {report.consistent_up_to} on a "
        f"{report.prefix_length}-symbol prefix",
    ]
    if report.insufficient_evidence:
        lines.append("warning: prefix too short for the requested depth")
    _emit(args, lines, {"seq": args.seq, **report.to_json()})
    return 0


def cmd_construct(args) -> int:
    spec = morphic_entry(args.seq)
    construction = construct_nonuniform(spec.morphism, spec.start)
    data = construction.to_json()
    lines = [f"expanding letter: {construction.expanding} "
             f"(companion {construction.companion}, power {construction.power})"]
    for sym in construction.morphism.domain.symbols:
        lines.append(f"{sym} -> {construction.morphism.image(sym).text()}")
    status = 0
    if args.validate:
        failures = validation_failures(construction, args.validate)
        data["validated_length"] = args.validate
        data["valid"] = not failures
        data["failures"] = failures
        if failures:
            lines.extend(f"validation: {f}" for f in failures)
            status = 1
        else:
            lines.append(f"validation: ok on {args.validate} symbols")
    _emit(args, lines, data)
    return status


def cmd_christol_verify(args) -> int:
    series = series_from_sequence(catalog_prefix("period-doubling", args.order),
                                  2, args.order)
    residue = evaluate_relation(period_doubling_relation(), series)
    ok = residue.is_zero()
    _emit(args, [f"X(1+X)F^2 + (1+X)F + 1 on the period-doubling series: "
                 f"{'zero' if ok else 'NON-ZERO'} mod X^{args.order}"],
          {"order": args.order, "zero": ok})
    return 0 if ok else 1


def _poly_text(poly) -> str:
    terms = []
    for i, c in enumerate(poly):
        if not c:
            continue
        coeff = "" if c == 1 and i else str(c)
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{coeff}X")
        else:
            terms.append(f"{coeff}X^{i}")
    return " + ".join(terms) if terms else "0"


def cmd_christol_search(args) -> int:
    word = catalog_prefix(args.seq, args.order)
    series = series_from_sequence(word, args.modulus, args.order,
                                  value_map=_parse_value_map(args.map))
    relation = find_algebraic_relation(series, args.dmax, args.coeff_degree)
    if relation is None:
        _emit(args, [f"no relation with degree <= {args.dmax} and coefficient "
                     f"degree <= {args.coeff_degree} at order {args.order} "
                     "(finite-truncation evidence only)"],
              {"seq": args.seq, "order": args.order, "relation": None})
        return 0
    normalized = relation.normalized()
    lines = ["relation found (A_i multiplies F^i):"]
    lines += [f"A_{i} = {_poly_text(p)}" for i, p in enumerate(normalized.polys)]
    _emit(args, lines, {"seq": args.seq, "order": args.order,
                        "relation": normalized.to_json()})
    return 0


def _derived_Z(length: int):
    source = 4 * length + 64
    while True:
        z = derive_Z(catalog_prefix("thue-morse", source))
        if len(z) >= length:
            return z.values[:length]
        source *= 2


def cmd_derive(args) -> int:
    length = args.length
    status = 0
    lines = []
    payload = {"what": args.what, "length": length}
    if args.what == "T":
        word = derive_T(catalog_prefix("classical-hanoi", length))
        lines.append(word.text())
        payload["tokens"] = list(word.tokens())
        if args.check:
            ok = word == catalog_prefix("period-doubling", length)
            lines.append(f"matches period-doubling: {'yes' if ok else 'NO'}")
            payload["check"] = ok
            status = 0 if ok else 1
    elif args.what == "U":
        u = derive_U(catalog_prefix("classical-hanoi", length))
        lines.append(u.text())
        payload["values"] = u.to_json()
        if args.check:
            upto = min(length, 24)
            ok = all(doublefree_oracle(n) == u[n - 1] for n in range(1, upto + 1))
            lines.append(f"double-free oracle agrees for n <= {upto}: "
                         f"{'yes' if ok else 'NO'}")
            payload["check"] = ok
            status = 0 if ok else 1
    elif args.what == "V":
        v = derive_V(derive_U(catalog_prefix("classical-hanoi", length)))
        lines.append(v.text())
        payload["tokens"] = list(v.tokens())
        if args.check:
            tm = catalog_prefix("thue-morse", length + 1)
            ok = ("0",) + v.tokens() == tm.tokens()
            lines.append(f"0V matches thue-morse: {'yes' if ok else 'NO'}")
            payload["check"] = ok
            status = 0 if ok else 1
    else:  # Z
        values = _derived_Z(length)
        lines.append(" ".join(str(v) for v in values))
        payload["values"] = list(values)
        if args.check:
            non = tuple(int(t) for t in catalog_prefix("z-nonuniform", length).tokens())
            uni = tuple(int(t) for t in catalog_prefix("z-uniform", length).tokens())
            ok = values == non == uni
            lines.append(f"matches both morphic presentations: {'yes' if ok else 'NO'}")
            payload["check"] = ok
            status = 0 if ok else 1
    _emit(args, lines, payload)
    return status


def cmd_eval(args) -> int:
    dfao = dfao_from_uniform_morphism(morphic_entry(args.seq))
    status = 0
    lines = []
    payload = {"seq": args.seq}
    if args.index is not None:
        symbol = dfao.eval(args.index)
        lines.append(symbol)
        payload["index"] = args.index
        payload["symbol"] = symbol
    if args.check_prefix:
        prefix = catalog_prefix(args.seq, args.check_prefix).tokens()
        bad = next((n for n in range(args.check_prefix)
                    if dfao.eval(n) != prefix[n]), None)
        ok = bad is None
        lines.append(f"automaton agrees with the prefix for n < {args.check_prefix}: "
                     f"{'yes' if ok else f'NO (first mismatch at {bad})'}")
        payload["check_prefix"] = args.check_prefix
        payload["check"] = ok
        if not ok:
            status = 1
    if args.index is None and not args.check_prefix:
        print("error: give --index and/or --check-prefix", file=sys.stderr)
        return 2
    _emit(args, lines, payload)
    return status


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanoiseq",
        description="Tower of Hanoi move sequences, morphisms and automata")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="print a prefix of a catalog sequence")
    p.add_argument("name", help="catalog name, e.g. classical-hanoi")
    p.add_argument("--length", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compare", help="compare two catalog sequences")
    p.add_argument("name_a")
    p.add_argument("name_b")
    p.add_argument("--length", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("hanoi", help="puzzle solving and verification")
    hanoi_sub = p.add_subparsers(dest="hanoi_command")

    ps = hanoi_sub.add_parser("solve", help="solve by sequence truncation or the alternating rule")
    ps.add_argument("--variant", choices=sorted(_SEQUENCE_FOR_VARIANT), default="classical")
    ps.add_argument("--disks", type=int, required=True)
    ps.add_argument("--target", choices=("II", "III"))
    ps.add_argument("--olive", action="store_true",
                    help="use the alternating smallest-disk rule")
    ps.add_argument("--check-optimal", action="store_true",
                    help="cross-check the move count against breadth-first search")
    _add_format(ps)
    ps.set_defaults(func=cmd_hanoi_solve)

    pv = hanoi_sub.add_parser("verify", help="check the classical prefix solves N disks")
    pv.add_argument("--disks", type=int, required=True)
    _add_format(pv)
    pv.set_defaults(func=cmd_hanoi_verify)

    pb = hanoi_sub.add_parser("bfs", help="optimal move count by breadth-first search")
    pb.add_argument("--variant", choices=sorted(_SEQUENCE_FOR_VARIANT), default="classical")
    pb.add_argument("--disks", type=int, required=True)
    pb.add_argument("--source", default="I", choices=("I", "II", "III"))
    pb.add_argument("--target", default="II", choices=("I", "II", "III"))
    _add_format(pb)
    pb.set_defaults(func=cmd_hanoi_bfs)

    p = sub.add_parser("toeplitz", help="expand a periodic pattern with holes")
    p.add_argument("--pattern", required=True,
                   help="whitespace-separated tokens, '.' for the hole")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--expect", help="catalog name the expansion should equal")
    _add_format(p)
    p.set_defaults(func=cmd_toeplitz)

    p = sub.add_parser("census", help="distinct width-letter blocks of a sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--aligned", action="store_true")
    p.add_argument("--length", type=int, default=4096)
    _add_format(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("squarefree", help="scan a prefix for squares ww")
    p.add_argument("--seq", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max-period", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_squarefree)

    p = sub.add_parser("kernel", help="finite-prefix kernel class evidence")
    p.add_argument("--seq", required=True)
    p.add_argument("--radix", type=int, default=2)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--length", type=int, default=2 ** 16)
    _add_format(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("construct-nonuniform",
                       help="non-uniform presentation of a uniform catalog morphism")
    p.add_argument("--seq", required=True)
    p.add_argument("--validate", type=int, metavar="L",
                   help="validate the construction on an L-symbol prefix")
    _add_format(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("christol", help="algebraic relations of series over F_q")
    chris_sub = p.add_subparsers(dest="christol_command")

    pv = chris_sub.add_parser("verify",
                              help="check the period-doubling series relation")
    pv.add_argument("--order", type=int, default=4096)
    _add_format(pv)
    pv.set_defaults(func=cmd_christol_verify)

    ps = chris_sub.add_parser("search", help="search for a low-degree relation")
    ps.add_argument("--seq", required=True)
    ps.add_argument("--modulus", type=int, default=2)
    ps.add_argument("--dmax", type=int, default=2)
    ps.add_argument("--coeff-degree", type=int, default=2)
    ps.add_argument("--order", type=int, default=512)
    ps.add_argument("--map", help="symbol values, e.g. a=0,b=1")
    _add_format(ps)
    ps.set_defaults(func=cmd_christol_search)

    p = sub.add_parser("derive", help="classical projections T, U, V, Z")
    p.add_argument("--what", choices=("T", "U", "V", "Z"), required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="verify the defining cross-identity")
    _add_format(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("eval", help="evaluate one term through the automaton")
    p.add_argument("--seq", required=True)
    p.add_argument("--index", type=int)
    p.add_argument("--check-prefix", type=int, metavar="L",
                   help="compare automaton output with the prefix for n < L")
    _add_format(p)
    p.set_defaults(func=cmd_eval)

    return parser


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (UnknownSequenceError, DomainError, NonUniformError,
            ProlongabilityError, NonConvergentError, VariantViolationError,
            ConstructionError, InsufficientTruncationError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
