"""Command line interface for sequence generation and verification.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 when a checked property turns out false, 2 on usage errors (unknown
names, bad flags, out-of-range arguments, sizes past their budget).
Output is deterministic: the same argv always produces the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import hanoi
from .algebra import (evaluate_relation, find_algebraic_relation,
                      period_doubling_relation, series_from_sequence)
from .automaton import dfao_from_uniform_morphism, kernel_explore
from .catalog import UnknownSequenceError, catalog_prefix, morphic_entry
from .classicseq import (IntSequence, derive_T, derive_U, derive_V, derive_Z,
                         doublefree_oracle)
from .hanoi import (SOLUTION_SEQUENCES, bfs_optimal, check_scan_budget, classical_target,
                    factor_census, olive_solve, simulate, solution_length, squarefree_check,
                    variant_by_name, verify_classical_prefix)
from .nonuniform import construct_nonuniform, validation_failures
from .toeplitz import ToeplitzSpec, toeplitz_expand
from .words import Word


# A command prints nothing and returns (exit status, text lines, JSON payload)
# for run() to render once, in the requested format.  Words and integer
# sequences go in unrendered; no payload means the command reported on stderr.
Result = tuple[int, list, dict | None]


# json.dumps(value, sort_keys=True) without building an encoder per call
_JSON = json.JSONEncoder(sort_keys=True)


def _emit(fmt, lines, payload) -> None:
    """Write the lines, or the payload as json.dumps(payload, sort_keys=True)
    writes it, as they are made: a word or integer sequence 2^16 terms at a time."""
    write = sys.stdout.write  # not .buffer: a caller may redirect to a StringIO
    if fmt == "json":
        write("{")
        for i, (key, value) in enumerate(sorted(payload.items())):
            write(f"{', ' if i else ''}{_JSON.encode(key)}: ")
            for piece in (value.pieces("json") if isinstance(value, (Word, IntSequence))
                          else (_JSON.encode(value),)):
                write(piece)
        write("}\n")
        return
    for line in lines:
        for piece in (line,) if isinstance(line, str) else line.pieces("text"):
            write(piece)
        write("\n")


def _value_map(text, word: Word) -> dict:
    """Field values of the symbols of a word's terms: the --map entries,
    or without --map each symbol's own integer value."""
    symbols = word.alphabet.symbols
    mapping = {}
    if text is None:
        for sym in symbols:
            try:
                mapping[sym] = int(sym)
            except ValueError:
                pass
    else:
        for item in text.split(","):
            sym, _, value = item.partition("=")
            try:
                number = int(value)
            except ValueError:
                number = None
            if not sym or number is None:
                raise ValueError(f"bad --map entry {item!r}; use sym=value,sym=value")
            if sym in mapping:
                raise ValueError(f"--map gives symbol {sym!r} twice")
            if sym not in symbols:
                raise ValueError(f"--map symbol {sym!r} is not in the sequence's "
                                 f"alphabet: {', '.join(symbols)}")
            mapping[sym] = number
    used = np.flatnonzero(np.bincount(word.indices, minlength=len(symbols)))
    unvalued = [symbols[i] for i in used if symbols[i] not in mapping]
    if unvalued:
        raise ValueError(f"symbol {unvalued[0]!r} has no value; give one with --map")
    return mapping


def cmd_generate(args) -> Result:
    word = catalog_prefix(args.name, args.length)
    return 0, [word], {"name": args.name, "length": args.length, "tokens": word}


def cmd_compare(args) -> Result:
    left = catalog_prefix(args.name_a, args.length)
    right = catalog_prefix(args.name_b, args.length)
    mismatch = left.first_mismatch(right)
    payload = {"name_a": args.name_a, "name_b": args.name_b,
               "length": args.length, "equal": mismatch is None,
               "first_mismatch": mismatch}
    if mismatch is None:
        return 0, [f"equal on the first {args.length} symbols"], payload
    return 1, [f"first mismatch at index {mismatch}: "
               f"{left[mismatch]} vs {right[mismatch]}"], payload


def _sequence_solution(variant_name: str, disks: int):
    """The variant's catalog sequence cut where it first completes N disks,
    and the replay of that prefix."""
    variant = variant_by_name(variant_name)
    word = catalog_prefix(SOLUTION_SEQUENCES[variant], solution_length(variant, disks))
    return word, simulate(word, disks, variant)


def cmd_hanoi_solve(args) -> Result:
    if args.olive and args.variant != "classical":
        raise ValueError("the alternating solver applies to the classical variant only")
    if args.check_optimal and args.disks > _BFS_DISKS_MAX:
        raise ValueError(f"input budget exceeded: --disks {args.disks} is more than "
                         f"{_BFS_DISKS_MAX} with --check-optimal")
    if args.olive:
        word = olive_solve(args.disks, args.target or classical_target(args.disks))
        trace = simulate(word, args.disks, hanoi.CLASSICAL)
        method, solver = "olive", "alternating solution"
    else:
        word, trace = _sequence_solution(args.variant, args.disks)
        method, solver = "sequence", f"{args.variant} sequence"
    peg = trace.tower_peg()
    if peg is None:
        event = trace.event_for(args.disks)
        why = trace.error or (f"they first stand together at move {event[0]}"
                              if event else "they do not stand together within it")
        print(f"error: the {solver} does not complete {args.disks} disks exactly "
              f"at move {len(word)}: {why}", file=sys.stderr)
        return 1, [], None
    lines = [word, f"moves: {len(word)}", f"peg: {peg}"]
    payload = {"variant": args.variant, "disks": args.disks, "method": method,
               "moves": word, "steps": len(word), "peg": peg}
    status = 0
    if args.target and peg != args.target:
        lines.append(f"target check: reached {peg}, wanted {args.target}")
        payload["target_ok"] = False
        status = 1
    if args.check_optimal:
        best, _ = bfs_optimal(trace.variant, args.disks, "I", peg)
        payload["optimal_steps"] = best
        payload["optimal"] = best == len(word)
        lines.append(f"optimal: {best} moves by search, "
                     f"{'matches' if best == len(word) else 'MISMATCH'}")
        if best != len(word):
            status = 1
    return status, lines, payload


def cmd_hanoi_verify(args) -> Result:
    ok = verify_classical_prefix(args.disks)
    steps = solution_length(hanoi.CLASSICAL, args.disks)
    peg = classical_target(args.disks)
    lines = [f"disks: {args.disks}", f"moves: {steps}", f"peg: {peg}",
             f"result: {'ok' if ok else 'FAILED'}"]
    return (0 if ok else 1), lines, {"disks": args.disks, "moves": steps,
                                     "peg": peg, "ok": ok}


def cmd_hanoi_bfs(args) -> Result:
    variant = variant_by_name(args.variant)
    length, word = bfs_optimal(variant, args.disks, args.source, args.target)
    return 0, [f"optimal: {length}", word], {
        "variant": args.variant, "disks": args.disks, "source": args.source,
        "target": args.target, "optimal": length, "moves": word}


def cmd_toeplitz(args) -> Result:
    spec = ToeplitzSpec.from_tokens(args.pattern)
    word = toeplitz_expand(spec, args.length)
    lines = [word]
    payload = {"pattern": list(spec.pattern), "length": args.length, "tokens": word}
    status = 0
    if args.expect:
        equal = word.first_mismatch(catalog_prefix(args.expect, args.length)) is None
        payload.update(expect=args.expect, equal=equal)
        lines.append(f"matches {args.expect}: {'yes' if equal else 'NO'}")
        if not equal:
            status = 1
    return status, lines, payload


def cmd_census(args) -> Result:
    word = catalog_prefix(args.seq, args.length)
    blocks = factor_census(word, args.width, aligned=args.aligned)
    texts = sorted(b.text() for b in blocks)
    return 0, [f"blocks: {len(texts)}"] + texts, {
        "seq": args.seq, "length": args.length, "width": args.width,
        "aligned": args.aligned, "blocks": [t.split() for t in texts]}


def cmd_squarefree(args) -> Result:
    max_period = max(1, args.length // 2) if args.max_period is None else args.max_period
    check_scan_budget(args.length, max_period)
    word = catalog_prefix(args.seq, args.length)
    hit = squarefree_check(word, max_period)
    payload = {"seq": args.seq, "length": args.length, "max_period": max_period,
               "square": list(hit) if hit else None}
    if hit is None:
        return 0, [f"no square with period <= {max_period} "
                   f"in the first {args.length} symbols"], payload
    position, period = hit
    block = word[position:position + 2 * period]
    return 1, [f"square at position {position}, period {period}: {block.text()}"], payload


def cmd_kernel(args) -> Result:
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
    return 0, lines, {"seq": args.seq, **dataclasses.asdict(report)}


def cmd_construct(args) -> Result:
    spec = morphic_entry(args.seq)
    construction = construct_nonuniform(spec.morphism, spec.start)
    data = construction.to_json()
    lines = [f"expanding letter: {construction.expanding} "
             f"(companion {construction.companion}, power {construction.power})"]
    for sym in construction.morphism.domain.symbols:
        lines.append(f"{sym} -> {construction.morphism.image(sym).text()}")
    status = 0
    if args.validate is not None:
        failures = validation_failures(construction, args.validate)
        data["validated_length"] = args.validate
        data["valid"] = not failures
        data["failures"] = failures
        if failures:
            lines.extend(f"validation: {f}" for f in failures)
            status = 1
        else:
            lines.append(f"validation: ok on {args.validate} symbols")
    return status, lines, data


def cmd_christol_verify(args) -> Result:
    series = series_from_sequence(catalog_prefix("period-doubling", args.order),
                                  2, args.order)
    residue = evaluate_relation(period_doubling_relation(), series)
    ok = residue.is_zero()
    return (0 if ok else 1), [
        f"X(1+X)F^2 + (1+X)F + 1 on the period-doubling series: "
        f"{'zero' if ok else 'NON-ZERO'} mod X^{args.order}"], {
        "order": args.order, "zero": ok}


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


def cmd_christol_search(args) -> Result:
    word = catalog_prefix(args.seq, args.order)
    series = series_from_sequence(word, args.modulus, args.order,
                                  value_map=_value_map(args.map, word))
    relation = find_algebraic_relation(series, args.dmax, args.coeff_degree)
    if relation is None:
        return 0, [f"no relation with degree <= {args.dmax} and coefficient "
                   f"degree <= {args.coeff_degree} at order {args.order} "
                   "(finite-truncation evidence only)"], {
            "seq": args.seq, "order": args.order, "relation": None}
    normalized = relation.normalized()
    lines = ["relation found (A_i multiplies F^i):"]
    lines += [f"A_{i} = {_poly_text(p)}" for i, p in enumerate(normalized.polys)]
    return 0, lines, {"seq": args.seq, "order": args.order,
                      "relation": normalized.to_json()}


def _derived_Z(length: int) -> IntSequence:
    # the k-th 0 of Thue-Morse sits at 2k + t_k, so a prefix of 2·length + 2
    # terms holds exactly length + 1 zeros, that is, length gaps
    return derive_Z(catalog_prefix("thue-morse", 2 * length + 2))


def _derive_check(what: str, result, length: int):
    """(label, ok) of the cross-identity that defines a projection."""
    if what == "T":
        return "matches period-doubling", result == catalog_prefix("period-doubling", length)
    if what == "U":
        upto = min(length, 24)
        return (f"double-free oracle agrees for n <= {upto}",
                all(doublefree_oracle(n) == result[n - 1] for n in range(1, upto + 1)))
    if what == "V":
        tm = catalog_prefix("thue-morse", length + 1)
        return "0V matches thue-morse", tm[0] == "0" and tm[1:] == result
    non, uni = (catalog_prefix(name, length) for name in ("z-nonuniform", "z-uniform"))
    digits = [int(s) for s in non.alphabet.symbols]
    values = np.array(digits, dtype=np.min_scalar_type(max(digits)))[non.indices]
    return "matches both morphic presentations", (
        np.array_equal(result.values, values) and non.first_mismatch(uni) is None)


def cmd_derive(args) -> Result:
    length = args.length
    if args.what == "Z":
        result = _derived_Z(length)
    else:
        moves = catalog_prefix("classical-hanoi", length)
        result = derive_T(moves) if args.what == "T" else derive_U(moves)
        if args.what == "V":
            result = derive_V(result)
    key = "values" if isinstance(result, IntSequence) else "tokens"
    lines, payload = [result], {"what": args.what, "length": length, key: result}
    if not args.check:
        return 0, lines, payload
    label, ok = _derive_check(args.what, result, length)
    lines.append(f"{label}: {'yes' if ok else 'NO'}")
    payload["check"] = ok
    return (0 if ok else 1), lines, payload


def cmd_eval(args) -> Result:
    dfao = dfao_from_uniform_morphism(morphic_entry(args.seq))
    if args.index is None and args.check_prefix is None:
        raise ValueError("give --index and/or --check-prefix")
    status = 0
    lines = []
    payload = {"seq": args.seq}
    if args.index is not None:
        symbol = dfao.eval(args.index)
        lines.append(symbol)
        payload.update(index=args.index, symbol=symbol)
    if args.check_prefix is not None:
        terms = dfao.eval_many(np.arange(args.check_prefix, dtype=np.int64))
        bad = terms.first_mismatch(catalog_prefix(args.seq, args.check_prefix))
        ok = bad is None
        lines.append(f"automaton agrees with the prefix for n < {args.check_prefix}: "
                     f"{'yes' if ok else f'NO (first mismatch at {bad})'}")
        payload.update(check_prefix=args.check_prefix, check=ok)
        if not ok:
            status = 1
    return status, lines, payload


def _arg(*flags, bounds=None, **options):
    return flags, options, bounds


class Command(NamedTuple):
    """One CLI command: its help line, its arguments in order and the name
    of its handler in this module.  An argument is (flags, argparse
    options, bounds); an int argument's bounds are the (least, most) value
    a request may give, most None where the library bounds the work."""

    help: str
    arguments: tuple
    handler: str


# the largest value of an option whose work grows with it
# prefix symbols; at 2^24 the largest request at any cap, derive --what Z,
# peaks at ~0.25 GB RSS in ~0.3-1.1 s (the slowest is hanoi at 26 disks)
_LENGTH_MAX = 1 << 24
_ORDER_MAX = 1 << 16  # series order: christol verify takes ~0.45 s at 2^16
_BFS_DISKS_MAX = 12  # breadth-first search over 3^N states, ~1.3 s and 99 MB at N = 12
_CHECK_PREFIX_MAX = 1 << 20  # all indices at once: ~0.5 s and 56 MB peak RSS at 2^20
_VALIDATE_MAX = 1 << 20  # construct-nonuniform --validate peaks at ~50 MB RSS at 2^20
_RADIX_MAX = 1 << 16  # each new kernel class queues radix children, ~1 s at 2^16
_WIDTH_MAX = 24  # blocks of <= 6 letters pack into one uint64, ~1.5 s on 2^24 symbols
# the largest modulus whose product coefficients stay below 2^63, in the
# 8-byte slots of algebra.truncated_product, at _ORDER_MAX:
# _ORDER_MAX * (q - 1)^2 < 2^63
_MODULUS_MAX = 1 + math.isqrt(((1 << 63) - 1) // _ORDER_MAX)
_DMAX_MAX = 4  # one series product per degree, ~0.3 s (q = 2) to ~0.9 s each at order 2^16
# with _DMAX_MAX, 165 unknowns at order 2^16: ~2.8 s and 70 MB RSS at q = 2,
# ~7.3 s (4 s of it the column reduction) and 117 MB RSS at _MODULUS_MAX
_COEFF_DEGREE_MAX = 32

_VARIANT = _arg("--variant", choices=sorted(hanoi.VARIANTS), default="classical")
_LENGTH = _arg("--length", type=int, required=True, bounds=(0, _LENGTH_MAX))

GROUPS = {"hanoi": "puzzle solving and verification",
          "christol": "algebraic relations of series over F_q"}

# Every command, by its path from the top level, in the order of the help.
COMMANDS = {
    ("generate",): Command("print a prefix of a catalog sequence", (
        _arg("name", help="catalog name, e.g. classical-hanoi"),
        _LENGTH,
    ), "cmd_generate"),
    ("compare",): Command("compare two catalog sequences", (
        _arg("name_a"),
        _arg("name_b"),
        _LENGTH,
    ), "cmd_compare"),
    ("hanoi", "solve"): Command("solve by sequence truncation or the alternating rule", (
        _VARIANT,
        _arg("--disks", type=int, required=True, bounds=(1, None)),
        _arg("--target", choices=("II", "III")),
        _arg("--olive", action="store_true",
             help="use the alternating smallest-disk rule"),
        _arg("--check-optimal", action="store_true",
             help="cross-check the move count against breadth-first search"),
    ), "cmd_hanoi_solve"),
    ("hanoi", "verify"): Command("check the classical prefix solves N disks", (
        _arg("--disks", type=int, required=True, bounds=(1, None)),
    ), "cmd_hanoi_verify"),
    ("hanoi", "bfs"): Command("optimal move count by breadth-first search", (
        _VARIANT,
        _arg("--disks", type=int, required=True, bounds=(0, _BFS_DISKS_MAX)),
        _arg("--source", default="I", choices=("I", "II", "III")),
        _arg("--target", default="II", choices=("I", "II", "III")),
    ), "cmd_hanoi_bfs"),
    ("toeplitz",): Command("expand a periodic pattern with holes", (
        _arg("--pattern", required=True,
             help="whitespace-separated tokens, '.' for the hole"),
        _LENGTH,
        _arg("--expect", help="catalog name the expansion should equal"),
    ), "cmd_toeplitz"),
    ("census",): Command("distinct width-letter blocks of a sequence", (
        _arg("--seq", required=True),
        _arg("--width", type=int, required=True, bounds=(1, _WIDTH_MAX)),
        _arg("--aligned", action="store_true"),
        _arg("--length", type=int, default=4096, bounds=(0, _LENGTH_MAX)),
    ), "cmd_census"),
    ("squarefree",): Command("scan a prefix for squares ww", (
        _arg("--seq", required=True),
        _arg("--length", type=int, required=True, bounds=(0, hanoi._CAPPED_SCAN_MAX)),
        _arg("--max-period", type=int, bounds=(1, None)),
    ), "cmd_squarefree"),
    ("kernel",): Command("finite-prefix kernel class evidence", (
        _arg("--seq", required=True),
        _arg("--radix", type=int, default=2, bounds=(2, _RADIX_MAX)),
        _arg("--depth", type=int, default=8, bounds=(0, None)),
        _arg("--length", type=int, default=2 ** 16, bounds=(1, _LENGTH_MAX)),
    ), "cmd_kernel"),
    ("construct-nonuniform",): Command(
        "non-uniform presentation of a uniform catalog morphism", (
            _arg("--seq", required=True),
            _arg("--validate", type=int, metavar="L", bounds=(0, _VALIDATE_MAX),
                 help="validate the construction on an L-symbol prefix"),
        ), "cmd_construct"),
    ("christol", "verify"): Command("check the period-doubling series relation", (
        _arg("--order", type=int, default=4096, bounds=(0, _ORDER_MAX)),
    ), "cmd_christol_verify"),
    ("christol", "search"): Command("search for a low-degree relation", (
        _arg("--seq", required=True),
        _arg("--modulus", type=int, default=2, bounds=(2, _MODULUS_MAX)),
        _arg("--dmax", type=int, default=2, bounds=(0, _DMAX_MAX)),
        _arg("--coeff-degree", type=int, default=2, bounds=(0, _COEFF_DEGREE_MAX)),
        _arg("--order", type=int, default=512, bounds=(0, _ORDER_MAX)),
        _arg("--map", help="symbol values, e.g. a=0,b=1"),
    ), "cmd_christol_search"),
    ("derive",): Command("classical projections T, U, V, Z", (
        _arg("--what", choices=("T", "U", "V", "Z"), required=True),
        _LENGTH,
        _arg("--check", action="store_true",
             help="verify the defining cross-identity"),
    ), "cmd_derive"),
    ("eval",): Command("evaluate one term through the automaton", (
        _arg("--seq", required=True),
        _arg("--index", type=int, bounds=(0, None)),
        _arg("--check-prefix", type=int, metavar="L", bounds=(0, _CHECK_PREFIX_MAX),
             help="compare automaton output with the prefix for n < L"),
    ), "cmd_eval"),
}


def _add_arguments(parser, command: Command):
    for flags, options, _bounds in command.arguments:
        parser.add_argument(*flags, **options)
    # --format goes last so that every usage line ends with it
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every request, built on first use and kept for the
    life of the process; nothing mutates it after that."""
    parser = argparse.ArgumentParser(
        prog="hanoiseq",
        description="Tower of Hanoi move sequences, morphisms and automata")
    top = parser.add_subparsers(dest="command")
    groups = {}
    for path, command in COMMANDS.items():
        sub = top
        if len(path) == 2:
            if path[0] not in groups:
                group = top.add_parser(path[0], help=GROUPS[path[0]])
                groups[path[0]] = group.add_subparsers(dest=f"{path[0]}_command")
            sub = groups[path[0]]
        _add_arguments(sub.add_parser(path[-1], help=command.help), command)
    return parser


def _check_budgets(path, args) -> None:
    for flags, _options, bounds in COMMANDS[path].arguments:
        value = getattr(args, flags[0][2:].replace("-", "_")) if bounds else None
        if value is None:
            continue
        least, most = bounds
        if value < least:
            raise ValueError(f"{flags[0]} must be >= {least}, got {value}")
        if most is not None and value > most:
            raise ValueError(f"input budget exceeded: {flags[0]} {value} is more than {most}")


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    path = (args.command,)
    if args.command in GROUPS:
        path += (getattr(args, f"{args.command}_command"),)
    if path not in COMMANDS:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_budgets(path, args)
        # looked up per request, so that a rebound cmd_* attribute is the one called
        status, lines, payload = globals()[COMMANDS[path].handler](args)
        if payload is not None:
            _emit(args.format, lines, payload)
        return status
    except (UnknownSequenceError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        status = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull, so that the flush at
        # exit does not fail again (the recipe of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
