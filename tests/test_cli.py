import argparse
import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hanoiseq
from hanoiseq import cli, hanoi
from hanoiseq.catalog import HANOI_ALPHABET, UnknownSequenceError, catalog_prefix
from hanoiseq.classicseq import IntSequence
from hanoiseq.cli import _build_parser, run
from hanoiseq.words import Word

S16 = "a C b a c B a C b A c b a C b a"


def _cyclic_moves(disks):
    # one disk steps once along the cycle; more disks take two steps, R_N,
    # from Q_n = 2 R_{n-1} + 1 and R_n = 2 R_{n-1} + Q_{n-1} + 2
    q = r = 0
    for _ in range(disks):
        q, r = 2 * r + 1, 2 * r + q + 2
    return q if disks == 1 else r


# moves of the solution `hanoi solve` prints for N disks
SOLUTION_MOVES = {"classical": lambda n: 2 ** n - 1,
                  "lazy": lambda n: (3 ** n - 1) // 2,
                  "cyclic": _cyclic_moves}


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestGenerate:
    def test_classical_16(self, capsys):
        assert run(["generate", "classical-hanoi", "--length", "16"]) == 0
        out, _ = out_of(capsys)
        assert out == S16 + "\n"

    def test_unknown_name_is_usage_error(self, capsys):
        assert run(["generate", "no-such", "--length", "5"]) == 2
        _, err = out_of(capsys)
        assert "no-such" in err

    def test_json_format(self, capsys):
        assert run(["generate", "thue-morse", "--length", "6", "--format", "json"]) == 0
        out, _ = out_of(capsys)
        payload = json.loads(out)
        assert payload["tokens"] == ["0", "1", "1", "0", "1", "0"]

    def test_deterministic_output(self, capsys):
        run(["generate", "cyclic-hanoi", "--length", "50"])
        first, _ = out_of(capsys)
        run(["generate", "cyclic-hanoi", "--length", "50"])
        second, _ = out_of(capsys)
        assert first == second

    def test_missing_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run(["generate", "classical-hanoi"])
        assert err.value.code == 2

    def test_no_subcommand(self, capsys):
        assert run([]) == 2


class TestCompare:
    def test_equal(self, capsys):
        assert run(["compare", "classical-hanoi-nonuniform", "classical-hanoi",
                    "--length", "1000"]) == 0

    def test_unequal_reports_first_mismatch(self, capsys):
        assert run(["compare", "period-doubling", "thue-morse",
                    "--length", "16"]) == 1
        out, _ = out_of(capsys)
        assert "first mismatch at index 0" in out

    def test_toeplitz_entry_comparable(self, capsys):
        assert run(["compare", "classical-hanoi-toeplitz", "classical-hanoi",
                    "--length", "1000"]) == 0


class TestHanoi:
    def test_verify_ok(self, capsys):
        assert run(["hanoi", "verify", "--disks", "3"]) == 0
        out, _ = out_of(capsys)
        assert "moves: 7" in out and "peg: II" in out

    def test_solve_sequence_with_optimal_check(self, capsys):
        assert run(["hanoi", "solve", "--variant", "cyclic", "--disks", "2",
                    "--check-optimal"]) == 0
        out, _ = out_of(capsys)
        assert "moves: 7" in out and "peg: III" in out

    def test_solve_target_mismatch(self, capsys):
        assert run(["hanoi", "solve", "--variant", "classical", "--disks", "2",
                    "--target", "II"]) == 1

    def test_solve_olive(self, capsys):
        assert run(["hanoi", "solve", "--disks", "3", "--olive",
                    "--target", "II"]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines()[0] == "a C b a c B a"

    def test_olive_needs_classical(self, capsys):
        assert run(["hanoi", "solve", "--variant", "lazy", "--disks", "2",
                    "--olive"]) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_illegal_olive_replay_prints_nothing(self, fmt, monkeypatch, capsys):
        # the second "a" finds peg I empty
        monkeypatch.setattr(cli, "olive_solve",
                            lambda disks, target: Word.from_tokens(HANOI_ALPHABET, "a a"))
        assert run(["hanoi", "solve", "--disks", "1", "--olive", "--format", fmt]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: the alternating solution does not complete 1 disks "
                              "exactly at move 2: ")
        assert err.count("\n") == 1

    def test_olive_peg_is_read_off_the_replay(self, monkeypatch, capsys):
        # "C" is legal for one disk but lands on peg III, not the II asked for
        monkeypatch.setattr(cli, "olive_solve",
                            lambda disks, target: Word.from_tokens(HANOI_ALPHABET, "C"))
        assert run(["hanoi", "solve", "--disks", "1", "--olive", "--target", "II"]) == 1
        assert out_of(capsys) == ("C\nmoves: 1\npeg: III\n"
                                  "target check: reached III, wanted II\n", "")

    @pytest.mark.parametrize("variant", ["classical", "cyclic", "lazy"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("disks", ["0", "-1"])
    def test_solve_needs_a_disk(self, variant, fmt, disks, capsys):
        assert run(["hanoi", "solve", "--variant", variant, "--disks", disks,
                    "--format", fmt]) == 2
        assert out_of(capsys) == ("", f"error: --disks must be >= 1, got {disks}\n")

    @pytest.mark.parametrize("argv", ["solve --disks 11", "solve --disks 11 --olive",
                                      "verify --disks 11", "solve --variant lazy --disks 7"])
    def test_moves_budget(self, argv, monkeypatch, capsys):
        # classical needs 2047 moves and lazy 1093, both more than 1024
        monkeypatch.setattr(hanoi, "_MOVES_MAX", 1 << 10)
        assert run(["hanoi", *argv.split()]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: moves budget exceeded: ") and " 1024" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("budget", [1 << 10, 1 << 26])
    @pytest.mark.parametrize("command", ["solve", "solve --olive", "verify",
                                         "solve --variant lazy", "solve --variant cyclic"])
    def test_moves_budget_refuses_before_work(self, command, budget, monkeypatch, capsys):
        monkeypatch.setattr(hanoi, "_MOVES_MAX", budget)
        monkeypatch.setattr(cli, "catalog_prefix", _refuse)
        monkeypatch.setattr(cli, "simulate", _refuse)
        monkeypatch.setattr(hanoi, "catalog_lookup", _refuse)
        variant = command.split()[-1] if "--variant" in command else "classical"
        # the fewest disks whose solution is longer than the budget
        disks = next(n for n in range(1, 64) if SOLUTION_MOVES[variant](n) > budget)
        assert run(["hanoi", *command.split(), "--disks", str(disks)]) == 2
        _, err = out_of(capsys)
        if variant == "classical":
            assert err == (f"error: moves budget exceeded: {disks} disks need at least "
                           f"2^{disks} - 1 moves, more than {budget}\n")
        else:
            assert err == (f"error: moves budget exceeded: {disks} disks need "
                           f"{SOLUTION_MOVES[variant](disks)} moves in the {variant} "
                           f"variant, more than {budget}\n")

    @pytest.mark.parametrize("variant", sorted(SOLUTION_MOVES))
    def test_solution_length_is_the_optimal_transfer(self, variant):
        # the peg where each variant's sequence completes the tower
        for disks in range(1, 7):
            target = ("II" if disks == 1 or variant == "lazy" else "III"
                      if variant == "cyclic" else hanoi.classical_target(disks))
            best, _ = hanoi.bfs_optimal(hanoi.VARIANTS[variant], disks, "I", target)
            assert hanoi.solution_length(hanoi.VARIANTS[variant], disks) == best

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("variant", sorted(SOLUTION_MOVES))
    def test_solution_replayed_once(self, variant, fmt, monkeypatch, capsys):
        calls = []
        prefix = cli.catalog_prefix
        monkeypatch.setattr(cli, "catalog_prefix",
                            lambda name, n: calls.append(n) or prefix(name, n))
        assert run(["hanoi", "solve", "--variant", variant, "--disks", "6",
                    "--format", fmt]) == 0
        assert calls == [SOLUTION_MOVES[variant](6)]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_completion_off_the_last_move_exits_1(self, shift, fmt, monkeypatch, capsys):
        length = hanoi.solution_length
        monkeypatch.setattr(cli, "solution_length",
                            lambda variant, disks: length(variant, disks) + shift)
        assert run(["hanoi", "solve", "--variant", "lazy", "--disks", "4",
                    "--format", fmt]) == 1
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: the lazy sequence does not complete 4 disks "
                              f"exactly at move {40 + shift}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_check_optimal_search_budget(self, fmt, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BFS_DISKS_MAX", 3)
        monkeypatch.setattr(cli, "catalog_prefix", _refuse)
        monkeypatch.setattr(cli, "bfs_optimal", _refuse)
        assert run(["hanoi", "solve", "--disks", "4", "--check-optimal",
                    "--format", fmt]) == 2
        assert out_of(capsys) == ("", "error: input budget exceeded: --disks 4 is more "
                                      "than 3 with --check-optimal\n")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_BFS_DISKS_MAX", 3)
        assert run(["hanoi", "solve", "--disks", "3", "--check-optimal"]) == 0

    def test_moves_budget_admits_2_to_the_n_minus_1(self, monkeypatch, capsys):
        monkeypatch.setattr(hanoi, "_MOVES_MAX", 1 << 10)
        assert run(["hanoi", "verify", "--disks", "10"]) == 0
        assert run(["hanoi", "solve", "--disks", "10", "--olive"]) == 0
        assert run(["hanoi", "solve", "--disks", "10", "--format", "json"]) == 0
        assert json.loads(out_of(capsys)[0].splitlines()[-1])["steps"] == 1023

    def test_bfs(self, capsys):
        assert run(["hanoi", "bfs", "--variant", "classical", "--disks", "4",
                    "--target", "III"]) == 0
        out, _ = out_of(capsys)
        assert "optimal: 15" in out

    @pytest.mark.parametrize("disks", ["0", "1"])
    def test_bfs_refuses_equal_pegs(self, disks, capsys):
        assert run(["hanoi", "bfs", "--disks", disks, "--source", "I",
                    "--target", "I"]) == 2
        assert out_of(capsys) == ("", "error: source and target pegs must differ\n")


class TestToeplitz:
    def test_expansion_matches_catalog(self, capsys):
        assert run(["toeplitz", "--pattern", "a C b . c B a . b A c .",
                    "--length", "64", "--expect", "classical-hanoi"]) == 0

    def test_expansion_mismatch(self, capsys):
        assert run(["toeplitz", "--pattern", "0 . 1 .",
                    "--length", "16", "--expect", "thue-morse"]) == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_large_alphabet_pattern(self, fmt, capsys):
        # 300 distinct symbols: indices beyond 255 must survive expansion
        pattern = [tok for i in range(300) for tok in (f"t{i}", ".")]
        assert run(["toeplitz", "--pattern", " ".join(pattern), "--length", "2000",
                    "--format", fmt]) == 0
        out, _ = out_of(capsys)
        tokens = json.loads(out)["tokens"] if fmt == "json" else out.split()
        expected = []
        for i in range(2000):
            tok = pattern[i % len(pattern)]
            if tok == ".":
                tok = expected[(i // len(pattern)) * 300 + (i % len(pattern)) // 2]
            expected.append(tok)
        assert tokens == expected
        assert "t299" in tokens

    def test_bad_pattern_is_usage_error(self, capsys):
        assert run(["toeplitz", "--pattern", ". 0 1", "--length", "4"]) == 2

    @pytest.mark.parametrize("pattern,refusal", [
        ("", "pattern must not be empty"),
        (". .", "pattern must not begin with a hole"),
    ])
    def test_pattern_without_symbols_gets_the_pattern_refusal(self, pattern, refusal,
                                                              capsys):
        assert run(["toeplitz", "--pattern", pattern, "--length", "8"]) == 2
        assert out_of(capsys) == ("", f"error: {refusal}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_many_holes_are_refused_by_the_fill_budget(self, fmt, capsys):
        # 10^6 symbols of a 10^4-token pattern would fill about 10^10 cells
        start = time.perf_counter()
        assert run(["toeplitz", "--pattern", "a" + " ." * 9999, "--length", "1000000",
                    "--format", fmt]) == 2
        assert time.perf_counter() - start < 1
        assert out_of(capsys) == (
            "", "error: toeplitz budget exceeded: a length-1000000 prefix of this "
                "10000-token pattern fills more than 268435456 cells\n")


class TestOracles:
    def test_census(self, capsys):
        assert run(["census", "--seq", "classical-hanoi", "--width", "3",
                    "--aligned"]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines()[0] == "blocks: 5"

    def test_squarefree_clean_prefix(self, capsys):
        assert run(["squarefree", "--seq", "classical-hanoi",
                    "--length", "2000"]) == 0

    def test_squarefree_square_found(self, capsys):
        assert run(["squarefree", "--seq", "lazy-hanoi", "--length", "9"]) == 1
        out, _ = out_of(capsys)
        assert "position 5, period 2" in out

    @pytest.mark.parametrize("period", ["0", "-1"])
    def test_squarefree_max_period_below_one_is_refused(self, period, capsys):
        # 0 is a period, not "no limit": the request is refused
        assert run(["squarefree", "--seq", "lazy-hanoi", "--length", "100",
                    "--max-period", period]) == 2
        assert out_of(capsys) == ("", f"error: --max-period must be >= 1, got {period}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", ["--seq cyclic-hanoi --length 1000000 --max-period 65",
                                      "--seq classical-hanoi --length 10001"])
    def test_squarefree_budget_refuses_before_the_prefix(self, argv, fmt, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(cli, "catalog_prefix", _refuse)
        assert run(["squarefree", *argv.split(), "--format", fmt]) == 2
        assert out_of(capsys) == ("", "error: scan budget exceeded: full period range up "
                                      "to 10^4 symbols, periods <= 64 up to 10^6 symbols\n")

    def test_kernel(self, capsys):
        assert run(["kernel", "--seq", "period-doubling", "--depth", "6",
                    "--length", "4096", "--format", "json"]) == 0
        out, _ = out_of(capsys)
        assert json.loads(out)["class_count"] == 4

    def test_construct_validate(self, capsys):
        assert run(["construct-nonuniform", "--seq", "period-doubling",
                    "--validate", "4096"]) == 0
        out, _ = out_of(capsys)
        assert "validation: ok" in out

    def test_construct_validate_zero_checks_an_empty_prefix(self, capsys):
        argv = ["construct-nonuniform", "--seq", "thue-morse", "--validate", "0"]
        assert run(argv) == 0
        assert out_of(capsys)[0].splitlines()[-1] == "validation: ok on 0 symbols"
        assert run(argv + ["--format", "json"]) == 0
        payload = json.loads(out_of(capsys)[0])
        assert (payload["validated_length"], payload["valid"]) == (0, True)

    def test_construct_needs_uniform_morphism(self, capsys):
        assert run(["construct-nonuniform", "--seq", "fibonacci"]) == 2

    def test_christol_verify(self, capsys):
        assert run(["christol", "verify", "--order", "1024"]) == 0

    def test_christol_search(self, capsys):
        assert run(["christol", "search", "--seq", "period-doubling"]) == 0
        out, _ = out_of(capsys)
        assert "A_2 = X + X^2" in out

    def test_christol_search_none(self, capsys):
        assert run(["christol", "search", "--seq", "fibonacci",
                    "--map", "a=0,b=1", "--coeff-degree", "4"]) == 0
        out, _ = out_of(capsys)
        assert "no relation" in out

    @pytest.mark.parametrize("flag", ["--dmax", "--coeff-degree"])
    def test_christol_search_refuses_negative_degree(self, flag, capsys):
        assert run(["christol", "search", "--seq", "period-doubling", flag, "-1"]) == 2
        assert out_of(capsys) == ("", f"error: {flag} must be >= 0, got -1\n")

    @pytest.mark.parametrize("argv,flag,value", [
        ("eval --seq thue-morse --check-prefix -1", "--check-prefix", -1),
        ("eval --seq thue-morse --index 3 --check-prefix -1", "--check-prefix", -1),
        ("construct-nonuniform --seq thue-morse --validate -1", "--validate", -1),
        ("christol verify --order -1", "--order", -1),
        ("christol search --seq period-doubling --order -5", "--order", -5),
    ])
    def test_value_below_the_minimum_names_the_flag(self, argv, flag, value, capsys):
        # refused before any work: the --index term is not printed either
        assert run(argv.split()) == 2
        assert out_of(capsys) == ("", f"error: {flag} must be >= 0, got {value}\n")

    @pytest.mark.parametrize("entry", ["1=x", "0=1.5"])
    def test_christol_search_refuses_a_map_value_that_is_not_an_integer(self, entry,
                                                                        capsys):
        assert run(["christol", "search", "--seq", "period-doubling",
                    "--map", entry]) == 2
        assert out_of(capsys) == (
            "", f"error: bad --map entry {entry!r}; use sym=value,sym=value\n")

    def test_christol_search_refuses_a_repeated_map_symbol(self, capsys):
        # keeping the last value would map both symbols to 0
        assert run(["christol", "search", "--seq", "period-doubling",
                    "--map", "1=1,0=0,1=0"]) == 2
        assert out_of(capsys) == ("", "error: --map gives symbol '1' twice\n")

    def test_christol_search_refuses_a_map_symbol_outside_the_alphabet(self, capsys):
        assert run(["christol", "search", "--seq", "period-doubling", "--map", "2=1"]) == 2
        assert out_of(capsys) == (
            "", "error: --map symbol '2' is not in the sequence's alphabet: 0, 1\n")

    def test_christol_search_names_the_map_for_a_symbol_without_value(self, capsys):
        assert run(["christol", "search", "--seq", "period-doubling", "--map", "0=1"]) == 2
        assert out_of(capsys) == (
            "", "error: symbol '1' has no value; give one with --map\n")

    def test_christol_search_reduces_large_map_values(self, capsys):
        # 10^30 = 1 mod 3: the same series as a=1,b=1
        argv = ["christol", "search", "--seq", "fibonacci", "--modulus", "3", "--dmax", "1"]
        assert run(argv + ["--map", f"a={10 ** 30},b=1"]) == 0
        assert run(argv + ["--map", "a=1,b=1"]) == 0
        first, second = out_of(capsys)[0].split("relation found")[1:]
        assert first == second

    @pytest.mark.parametrize("what", ["T", "U", "V", "Z"])
    def test_derive_with_check(self, what, capsys):
        assert run(["derive", "--what", what, "--length", "24", "--check"]) == 0

    @pytest.mark.parametrize("what", ["T", "U", "V", "Z"])
    @pytest.mark.parametrize("length", ["-1", "-15", "-16"])
    def test_derive_rejects_negative_length(self, what, length, capsys):
        assert run(["derive", "--what", what, "--length", length]) == 2
        assert out_of(capsys) == ("", f"error: --length must be >= 0, got {length}\n")

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 100, 1023, 1024, 1025])
    def test_derive_Z_has_the_requested_length(self, length, capsys):
        assert run(["derive", "--what", "Z", "--length", str(length),
                    "--format", "json"]) == 0
        out, _ = out_of(capsys)
        assert len(json.loads(out)["values"]) == length

    def test_eval(self, capsys):
        assert run(["eval", "--seq", "classical-hanoi", "--index", "9"]) == 0
        out, _ = out_of(capsys)
        assert out.splitlines()[0] == "A"

    def test_eval_check_prefix(self, capsys):
        assert run(["eval", "--seq", "lazy-hanoi", "--check-prefix", "729"]) == 0

    @pytest.mark.parametrize("index,first", [([], []), (["--index", "5"], ["0"])])
    def test_eval_check_prefix_zero_checks_an_empty_prefix(self, index, first, capsys):
        assert run(["eval", "--seq", "thue-morse", *index, "--check-prefix", "0"]) == 0
        assert out_of(capsys) == ("\n".join(
            first + ["automaton agrees with the prefix for n < 0: yes", ""]), "")

    def test_eval_needs_uniform(self, capsys):
        assert run(["eval", "--seq", "fibonacci", "--index", "3"]) == 2

    def test_eval_needs_some_request(self, capsys):
        assert run(["eval", "--seq", "thue-morse"]) == 2


# one request per command, each on its success path
ONE_PER_COMMAND = (
    ["generate", "thue-morse", "--length", "8"],
    ["compare", "thue-morse", "period-doubling", "--length", "8"],
    ["hanoi", "solve", "--disks", "3", "--check-optimal"],
    ["hanoi", "verify", "--disks", "3"],
    ["hanoi", "bfs", "--disks", "3"],
    ["toeplitz", "--pattern", "0 . 1 .", "--length", "16", "--expect", "paperfolding"],
    ["census", "--seq", "thue-morse", "--width", "2", "--length", "64"],
    ["squarefree", "--seq", "classical-hanoi", "--length", "64"],
    ["kernel", "--seq", "thue-morse", "--depth", "3", "--length", "256"],
    ["construct-nonuniform", "--seq", "thue-morse", "--validate", "64"],
    ["christol", "verify", "--order", "64"],
    ["christol", "search", "--seq", "period-doubling", "--order", "128"],
    ["derive", "--what", "U", "--length", "8", "--check"],
    ["eval", "--seq", "thue-morse", "--index", "5", "--check-prefix", "64"],
)


def _refuse(*args, **kwargs):
    raise AssertionError("called where it must not be")


class TestRendering:
    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=" ".join)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_commands_return_their_result_and_print_nothing(self, argv, fmt, capsys):
        args = _build_parser().parse_args(argv + ["--format", fmt])
        path = tuple(argv[:2] if argv[0] in cli.GROUPS else argv[:1])
        status, lines, payload = getattr(cli, cli.COMMANDS[path].handler)(args)
        assert out_of(capsys) == ("", "")
        assert status in (0, 1) and isinstance(payload, dict)
        assert lines

    @pytest.mark.parametrize("argv", [
        ["generate", "classical-hanoi", "--length", "1000"],
        ["hanoi", "bfs", "--disks", "4"],
        ["toeplitz", "--pattern", "0 . 1 .", "--length", "64"],
        ["derive", "--what", "V", "--length", "64"],
    ], ids=" ".join)
    def test_text_builds_no_tokens(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(Word, "tokens", _refuse)
        assert run(argv) == 0
        out, _ = out_of(capsys)
        assert out.strip()

    @pytest.mark.parametrize("argv", [
        ["generate", "classical-hanoi", "--length", "1000"],
        ["hanoi", "solve", "--disks", "4"],
        ["hanoi", "bfs", "--disks", "4"],
        ["toeplitz", "--pattern", "0 . 1 .", "--length", "64"],
        ["derive", "--what", "T", "--length", "64"],
        ["derive", "--what", "Z", "--length", "64"],
    ], ids=" ".join)
    def test_json_builds_no_text(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(Word, "text", _refuse)
        monkeypatch.setattr(IntSequence, "text", _refuse)
        assert run(argv + ["--format", "json"]) == 0
        out, _ = out_of(capsys)
        assert json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["generate", "classical-hanoi", "--length", "1000"],
        ["hanoi", "solve", "--disks", "4"],
        ["hanoi", "bfs", "--disks", "4"],
        ["toeplitz", "--pattern", "0 . 1 .", "--length", "64"],
        ["derive", "--what", "V", "--length", "64"],
    ], ids=" ".join)
    def test_json_builds_no_tokens(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(Word, "tokens", _refuse)
        assert run(argv + ["--format", "json"]) == 0
        out, _ = out_of(capsys)
        assert json.loads(out)

    @pytest.mark.parametrize("argv", ONE_PER_COMMAND + (
        ["derive", "--what", "Z", "--length", "300"],
        ["derive", "--what", "T", "--length", "30"],
        ["generate", "z-nonuniform", "--length", "30"],
        ["compare", "classical-hanoi", "lazy-hanoi", "--length", "30"],
    ), ids=" ".join)
    def test_json_is_one_dumps_of_the_payload(self, argv, capsys):
        # the renderer against json.dumps over token tuples and value lists
        def as_list(value):
            return value.tokens() if isinstance(value, Word) else value.values.tolist()

        args = _build_parser().parse_args(argv + ["--format", "json"])
        path = tuple(argv[:2] if argv[0] in cli.GROUPS else argv[:1])
        status, _, payload = getattr(cli, cli.COMMANDS[path].handler)(args)
        expected = json.dumps(payload, sort_keys=True, default=as_list) + "\n"
        assert run(argv + ["--format", "json"]) == status
        assert out_of(capsys) == (expected, "")


class _Discard:
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        return len(text)


class TestWriter:
    """run() writes a long word or integer sequence in pieces of 2^16 terms:
    the bytes are those of one join, or of one json.dumps of the payload."""

    TERMS = (0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17 + 3)

    @staticmethod
    def expected(what, terms, fmt):
        tokens = list(catalog_prefix("classical-hanoi", terms).tokens())
        if what == "generate":
            argv, key, items = ["generate", "classical-hanoi"], "tokens", tokens
            payload = {"name": "classical-hanoi", "length": terms}
        else:  # U counts the plain (lower-case) moves so far
            argv, key = ["derive", "--what", "U"], "values"
            items = list(itertools.accumulate(int(t.islower()) for t in tokens))
            payload = {"what": "U", "length": terms}
        argv += ["--length", str(terms), "--format", fmt]
        if fmt == "text":
            return argv, " ".join(map(str, items)) + "\n"
        return argv, json.dumps({**payload, key: items}, sort_keys=True) + "\n"

    @pytest.mark.parametrize("what", ["generate", "derive"])
    @pytest.mark.parametrize("terms", TERMS)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_capsys_reads_one_join(self, what, terms, fmt, capsys):
        argv, expected = self.expected(what, terms, fmt)
        assert run(argv) == 0
        assert out_of(capsys) == (expected, "")

    @pytest.mark.parametrize("what", ["generate", "derive"])
    @pytest.mark.parametrize("terms", TERMS)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_redirected_stdout_reads_one_join(self, what, terms, fmt):
        # the benchmark captures a request this way; a StringIO has no .buffer
        argv, expected = self.expected(what, terms, fmt)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        assert out.getvalue() == expected

    def test_json_render_holds_one_piece_at_a_time(self):
        argv = ["generate", "classical-hanoi", "--length", str(1 << 20), "--format", "json"]
        with contextlib.redirect_stdout(_Discard()):
            run(argv)  # the parser is built once per process, outside the trace
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 << 20  # the whole render is 5 MiB of text


def test_a_closed_pipe_ends_with_exit_1_and_no_traceback():
    src = str(Path(hanoiseq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hanoiseq.cli", "generate", "classical-hanoi",
         "--length", str(1 << 20)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(1) == b"a"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, b"")


def _outcome(argv, capsys):
    try:
        status = run(argv)
    except SystemExit as exc:
        status = exc.code
    return (status, *out_of(capsys))


def _other_requests(argv, fmt):
    """Every other request of ONE_PER_COMMAND in the other format, and a
    parse error: what a warm parser has seen before argv reaches it."""
    other = ["--format", "json" if fmt == "text" else "text"]
    return [a + other for a in ONE_PER_COMMAND if a is not argv] + [argv + ["--bogus"]]


class TestOneParser:
    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=" ".join)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_warm_parser_answers_like_a_cold_one(self, argv, fmt, capsys):
        request = argv + ["--format", fmt]
        _build_parser.cache_clear()
        expected = _outcome(request, capsys)
        for earlier in _other_requests(argv, fmt):
            _outcome(earlier, capsys)
        assert _build_parser.cache_info().misses == 1
        assert _outcome(request, capsys) == expected
        assert expected[0] in (0, 1) and expected[1]

    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=" ".join)
    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_a_request_sees_nothing_of_earlier_ones(self, argv, fmt):
        parser = _build_parser()
        for earlier in _other_requests(argv, "json" if fmt else "text"):
            try:
                parser.parse_args(earlier)
            except SystemExit:
                pass
        fresh = _build_parser.__wrapped__()
        assert vars(parser.parse_args(argv + fmt)) == vars(fresh.parse_args(argv + fmt))

    def test_handlers_are_looked_up_per_request(self, monkeypatch, capsys):
        # the traced benchmark run rebinds cmd_* in the module namespace
        monkeypatch.setattr(cli, "cmd_generate", lambda args: (0, ["stub"], {}))
        assert run(["generate", "thue-morse", "--length", "8"]) == 0
        assert out_of(capsys) == ("stub\n", "")

    def test_rebinding_reaches_a_warm_parser(self, monkeypatch, capsys):
        assert run(["generate", "thue-morse", "--length", "8"]) == 0
        assert out_of(capsys) == ("0 1 1 0 1 0 0 1\n", "")
        monkeypatch.setattr(cli, "cmd_generate", lambda args: (0, ["stub"], {}))
        assert run(["generate", "thue-morse", "--length", "8"]) == 0
        assert out_of(capsys) == ("stub\n", "")

    def test_full_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        _build_parser.cache_clear()
        for argv in ONE_PER_COMMAND:
            assert run(argv) in (0, 1)
            # a leftover argument is a parse error
            with pytest.raises(SystemExit):
                run(argv + ["--bogus"])
        assert built.count("hanoiseq") == 1


# every int option, as a request without the option's value: the command
# path and the flag are its first and last words
SIZED = [
    "generate thue-morse --length",
    "compare thue-morse period-doubling --length",
    "hanoi solve --disks",
    "hanoi verify --disks",
    "hanoi bfs --disks",
    "toeplitz --pattern '0 . 1 .' --length",
    "census --seq thue-morse --length 64 --width",
    "census --seq thue-morse --width 2 --length",
    "squarefree --seq thue-morse --length",
    "squarefree --seq thue-morse --length 64 --max-period",
    "kernel --seq thue-morse --radix",
    "kernel --seq thue-morse --depth",
    "kernel --seq thue-morse --length",
    "construct-nonuniform --seq thue-morse --validate",
    "christol verify --order",
    "christol search --seq period-doubling --modulus",
    "christol search --seq period-doubling --dmax",
    "christol search --seq period-doubling --coeff-degree",
    "christol search --seq period-doubling --order",
    "derive --what U --length",
    "eval --seq thue-morse --index",
    "eval --seq thue-morse --check-prefix",
]
# int options with no most in the command table, and what bounds them
UNBUDGETED = {
    (("hanoi", "solve"), "--disks"): "solution_length refuses past 2^26 moves",
    (("hanoi", "verify"), "--disks"): "solution_length refuses past 2^26 moves",
    (("squarefree",), "--max-period"): "check_scan_budget refuses before the prefix",
    (("eval",), "--index"): "one automaton step per digit, O(log n)",
    (("kernel",), "--depth"): "kernel_explore's work budget bounds the comparisons",
}
# a small most the option accepts as a value: a prime modulus
SMALL_MOST = {"--disks": 3, "--modulus": 61}


def _path_and_flag(argv):
    words = shlex.split(argv)
    return tuple(words[:2] if words[0] in cli.GROUPS else words[:1]), words[-1]


def _bounds(argv):
    path, flag = _path_and_flag(argv)
    return next(bounds for flags, _, bounds in cli.COMMANDS[path].arguments
                if flags[0] == flag)


def _set_most(monkeypatch, argv, most):
    """Give the option of the request a smaller most in the command table."""
    path, flag = _path_and_flag(argv)
    command = cli.COMMANDS[path]
    arguments = tuple((flags, options, (bounds[0], most) if flags[0] == flag else bounds)
                      for flags, options, bounds in command.arguments)
    monkeypatch.setitem(cli.COMMANDS, path, command._replace(arguments=arguments))


BUDGETED = [argv for argv in SIZED if _bounds(argv)[1] is not None]


class TestInputBudgets:
    @pytest.mark.parametrize("small", [True, False])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", BUDGETED)
    def test_refuses_before_work(self, argv, fmt, small, monkeypatch, capsys):
        path, flag = _path_and_flag(argv)
        if small:
            _set_most(monkeypatch, argv, SMALL_MOST.get(flag, 64))
        limit = _bounds(argv)[1]
        monkeypatch.setattr(cli, cli.COMMANDS[path].handler, _refuse)
        assert run(shlex.split(argv) + [str(limit + 1), "--format", fmt]) == 2
        assert out_of(capsys) == ("", f"error: input budget exceeded: {flag} "
                                      f"{limit + 1} is more than {limit}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", SIZED)
    def test_refuses_below_the_least_before_work(self, argv, fmt, monkeypatch, capsys):
        path, flag = _path_and_flag(argv)
        least = _bounds(argv)[0]
        monkeypatch.setattr(cli, cli.COMMANDS[path].handler, _refuse)
        assert run(shlex.split(argv) + [str(least - 1), "--format", fmt]) == 2
        assert out_of(capsys) == ("", f"error: {flag} must be >= {least}, "
                                      f"got {least - 1}\n")

    # the relation search needs an order above its unknowns, which depend on
    # --dmax and --coeff-degree; the library refuses a shorter one itself
    @pytest.mark.parametrize("argv", [argv for argv in SIZED if argv !=
                                      "christol search --seq period-doubling --order"])
    def test_admits_the_least(self, argv, capsys):
        # thue-morse holds a square within 64 symbols
        assert run(shlex.split(argv) + [str(_bounds(argv)[0])]) in (0, 1)
        assert out_of(capsys)[1] == ""

    def test_every_int_option_has_bounds(self):
        options = {(path, flags[0]): (options.get("type") is int, bounds is not None)
                   for path, command in cli.COMMANDS.items()
                   for flags, options, bounds in command.arguments}
        sized = {key for key, (is_int, _) in options.items() if is_int}
        assert sized == {_path_and_flag(argv) for argv in SIZED}
        assert all(is_int == bounded for is_int, bounded in options.values())

    def test_every_option_without_a_most_is_exempt(self):
        assert {_path_and_flag(argv) for argv in SIZED
                if _bounds(argv)[1] is None} == set(UNBUDGETED)

    def test_modulus_cap_keeps_products_exact(self):
        assert cli._ORDER_MAX * (cli._MODULUS_MAX - 1) ** 2 < 1 << 63
        assert cli._ORDER_MAX * cli._MODULUS_MAX ** 2 >= 1 << 63

    @pytest.mark.parametrize("argv", BUDGETED)
    def test_admits_the_limit(self, argv, monkeypatch, capsys):
        _set_most(monkeypatch, argv, SMALL_MOST.get(_path_and_flag(argv)[1], 64))
        limit = _bounds(argv)[1]
        # thue-morse holds a square within 64 symbols
        assert run(shlex.split(argv) + [str(limit)]) in (0, 1)
        assert out_of(capsys)[1] == ""

    @pytest.mark.parametrize("argv", [
        "kernel --seq thue-morse --radix 3",
        "kernel --seq cyclic-hanoi --depth 10",
        "kernel --seq fibonacci --length 16777216",
        "kernel --seq fibonacci --radix 256 --length 1048576",
    ])
    def test_kernel_work_budget_refuses_in_seconds(self, argv, capsys):
        # sequences that are not k-automatic open a new class almost every
        # time; unbudgeted these ran from 10 s to past 40 s
        start = time.perf_counter()
        assert run(shlex.split(argv)) == 2
        assert time.perf_counter() - start < 5
        out, err = out_of(capsys)
        assert out == "" and err.startswith("error: kernel budget exceeded: ")


LIBRARY_ERRORS = sorted((obj for obj in vars(hanoiseq).values()
                         if isinstance(obj, type) and issubclass(obj, Exception)),
                        key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", LIBRARY_ERRORS, ids=lambda cls: cls.__name__)
def test_every_library_error_exits_2(error, monkeypatch, capsys):
    # run() turns these two bases into exit 2; any other class would end in
    # a traceback
    assert issubclass(error, (ValueError, UnknownSequenceError))

    def fail(args):
        raise error("raised by the handler")
    monkeypatch.setattr(cli, "cmd_generate", fail)
    assert run(["generate", "thue-morse", "--length", "4"]) == 2
    assert out_of(capsys) == ("", "error: raised by the handler\n")
