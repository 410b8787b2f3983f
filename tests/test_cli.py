import json
import shlex
import time

import pytest

from hanoiseq import cli, hanoi
from hanoiseq.catalog import HANOI_ALPHABET
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
        assert err.startswith("error: alternating solution is illegal: ")

    @pytest.mark.parametrize("variant", ["classical", "cyclic", "lazy"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("disks", ["0", "-1"])
    def test_solve_needs_a_disk(self, variant, fmt, disks, capsys):
        assert run(["hanoi", "solve", "--variant", variant, "--disks", disks,
                    "--format", fmt]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err == "error: disk count must be >= 1\n"

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
        monkeypatch.setattr(hanoi, "_BFS_DISKS_MAX", 3)
        monkeypatch.setattr(cli, "catalog_prefix", _refuse)
        monkeypatch.setattr(cli, "bfs_optimal", _refuse)
        assert run(["hanoi", "solve", "--disks", "4", "--check-optimal",
                    "--format", fmt]) == 2
        assert out_of(capsys) == ("", "error: input budget exceeded: --disks 4 is more "
                                      "than 3 with --check-optimal\n")
        monkeypatch.undo()
        monkeypatch.setattr(hanoi, "_BFS_DISKS_MAX", 3)
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
        assert out_of(capsys) == ("", "error: length must be >= 0\n")

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
        status, lines, payload = args.func(args)
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


def _outcome(argv, capsys):
    try:
        status = run(argv)
    except SystemExit as exc:
        status = exc.code
    return (status, *out_of(capsys))


def _raise_full_parser():
    raise AssertionError("full parser built for a request that names a command")


class TestOneCommandParser:
    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=" ".join)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_commands_run_without_the_full_parser(self, argv, fmt, monkeypatch, capsys):
        argv = argv + ["--format", fmt]
        monkeypatch.setattr(cli, "_parse_one_command", lambda argv: None)
        expected = _outcome(argv, capsys)
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_build_parser", _raise_full_parser)
        assert _outcome(argv, capsys) == expected
        assert expected[0] in (0, 1) and expected[1]

    @pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=" ".join)
    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_handler_sees_the_full_parsers_namespace(self, argv, fmt):
        assert (vars(cli._parse_one_command(argv + fmt))
                == vars(_build_parser().parse_args(argv + fmt)))

    def test_handlers_are_looked_up_per_request(self, monkeypatch, capsys):
        # the traced benchmark run rebinds cmd_* in the module namespace
        monkeypatch.setattr(cli, "cmd_generate", lambda args: (0, ["stub"], {}))
        assert run(["generate", "thue-morse", "--length", "8"]) == 0
        assert out_of(capsys) == ("stub\n", "")


# (argv without the value, budget constant in hanoi)
BUDGETED = [
    ("generate thue-morse --length", "_LENGTH_MAX"),
    ("compare thue-morse period-doubling --length", "_LENGTH_MAX"),
    ("toeplitz --pattern '0 . 1 .' --length", "_LENGTH_MAX"),
    ("census --seq thue-morse --width 2 --length", "_LENGTH_MAX"),
    ("squarefree --seq thue-morse --length", "_CAPPED_SCAN_MAX"),
    ("kernel --seq thue-morse --length", "_LENGTH_MAX"),
    ("christol verify --order", "_ORDER_MAX"),
    ("christol search --seq period-doubling --order", "_ORDER_MAX"),
    ("hanoi bfs --disks", "_BFS_DISKS_MAX"),
    ("derive --what U --length", "_LENGTH_MAX"),
    ("eval --seq thue-morse --check-prefix", "_CHECK_PREFIX_MAX"),
    ("construct-nonuniform --seq thue-morse --validate", "_VALIDATE_MAX"),
    ("kernel --seq thue-morse --radix", "_RADIX_MAX"),
    ("census --seq thue-morse --width", "_WIDTH_MAX"),
    ("christol search --seq period-doubling --modulus", "_MODULUS_MAX"),
    ("christol search --seq period-doubling --dmax", "_DMAX_MAX"),
    ("christol search --seq period-doubling --coeff-degree", "_COEFF_DEGREE_MAX"),
]
# a small budget the command accepts as a value: a prime modulus
SMALL_BUDGET = {"_BFS_DISKS_MAX": 3, "_MODULUS_MAX": 61}
# int options without a budget in the command table, and what bounds them
UNBUDGETED = {
    (("hanoi", "solve"), "--disks"): "moves_budget refuses past 2^26 moves",
    (("hanoi", "verify"), "--disks"): "moves_budget refuses past 2^26 moves",
    (("squarefree",), "--max-period"): "squarefree_check has its own scan budget",
    (("eval",), "--index"): "one automaton step per digit, O(log n)",
    (("kernel",), "--depth"): "kernel_explore's work budget bounds the comparisons",
}


class TestInputBudgets:
    @pytest.mark.parametrize("small", [True, False])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv,name", BUDGETED, ids=[b[0] for b in BUDGETED])
    def test_refuses_before_work(self, argv, name, fmt, small, monkeypatch, capsys):
        if small:
            monkeypatch.setattr(hanoi, name, SMALL_BUDGET.get(name, 64))
        limit = getattr(hanoi, name)
        for work in ("catalog_prefix", "toeplitz_expand", "bfs_optimal"):
            monkeypatch.setattr(cli, work, _refuse)
        assert run(shlex.split(argv) + [str(limit + 1), "--format", fmt]) == 2
        assert out_of(capsys) == ("", f"error: input budget exceeded: {argv.split()[-1]} "
                                      f"{limit + 1} is more than {limit}\n")

    def test_every_int_option_is_budgeted_or_exempt(self):
        unbounded = {(path, flags[0])
                     for path, command in cli.COMMANDS.items()
                     for flags, options in command.arguments
                     if options.get("type") is int and flags[0] not in command.budgets}
        assert unbounded == set(UNBUDGETED)

    def test_every_budget_is_tested(self):
        tested = set()
        for argv, name in BUDGETED:
            words = argv.split()
            path = tuple(words[:2] if words[0] in cli.GROUPS else words[:1])
            tested.add((path, words[-1], name))
        declared = {(path, *item) for path, command in cli.COMMANDS.items()
                    for item in command.budgets.items()}
        assert declared == tested

    def test_modulus_cap_keeps_products_exact(self):
        assert hanoi._ORDER_MAX * (hanoi._MODULUS_MAX - 1) ** 2 < 1 << 63
        assert hanoi._ORDER_MAX * hanoi._MODULUS_MAX ** 2 >= 1 << 63

    @pytest.mark.parametrize("argv,name", BUDGETED, ids=[b[0] for b in BUDGETED])
    def test_admits_the_limit(self, argv, name, monkeypatch, capsys):
        monkeypatch.setattr(hanoi, name, SMALL_BUDGET.get(name, 64))
        limit = getattr(hanoi, name)
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
