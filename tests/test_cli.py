import json

import pytest

from hanoiseq.cli import run

S16 = "a C b a c B a C b A c b a C b a"


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

    @pytest.mark.parametrize("variant", ["classical", "cyclic", "lazy"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("disks", ["0", "-1"])
    def test_solve_needs_a_disk(self, variant, fmt, disks, capsys):
        assert run(["hanoi", "solve", "--variant", variant, "--disks", disks,
                    "--format", fmt]) == 2
        out, err = out_of(capsys)
        assert out == ""
        assert err == "error: disk count must be >= 1\n"

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

    @pytest.mark.parametrize("what", ["T", "U", "V", "Z"])
    def test_derive_with_check(self, what, capsys):
        assert run(["derive", "--what", what, "--length", "24", "--check"]) == 0

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
