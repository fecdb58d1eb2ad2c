from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ternary_ecc
from ternary_ecc.bounds import sphere_packing_bound
from ternary_ecc.cli import main
from ternary_ecc.codec import StreamCodec, strip_padding
from ternary_ecc.core import Code, Word, load_code, save_code
from ternary_ecc.decode import DECODER_KINDS
from ternary_ecc.library import (
    nonlinear_5_4_3,
    repetition,
    single_parity_check,
    ternary_5_27_3,
    zero_code,
)
from ternary_ecc.metric import min_dist_b

from oracles import maximize_unimodal, qary_mi, ternary_mi


_PLAN_INNER = {"1": "w1.code", "2": "w2.code", "5": "w5.code"}

# an integer past float range: a float conversion of it raises OverflowError
_HUGE = 10**400


@pytest.fixture()
def optimal_code_file(tmp_path):
    path = tmp_path / "c27.code"
    save_code(ternary_5_27_3(), path)
    return path


@pytest.fixture()
def plan_files(tmp_path):
    """Write the [5, 21, 3] plan and its component code files."""
    save_code(nonlinear_5_4_3(), tmp_path / "outer.code")
    save_code(zero_code(1), tmp_path / "w1.code")
    save_code(repetition(2), tmp_path / "w2.code")
    save_code(single_parity_check(5), tmp_path / "w5.code")
    plan = {"q": 3, "dbmin": 3, "outer": "outer.code", "inner": _PLAN_INNER}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="ascii")
    return plan_path


def _save_plan(plan, directory: Path) -> Path:
    """Save a plan's component codes and its JSON file into directory."""
    save_code(plan.outer, directory / "outer.code")
    for weight, code in plan.inner.items():
        save_code(code, directory / f"w{weight}.code")
    plan_path = directory / "plan.json"
    plan_path.write_text(json.dumps({
        "q": 3, "dbmin": plan.dbmin, "outer": "outer.code",
        "inner": {str(weight): f"w{weight}.code" for weight in plan.inner},
    }), encoding="ascii")
    return plan_path


class TestScalarCommands:
    def test_pmax(self, capsys):
        assert main(["pmax", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0.5527864045"

    def test_bound(self, capsys):
        assert main(["bound", "--n", "8", "--d", "4"]) == 0
        assert capsys.readouterr().out.strip() == "729"

    def test_bound_beyond_the_digit_limit(self, capsys):
        # the bound for 9100 symbols has more digits than the interpreter's
        # default int-to-str limit (4300); the limit is back in place after
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert main(["bound", "--n", "9100", "--d", "3"]) == 0
        digits = capsys.readouterr().out.strip()
        assert digits.isdigit() and len(digits) > 4300
        value = 0
        for start in range(0, len(digits), 1000):
            chunk = digits[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == sphere_packing_bound(9100, 3)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_bound_table(self, capsys):
        assert main(["bound", "--table", "--n-list", "8,16", "--d-list", "2,4,8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "d,8,16"
        assert lines[1].startswith("2,6561,")
        assert lines[2].startswith("4,729,")

    def test_mindist(self, capsys, optimal_code_file):
        assert main(["mindist", "--code", str(optimal_code_file)]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_verify_pass_and_fail(self, capsys, optimal_code_file):
        assert main(["verify", "--code", str(optimal_code_file), "--d", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert main(["verify", "--code", str(optimal_code_file), "--d", "4"]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False


class TestCapacityCommand:
    def test_single_point(self, capsys):
        assert main(["capacity", "--p", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "closed-form"
        assert 0 < payload["capacity_trits"] < 1
        assert payload["capacity_bits"] == pytest.approx(
            payload["capacity_trits"] * 1.5849625007211563
        )

    def test_outputs_are_pinned(self, capsys):
        # the benchmark's cli workload compares these bytes exactly
        assert main(["capacity", "--p", "0.2"]) == 0
        assert capsys.readouterr().out == (
            '{"capacity_bits": 0.995474234923285, "capacity_trits": 0.6280743137268834, '
            '"log_base": 3, "method": "closed-form", "p": 0.2, "p0_star": 0.2028833670166252, '
            '"q": 3}\n'
        )
        assert main(["capacity", "--sweep", "0", "0.6", "--steps", "13"]) == 0
        assert capsys.readouterr().out == (
            "p,p0_star,capacity_trits,capacity_bits\n"
            "0,0.333333333333,1,1.58496250072\n"
            "0.05,0.303794567793,0.859885103143,1.36288564341\n"
            "0.1,0.275559439657,0.765096642113,1.21264948718\n"
            "0.15,0.242935904988,0.689500529201,1.09283248301\n"
            "0.2,0.202883367017,0.628074313727,0.995474234923\n"
            "0.25,0.151548926374,0.579137307099,0.91791091452\n"
            "0.3,0.0831085409946,0.542739419223,0.860221627131\n"
            "0.35,0,0.520517046696,0.825\n"
            "0.4,0,0.504743802857,0.8\n"
            "0.45,0,0.488970559018,0.775\n"
            "0.5,0,0.473197315179,0.75\n"
            "0.55,0,0.457424071339,0.725\n"
            "0.6,0,0.4416508275,0.7\n"
        )

    def test_singular_point_closed_form(self, capsys):
        assert main(["capacity", "--p", str(2 / 3)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["method"] == "closed-form"
        assert captured.err == ""
        _, best = maximize_unimodal(lambda p0: ternary_mi(2 / 3, p0), 0.0, 1.0)
        assert payload["capacity_trits"] == pytest.approx(best, abs=1e-9)

    def test_qary(self, capsys):
        assert main(["capacity", "--q", "5", "--p", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "closed-form"
        assert payload["log_base"] == 5
        _, best = maximize_unimodal(lambda p0: qary_mi(5, 0.3, p0), 0.0, 1.0)
        assert payload["capacity_trits"] == pytest.approx(best, abs=1e-9)

    def test_sweep_csv(self, capsys):
        assert main(["capacity", "--sweep", "0", "0.6", "--steps", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p,p0_star,capacity_trits,capacity_bits"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == pytest.approx(1.0)


class TestSimulateCommand:
    def test_noiseless(self, capsys, optimal_code_file):
        argv = [
            "simulate", "--code", str(optimal_code_file), "--p", "0",
            "--decoder", "da", "--trials", "200", "--seed", "5",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["word_errors"] == 0
        assert payload["trials"] == 200

    def test_byte_identical_reruns(self, capsys, optimal_code_file):
        argv = [
            "simulate", "--code", str(optimal_code_file), "--p", "0.05",
            "--decoder", "ml", "--trials", "500", "--seed", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "decoder, expected",
        [
            (
                "da",
                '{"correct": 320, "decoder": "da", "p": 0.3, "seed": 7, "trials": 400, '
                '"undecodable": 0, "word_error_rate": 0.2, "word_errors": 80}',
            ),
            (
                "ml",
                '{"correct": 317, "decoder": "ml", "p": 0.3, "seed": 7, "trials": 400, '
                '"undecodable": 0, "word_error_rate": 0.2075, "word_errors": 83}',
            ),
        ],
    )
    def test_stdout_bytes_are_pinned(self, capsys, optimal_code_file, decoder, expected):
        argv = [
            "simulate", "--code", str(optimal_code_file), "--p", "0.3",
            "--decoder", decoder, "--trials", "400", "--seed", "7",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_seed_required(self, optimal_code_file):
        argv = [
            "simulate", "--code", str(optimal_code_file), "--p", "0.05",
            "--decoder", "da", "--trials", "10",
        ]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


class TestConstructCommand:
    def test_build_and_save(self, capsys, tmp_path, plan_files):
        base = plan_files.parent
        out = tmp_path / "bigcode.code"
        argv = [
            "construct",
            "--outer", str(base / "outer.code"),
            "--inner", f"1={base / 'w1.code'}",
            "--inner", f"2={base / 'w2.code'}",
            "--inner", f"5={base / 'w5.code'}",
            "--dbmin", "3",
            "--out", str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 21
        assert payload["min_dist_b"] == 3
        code = load_code(out)
        assert code.size == 21
        assert min_dist_b(code) == 3

    def test_quaternary_build(self, capsys, tmp_path):
        save_code(repetition(3), tmp_path / "outer3.code")
        from ternary_ecc.core import Code

        save_code(Code.from_strings(3, ["000", "111", "222"]), tmp_path / "w3.code")
        argv = [
            "construct",
            "--outer", str(tmp_path / "outer3.code"),
            "--inner", f"3={tmp_path / 'w3.code'}",
            "--q", "4",
            "--dbmin", "3",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"min_dist_b": 3, "n": 3, "q": 4, "size": 4}

    def test_distance_shortfall_is_domain_error(self, capsys, tmp_path, plan_files):
        base = plan_files.parent
        argv = [
            "construct",
            "--outer", str(base / "outer.code"),
            "--inner", f"1={base / 'w1.code'}",
            "--inner", f"2={base / 'w2.code'}",
            "--inner", f"5={base / 'w5.code'}",
            "--dbmin", "4",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error" in err

    def test_ternary_outer_is_refused(self, capsys, tmp_path):
        save_code(ternary_5_27_3(), tmp_path / "outer.code")
        save_code(zero_code(1), tmp_path / "w1.code")
        argv = [
            "construct",
            "--outer", str(tmp_path / "outer.code"),
            "--inner", f"1={tmp_path / 'w1.code'}",
            "--dbmin", "3",
        ]
        assert main(argv) == 1
        assert "binary" in json.loads(capsys.readouterr().err)["error"]


class TestSearchCommand:
    def test_exact_small(self, capsys):
        argv = ["search", "--n", "4", "--d", "4", "--mode", "unrestricted"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True
        assert payload["size"] == len(payload["members"])
        assert "runtime_ms" not in payload

    def test_greedy_requires_seed(self, capsys):
        argv = ["search", "--n", "4", "--d", "3", "--mode", "unrestricted", "--algo", "greedy"]
        assert main(argv) == 1

    def test_greedy_with_seed_and_out(self, capsys, tmp_path):
        out = tmp_path / "found.code"
        argv = [
            "search", "--n", "4", "--d", "3", "--mode", "restricted",
            "--algo", "greedy", "--seed", "9", "--iters", "30",
            "--out", str(out), "--timing",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is False
        assert "runtime_ms" in payload
        code = load_code(out)
        assert code.size == payload["size"]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                "--n 4 --d 3 --mode unrestricted",
                '{"exact": true, "members": ["0000", "0111", "0122", "1012", "1121", '
                '"1201", "1222", "2021", "2112", "2202", "2211"], "size": 11}',
            ),
            (
                "--n 5 --d 5 --mode unrestricted",
                '{"exact": true, "members": ["01111", "10212", "11221", "12120", '
                '"21022", "22112", "22201"], "size": 7}',
            ),
            (
                "--n 4 --d 4 --mode unrestricted --wmin 1 --wmax 3",
                '{"exact": true, "members": ["0111", "0222", "1021", "1102", "1210", '
                '"2012", "2120", "2201"], "size": 8}',
            ),
            (
                "--n 5 --d 3 --mode restricted",
                '{"exact": true, "members": ["00011", "01100", "10000", "11111"], "size": 21}',
            ),
            (
                "--n 4 --d 3 --mode unrestricted --algo greedy --seed 1",
                '{"exact": false, "members": ["0112", "0211", "1101", "1122", "1212", '
                '"1220", "2010", "2120", "2202", "2221"], "size": 10}',
            ),
            (
                "--n 5 --d 3 --mode restricted --algo greedy --seed 1 --iters 20",
                '{"exact": false, "members": ["00100", "01001", "10010", "11111"], "size": 21}',
            ),
        ],
    )
    def test_stdout_bytes_are_pinned(self, capsys, argv, expected):
        assert main(["search", *argv.split()]) == 0
        assert capsys.readouterr().out == expected + "\n"


class TestCodecCommands:
    def test_encode_decode_roundtrip(self, capsys, tmp_path, plan_files):
        bits_in = tmp_path / "message.bits"
        bits_in.write_text("110100111000101", encoding="ascii")
        words_path = tmp_path / "coded.words"
        bits_out = tmp_path / "decoded.bits"
        assert main(["encode", "--plan", str(plan_files), "--in", str(bits_in), "--out", str(words_path)]) == 0
        encode_payload = json.loads(capsys.readouterr().out)
        assert encode_payload["bits_in"] == 15
        assert main(["decode", "--plan", str(plan_files), "--in", str(words_path), "--out", str(bits_out)]) == 0
        assert bits_out.read_text(encoding="ascii").strip() == "110100111000101"

    @pytest.mark.parametrize(
        "label, blocks, coded_sha256",
        [
            ("5_21_3", 867, "429bfc7d21f9df790c5a2f40c742096afed22a04acc7d1750504df4a8b7c5752"),
            ("8_241_4", 434, "1df246c0facc815f87b4745db29b0686fd0f06aeae6a4b444e780c60e4fd8a01"),
        ],
    )
    def test_plan_outputs_are_pinned(self, capsys, tmp_path, request, label, blocks, coded_sha256):
        """3000 random bits encode to pinned words and decode back through one
        channel error per block."""
        plan_path = _save_plan(request.getfixturevalue(f"plan_{label}"), tmp_path)
        rng = random.Random(2024)
        bits = "".join(rng.choice("01") for _ in range(3000))
        (tmp_path / "in.bits").write_text(bits, encoding="ascii")
        coded, noisy, out = tmp_path / "coded.words", tmp_path / "noisy.words", tmp_path / "out.bits"
        argv = ["--plan", str(plan_path), "--in", str(tmp_path / "in.bits"), "--out", str(coded)]
        assert main(["encode", *argv]) == 0
        assert capsys.readouterr().out == f'{{"bits_in": 3000, "blocks": {blocks}}}\n'
        assert hashlib.sha256(coded.read_bytes()).hexdigest() == coded_sha256
        received = []
        for line in coded.read_text(encoding="ascii").split():
            symbols = list(line)
            i = rng.randrange(len(symbols))
            symbols[i] = rng.choice("12") if symbols[i] == "0" else "0"
            received.append("".join(symbols) + "\n")
        noisy.write_text("".join(received), encoding="ascii")
        assert main(["decode", "--plan", str(plan_path), "--in", str(noisy), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f'{{"bits_out": 3000, "blocks": {blocks}}}\n'
        assert out.read_bytes() == bits.encode("ascii") + b"\n"

    @pytest.mark.parametrize("label", ["5_21_3", "8_241_4"])
    def test_cli_and_api_streams_agree(self, capsys, tmp_path, request, label):
        """A plan of library codes, saved to files, encodes to the same words
        through the CLI as through StreamCodec, and each side decodes the
        other's words back to the message."""
        plan = request.getfixturevalue(f"plan_{label}")
        plan_path = _save_plan(plan, tmp_path)
        message = "110110101001011" * 7
        (tmp_path / "in.bits").write_text(message, encoding="ascii")
        cli_words = tmp_path / "cli.words"
        assert main(["encode", "--plan", str(plan_path), "--in", str(tmp_path / "in.bits"),
                     "--out", str(cli_words)]) == 0
        codec = StreamCodec(plan)
        api_words = codec.encode_stream(int(b) for b in message)
        lines = cli_words.read_text(encoding="ascii").split()
        assert lines == [str(x) for x in api_words]
        read_back = [Word.from_string(line, 3) for line in lines]
        assert "".join(map(str, strip_padding(codec.decode_stream(read_back)))) == message
        (tmp_path / "api.words").write_text("".join(f"{x}\n" for x in api_words), encoding="ascii")
        assert main(["decode", "--plan", str(plan_path), "--in", str(tmp_path / "api.words"),
                     "--out", str(tmp_path / "out.bits")]) == 0
        capsys.readouterr()
        assert (tmp_path / "out.bits").read_text(encoding="ascii") == message + "\n"

    def test_words_file_has_no_header(self, tmp_path, plan_files, capsys):
        bits_in = tmp_path / "m.bits"
        bits_in.write_text("1", encoding="ascii")
        words_path = tmp_path / "m.words"
        main(["encode", "--plan", str(plan_files), "--in", str(bits_in), "--out", str(words_path)])
        capsys.readouterr()
        lines = words_path.read_text(encoding="ascii").split()
        assert all(len(line) == 5 and set(line) <= set("012") for line in lines)


class TestErrorPaths:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["bound", "--n", "not-a-number", "--d", "2"])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_domain_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_text("3 5 1\n012\n", encoding="ascii")
        assert main(["mindist", "--code", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_search_budgets_escalate_then_exit_one(self, capsys, monkeypatch):
        # past the node budget the integer program still settles the search;
        # past its time limit as well, the search is refused
        monkeypatch.setattr(ternary_ecc.search, "_NODE_CAP", 10)
        assert main(["search", "--n", "5", "--d", "3", "--mode", "restricted"]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 21
        monkeypatch.setattr(ternary_ecc.search, "_MILP_TIME_LIMIT", 1e-3)
        assert main(["search", "--n", "5", "--d", "3", "--mode", "unrestricted"]) == 1
        assert "time limit" in json.loads(capsys.readouterr().err)["error"]

    # 3^10 = 59,049 ternary words, and 2^30000 binary outer words, whose count
    # is not summed past the cap
    @pytest.mark.parametrize("n, d, mode", [(10, 2, "unrestricted"), (30000, 3, "restricted")])
    def test_search_refuses_graphs_over_the_vertex_cap(self, capsys, n, d, mode):
        assert main(["search", "--n", str(n), "--d", str(d), "--mode", mode]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "the graph exceeds the cap of 20000 vertices"}

    def test_search_refuses_restricted_code_over_the_cap(self, capsys, monkeypatch):
        # the one outer word of weight 40 weighs 2^39 words; were the even-weight
        # inner code written out, the guard would fail the test before memory ran out
        def refuse(*args):
            raise AssertionError("an inner code was built")

        monkeypatch.setattr(ternary_ecc.search, "optimal_binary_code", refuse)
        start = time.perf_counter()
        argv = ["search", "--n", "40", "--d", "3", "--mode", "restricted", "--wmin", "40"]
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "the code exceeds the cap of 20000 words"}

    def test_search_refuses_greedy_over_its_visit_budget(self, capsys):
        # 1e9 passes over 8 outer words ran for minutes before the budget
        start = time.perf_counter()
        argv = ["search", "--n", "3", "--d", "3", "--mode", "restricted",
                "--algo", "greedy", "--seed", "1", "--iters", "1000000000"]
        assert main(argv) == 1
        assert time.perf_counter() - start < 2.0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "1000000000 iterations over 8 vertices exceed the budget"
            " of 2000000 vertex visits"
        }

    def test_search_refuses_restricted_code_over_the_cap_unsearched(self, capsys):
        # a greedy clique of the (10, 2) outer graph already passes the cap,
        # so the exact search, which took minutes, is not run
        start = time.perf_counter()
        assert main(["search", "--n", "10", "--d", "2", "--mode", "restricted"]) == 1
        assert time.perf_counter() - start < 2.0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "the code exceeds the cap of 20000 words"}

    @pytest.mark.parametrize("mode", ["unrestricted", "restricted"])
    def test_search_takes_a_distance_past_float_range(self, capsys, mode):
        # no two words are that far apart, so the best code is one word
        start = time.perf_counter()
        assert main(["search", "--n", "3", "--d", str(_HUGE), "--mode", mode]) == 0
        assert time.perf_counter() - start < 2.0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["size"] == 1

    def test_plan_with_a_distance_past_float_range_exits_one(self, capsys, tmp_path):
        # one outer word, so only the inner code's distance can fall short
        save_code(Code(2, 3, frozenset({Word(2, (1, 1, 0))})), tmp_path / "outer.code")
        save_code(repetition(2), tmp_path / "w2.code")
        plan = {"q": 3, "dbmin": _HUGE, "outer": "outer.code", "inner": {"2": "w2.code"}}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="ascii")
        bits, words = tmp_path / "in.bits", tmp_path / "in.words"
        bits.write_text("1\n", encoding="ascii")
        words.write_text("110\n", encoding="ascii")
        out_path = str(tmp_path / "out.txt")
        needs = f"inner code for weight 2 has minimum distance 2, needs {(_HUGE + 1) // 2}"
        for argv in (
            ["construct", "--outer", str(tmp_path / "outer.code"),
             "--inner", f"2={tmp_path / 'w2.code'}", "--dbmin", str(_HUGE)],
            ["encode", "--plan", str(plan_path), "--in", str(bits), "--out", out_path],
            ["decode", "--plan", str(plan_path), "--in", str(words), "--out", out_path],
        ):
            start = time.perf_counter()
            assert main(argv) == 1
            assert time.perf_counter() - start < 2.0
            out, err = capsys.readouterr()
            assert out == ""
            assert json.loads(err) == {"error": needs}

    def test_bound_and_pmax_past_float_range(self, capsys):
        # sphere volumes stop growing at radius 2n, and pmax refuses a length
        # its float arithmetic cannot hold
        for d in (30_000_000, _HUGE):
            start = time.perf_counter()
            assert main(["bound", "--n", "3", "--d", str(d)]) == 0
            assert time.perf_counter() - start < 2.0
            assert capsys.readouterr() == ("1\n", "")
        start = time.perf_counter()
        assert main(["pmax", "--n", str(_HUGE)]) == 1
        assert time.perf_counter() - start < 2.0
        out, err = capsys.readouterr()
        assert out == ""
        assert "error" in json.loads(err)

    def test_every_integer_flag_at_extremes(self, tmp_path, optimal_code_file):
        # each integer flag at 10**9 and past float range, one fresh process
        # at a time: an answer or a JSON refusal, never a traceback or a hang
        code = str(optimal_code_file)
        simulate = ["simulate", "--code", code, "--p", "0.1", "--decoder", "da"]
        greedy = ["search", "--n", "3", "--d", "3", "--algo", "greedy", "--seed", "1"]
        # (arguments with V for the value, exit status at 10**9, at 10**400)
        cases = [
            (["bound", "--n", "V", "--d", "3"], 1, 1),
            (["bound", "--table", "--n-list", "V", "--d-list", "3"], 1, 1),
            (["bound", "--n", "3", "--d", "V"], 0, 0),
            ([*simulate, "--trials", "V", "--seed", "1"], 1, 1),
            ([*simulate, "--trials", "10", "--seed", "V"], 0, 0),
            (["capacity", "--sweep", "0", "0.6", "--steps", "V"], 1, 1),
            (["capacity", "--q", "V", "--p", "0.3"], 1, 1),
            (["pmax", "--n", "V"], 0, 1),
            *[
                case
                for mode in ("unrestricted", "restricted")
                for case in (
                    (["search", "--n", "V", "--d", "3", "--mode", mode], 1, 1),
                    (["search", "--n", "3", "--d", "V", "--mode", mode], 0, 0),
                    ([*greedy, "--mode", mode, "--iters", "V"], 1, 1),
                )
            ],
        ]
        for argv, *statuses in cases:
            for value, status in zip((10**9, _HUGE), statuses):
                args = [str(value) if a == "V" else a for a in argv]
                start = time.perf_counter()
                done = _run_fresh(tmp_path, ["-m", "ternary_ecc.cli", *args])
                elapsed = time.perf_counter() - start
                assert (done.returncode, "Traceback" in done.stderr) == (status, False), args
                assert elapsed < 2.0, (args, elapsed)
                if status:
                    assert "error" in json.loads(done.stderr), args

    @pytest.mark.parametrize("mode", ["unrestricted", "restricted"])
    def test_search_refuses_distance_below_one(self, capsys, mode):
        for d in ("0", "-2"):
            assert main(["search", "--n", "3", "--d", d, "--mode", mode]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert json.loads(err) == {"error": f"minimum distance must be >= 1, got {d}"}

    @pytest.mark.parametrize("mode", ["unrestricted", "restricted"])
    def test_search_refuses_length_below_one(self, capsys, mode):
        assert main(["search", "--n", "0", "--d", "1", "--mode", mode]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "length must be >= 1, got 0"}

    @pytest.mark.parametrize(
        "lists, missing",
        [
            ([], "--n-list and --d-list"),
            (["--n-list", "8,16"], "--d-list"),
            (["--d-list", "2,4"], "--n-list"),
        ],
    )
    def test_bound_table_names_missing_lists(self, capsys, lists, missing):
        assert main(["bound", "--table", *lists]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": f"bound --table needs {missing}"}

    # unbuffered, the first write fails inside the command; buffered, the
    # flush after it does
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_quietly(self, tmp_path, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = _fresh_env()
        env["PYTHONUNBUFFERED"] = unbuffered
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ternary_ecc.cli", "pmax", "--n", "3"],
                cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        assert main(["mindist", "--code", str(tmp_path / "nope.code")]) == 1

    def test_capacity_needs_an_argument(self, capsys):
        assert main(["capacity"]) == 1
        assert "error" in capsys.readouterr().err

    def test_capacity_sweep_is_ternary_only(self, capsys):
        assert main(["capacity", "--q", "5", "--sweep", "0", "0.5"]) == 1

    @pytest.mark.parametrize(
        "plan",
        [
            [1, 2],
            "plan",
            {"outer": 5, "inner": {}, "dbmin": 3},
            {"inner": {}, "dbmin": 3},
            {"outer": "outer.code", "inner": [], "dbmin": 3},
            {"outer": "outer.code", "inner": {"1": 7}, "dbmin": 3},
            {"outer": "outer.code", "inner": _PLAN_INNER, "dbmin": None},
            {"outer": "outer.code", "inner": _PLAN_INNER, "dbmin": 3, "q": "3"},
            {"outer": "outer.code", "inner": _PLAN_INNER, "dbmin": 3.0},
        ],
        ids=[
            "list", "string", "outer-int", "outer-missing", "inner-list",
            "inner-int", "dbmin-null", "q-string", "dbmin-float",
        ],
    )
    def test_malformed_plan_exits_one(self, capsys, plan_files, plan):
        bad = plan_files.parent / "bad_plan.json"
        bad.write_text(json.dumps(plan), encoding="ascii")
        data = plan_files.parent / "data.txt"
        data.write_text("00000\n", encoding="ascii")
        for command in ("encode", "decode"):
            argv = [command, "--plan", str(bad), "--in", str(data), "--out", str(data)]
            assert main(argv) == 1
            assert "error" in json.loads(capsys.readouterr().err)


def _fresh_env() -> dict[str, str]:
    """The environment with the package under test first on the import path."""
    src = str(Path(ternary_ecc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_fresh(tmp_path, args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with these arguments on the package under test."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )


def _loaded_modules(tmp_path, argv: list[str]) -> tuple[int, set[str]]:
    """Run the CLI (or, without arguments, only the package import) in a fresh
    interpreter; return its exit status and which of numpy, scipy, dataclasses
    and the ternary_ecc submodules (by their short names) it loaded."""
    probe = (
        "import contextlib, io, sys\n"
        "import ternary_ecc\n"
        "status = 0\n"
        "if sys.argv[1:]:\n"
        "    from ternary_ecc.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = main(sys.argv[1:])\n"
        "ours = [m.split('.')[1] for m in sys.modules if m.startswith('ternary_ecc.')]\n"
        "print(status, *sorted({'numpy', 'scipy', 'dataclasses'} & set(sys.modules)), *ours)\n"
    )
    done = _run_fresh(tmp_path, ["-c", probe, *argv])
    assert done.returncode == 0, done.stderr
    status, *loaded = done.stdout.split()
    return int(status), set(loaded)


_HEAVY = {"numpy", "scipy"}


class TestImportFootprint:
    def test_each_command_loads_only_its_modules(self, tmp_path, optimal_code_file):
        code = str(optimal_code_file)
        coding = {"search", "codec", "decode", "construct"}
        avoided = [
            ([], None),  # the bare package import loads no submodule
            (["bound", "--table", "--n-list", "8,16", "--d-list", "2,4,8"],
             coding | {"channel", "core", "metric"}),
            (["pmax", "--n", "3"], coding | {"channel", "core", "metric"}),
            (["mindist", "--code", code], coding | {"channel"}),
            (["verify", "--code", code, "--d", "3"], coding | {"channel"}),
            (["capacity", "--p", "0.2"], coding | {"core"}),
        ]
        for argv, unwanted in avoided:
            status, loaded = _loaded_modules(tmp_path, argv)
            assert status == 0, argv
            if unwanted is None:
                assert loaded == set()
            else:
                # no command loads dataclasses: the records build on _record
                assert "cli" in loaded, argv
                assert not loaded & (unwanted | {"dataclasses"}), (argv, loaded)

    def test_run_as_a_module_without_warnings(self, tmp_path):
        # runpy warns when the package import has loaded cli already
        done = _run_fresh(tmp_path, ["-W", "error", "-m", "ternary_ecc.cli", "pmax", "--n", "3"])
        assert (done.returncode, done.stdout, done.stderr) == (0, "0.5527864045\n", "")

    def test_package_names_are_their_modules_objects(self):
        assert set(ternary_ecc.__all__) <= set(dir(ternary_ecc))
        for name in ternary_ecc.__all__:
            module = importlib.import_module(f"ternary_ecc.{ternary_ecc._EXPORTS[name]}")
            assert getattr(ternary_ecc, name) is getattr(module, name), name
        assert ternary_ecc.search is importlib.import_module("ternary_ecc.search")
        with pytest.raises(AttributeError):
            getattr(ternary_ecc, "no_such_name")

    def test_decoder_choices_are_the_decoders(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--help"])
        assert info.value.code == 0
        assert f"--decoder {{{','.join(DECODER_KINDS)}}}" in capsys.readouterr().out

    def test_non_search_commands_load_neither(self, tmp_path, optimal_code_file, plan_files):
        base = plan_files.parent
        bits = tmp_path / "m.bits"
        bits.write_text("110100111000101", encoding="ascii")
        words = tmp_path / "m.words"
        assert main(["encode", "--plan", str(plan_files), "--in", str(bits), "--out", str(words)]) == 0
        code = str(optimal_code_file)
        commands = [
            [],
            ["pmax", "--n", "3"],
            ["capacity", "--p", "0.2"],
            ["bound", "--table", "--n-list", "8,16", "--d-list", "2,4,8"],
            ["mindist", "--code", code],
            ["verify", "--code", code, "--d", "3"],
            ["simulate", "--code", code, "--p", "0.1", "--decoder", "da",
             "--trials", "20", "--seed", "1"],
            ["construct", "--outer", str(base / "outer.code"),
             "--inner", f"1={base / 'w1.code'}", "--inner", f"2={base / 'w2.code'}",
             "--inner", f"5={base / 'w5.code'}", "--dbmin", "3"],
            ["encode", "--plan", str(plan_files), "--in", str(bits),
             "--out", str(tmp_path / "again.words")],
            ["decode", "--plan", str(plan_files), "--in", str(words),
             "--out", str(tmp_path / "m.out")],
        ]
        for argv in commands:
            status, loaded = _loaded_modules(tmp_path, argv)
            assert status == 0 and not loaded & (_HEAVY | {"dataclasses"}), argv

    def test_searches_without_escalation_load_neither(self, tmp_path):
        commands = [
            ["search", "--n", "4", "--d", "3", "--mode", "unrestricted"],
            ["search", "--n", "7", "--d", "5", "--mode", "restricted"],
            # settled in the kernel, without the integer program
            ["search", "--n", "8", "--d", "3", "--mode", "restricted"],
            ["search", "--n", "5", "--d", "3", "--mode", "unrestricted",
             "--algo", "greedy", "--seed", "1"],
        ]
        for argv in commands:
            status, loaded = _loaded_modules(tmp_path, argv)
            assert status == 0 and not loaded & (_HEAVY | {"dataclasses"}), argv
