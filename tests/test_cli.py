from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ternary_ecc
from ternary_ecc.cli import main
from ternary_ecc.core import load_code, save_code
from ternary_ecc.decode import DECODER_KINDS
from ternary_ecc.library import (
    nonlinear_5_4_3,
    repetition,
    single_parity_check,
    ternary_5_27_3,
    zero_code,
)
from ternary_ecc.metric import min_dist_b


_PLAN_INNER = {"1": "w1.code", "2": "w2.code", "5": "w5.code"}


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


class TestScalarCommands:
    def test_pmax(self, capsys):
        assert main(["pmax", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0.5527864045"

    def test_bound(self, capsys):
        assert main(["bound", "--n", "8", "--d", "4"]) == 0
        assert capsys.readouterr().out.strip() == "729"

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

    def test_singular_point_falls_back(self, capsys):
        assert main(["capacity", "--p", str(2 / 3)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["method"] == "numeric"
        assert "warning" in captured.err

    def test_qary_numeric(self, capsys):
        assert main(["capacity", "--q", "5", "--p", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "numeric"
        assert payload["log_base"] == 5

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
                '{"exact": true, "members": ["0000", "1022", "1101", "1112", "1210", '
                '"1221", "2012", "2111", "2120", "2201", "2222"], "size": 11}',
            ),
            (
                "--n 5 --d 5 --mode unrestricted",
                '{"exact": true, "members": ["01221", "10122", "11111", "12210", '
                '"21012", "22101", "22222"], "size": 7}',
            ),
            (
                "--n 4 --d 4 --mode unrestricted --wmin 1 --wmax 3",
                '{"exact": true, "members": ["0122", "0211", "1012", "1101", "1220", '
                '"2021", "2110", "2202"], "size": 8}',
            ),
            (
                "--n 5 --d 3 --mode restricted",
                '{"exact": true, "members": ["00011", "01100", "10000", "11111"], "size": 21}',
            ),
            (
                "--n 4 --d 3 --mode unrestricted --algo greedy --seed 1",
                '{"exact": false, "members": ["0012", "0121", "0222", "1102", "1111", '
                '"1210", "1221", "2110", "2122", "2211"], "size": 10}',
            ),
            (
                "--n 5 --d 3 --mode restricted --algo greedy --seed 1 --iters 20",
                '{"exact": false, "members": ["00011", "01100", "10000", "11111"], "size": 21}',
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
        plan = request.getfixturevalue(f"plan_{label}")
        save_code(plan.outer, tmp_path / "outer.code")
        for weight, code in plan.inner.items():
            save_code(code, tmp_path / f"w{weight}.code")
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "q": 3, "dbmin": plan.dbmin, "outer": "outer.code",
            "inner": {str(weight): f"w{weight}.code" for weight in plan.inner},
        }), encoding="ascii")
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
    interpreter; return its exit status and which of numpy, scipy and the
    ternary_ecc submodules (by their short names) it loaded."""
    probe = (
        "import contextlib, io, sys\n"
        "import ternary_ecc\n"
        "status = 0\n"
        "if sys.argv[1:]:\n"
        "    from ternary_ecc.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = main(sys.argv[1:])\n"
        "ours = [m.split('.')[1] for m in sys.modules if m.startswith('ternary_ecc.')]\n"
        "print(status, *sorted({'numpy', 'scipy'} & set(sys.modules)), *ours)\n"
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
            (["pmax", "--n", "3"], coding | {"channel"}),
            (["mindist", "--code", code], coding | {"channel"}),
            (["verify", "--code", code, "--d", "3"], coding | {"channel"}),
            (["capacity", "--p", "0.2"], coding),
        ]
        for argv, unwanted in avoided:
            status, loaded = _loaded_modules(tmp_path, argv)
            assert status == 0, argv
            if unwanted is None:
                assert loaded == set()
            else:
                assert "cli" in loaded and not loaded & unwanted, (argv, loaded)

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
            assert status == 0 and not loaded & _HEAVY, argv

    def test_searches_without_escalation_load_neither(self, tmp_path):
        commands = [
            ["search", "--n", "4", "--d", "3", "--mode", "unrestricted"],
            ["search", "--n", "7", "--d", "5", "--mode", "restricted"],
            ["search", "--n", "5", "--d", "3", "--mode", "unrestricted",
             "--algo", "greedy", "--seed", "1"],
        ]
        for argv in commands:
            status, loaded = _loaded_modules(tmp_path, argv)
            assert status == 0 and not loaded & _HEAVY, argv
