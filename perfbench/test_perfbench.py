"""Self-tests of the benchmark: tiny runs of every workload, and that faults are counted.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few cheap operations."""
    monkeypatch.setattr(workloads, "SEARCH_EXACT", [("unrestricted", 5, 5, 7), ("restricted", 5, 3, 21)])
    monkeypatch.setattr(workloads, "SEARCH_GREEDY", (4, 3, 1, 2))
    monkeypatch.setattr(workloads, "SIM_TRIALS", {27: 40, 241: 5})
    monkeypatch.setattr(workloads, "STREAM_BITS", 300)


def _result(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(tiny, capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_flipped_decoded_bit_is_counted(tiny, capsys, monkeypatch):
    from ternary_ecc import codec

    decode_stream = codec.StreamCodec.decode_stream

    def flip_first_bit(self, words):
        bits = decode_stream(self, words)
        return (1 - bits[0],) + bits[1:]

    monkeypatch.setattr(codec.StreamCodec, "decode_stream", flip_first_bit)
    result = _result(capsys, "stream", 0)
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == 4  # both plans' decode cells


def test_wrong_search_size_is_counted(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "SEARCH_EXACT", [("unrestricted", 5, 5, 8)])
    result = _result(capsys, "search", 0)
    assert result["failed"] == 1 and result["attempted"] == 2


def test_exact_rates_and_binomial_gate():
    from ternary_ecc import library

    words = [w.symbols for w in library.ternary_5_27_3().words]
    assert workloads.exact_da_rates(words, 0.0) == (0.0, 0.0)
    error, undecodable = workloads.exact_da_rates(words, 0.3)
    assert 0.0 < error < 1.0 and undecodable == 0.0
    assert workloads.binomial_plausible(round(400 * error), 400, error)
    assert not workloads.binomial_plausible(round(400 * error * 2), 400, error)


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
