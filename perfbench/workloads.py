"""The benchmark's four workloads, their inputs and the checks on their outputs.

Each workload is a closed loop in one process: a fixed list of cells, each one
operation on the program's public API, run in order; the next starts only when
the previous one has returned. load() imports the program and generate() makes
the inputs from the seed; together they are the set-up that setup_s times.
prepare() builds the oracles the checks need and is not timed. A cell's run()
is timed; its check() is not, and returns None or a description of the fault.
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Cell:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    counts: Callable[[Any], dict[str, int]] = lambda output: {}
    span: str | None = None  # span around the whole call, for work done outside this process
    extra: bool = False  # traced rounds only; not part of best_round_s


def min_dist_b(words) -> int:
    """Minimum pairwise dist_b, computed here rather than by the program under test."""
    tuples = [tuple(w) for w in words]
    best = math.inf
    for i, u in enumerate(tuples):
        for v in tuples[i + 1 :]:
            d = sum(0 if a == b else (1 if a == 0 or b == 0 else 2) for a, b in zip(u, v))
            best = min(best, d)
    return best


class Workload:
    name = ""
    # _reference() calls per timed reference sample, so that a sample lasts
    # about as long as a typical cell and sees the machine's speed the same way
    reference_repeats = 1

    def __init__(self, seed: int, out_dir: Path, src_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.src_dir = src_dir

    def load(self) -> None:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def trace_targets(self, tracer) -> None:
        pass

    def cells(self) -> list[Cell]:
        raise NotImplementedError

    def detail(self, best: dict[str, float], samples: dict[str, list[float]]) -> dict:
        """Workload-specific figures, name -> (value, unit), from each cell's fastest seconds."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- search

# (mode, n, dbmin, proven optimum). The optima are the published values the
# acceptance tests pin; the restricted ones are sizes of the materialised code.
SEARCH_EXACT = [
    ("unrestricted", 5, 2, 122),
    ("unrestricted", 5, 4, 17),
    ("unrestricted", 5, 5, 7),
    ("restricted", 5, 3, 21),
    ("restricted", 7, 5, 17),
    ("restricted", 7, 7, 9),
]
SEARCH_GREEDY = (6, 3, 1, 2)  # n, dbmin, fixed heuristic seed, iterations


class SearchWorkload(Workload):
    name = "search"
    reference_repeats = 12

    def load(self) -> None:
        from ternary_ecc import search

        self.search = search

    def generate(self) -> None:
        # The seed only orders the cells; each cell's input is fixed by its optimum.
        self.plan = [(f"{mode}_{n}_{d}", mode, n, d, {}, size) for mode, n, d, size in SEARCH_EXACT]
        n, d, seed, iterations = SEARCH_GREEDY
        options = {"algo": "greedy", "seed": seed, "iterations": iterations}
        self.plan.append((f"greedy_{n}_{d}", "unrestricted", n, d, options, None))
        random.Random(self.seed).shuffle(self.plan)

    def trace_targets(self, tracer) -> None:
        s = self.search
        for builder in ("build_unrestricted_graph", "build_restricted_graph"):
            tracer.target(s, builder, "search.graph_build", self._graph_counts)
        tracer.target(s, "exact_clique", "search.exact_clique")
        tracer.target(s, "greedy_clique", "search.greedy_clique")
        tracer.target(s, "optimal_binary_code", "search.binary_oracle")
        tracer.target(s, "build_code", "construct.build_code")
        tracer.target(s, "min_dist_b", "metric.min_dist_b")
        from ternary_ecc import construct

        tracer.target(construct.ConstructionPlan, "validate", "construct.validate")

    @staticmethod
    def _graph_counts(graph) -> dict[str, int]:
        return {"search.graph_vertices": len(graph.vertices),
                "search.graph_edges": graph.edge_count()}

    def _forget_binary_codes(self) -> None:
        # Every CLI user starts with an empty optimal_binary_code memo; a warm
        # memo would time a lookup instead of the inner-code search.
        memo = getattr(self.search, "_OPTIMAL_BINARY", None)
        if memo is not None:
            memo.clear()

    def cells(self) -> list[Cell]:
        return [self._cell(*entry) for entry in self.plan]

    def _cell(self, name, mode, n, d, options, optimum) -> Cell:
        def run():
            self._forget_binary_codes()
            return self.search.search_code(n, d, mode, **options)

        return Cell(name, run, lambda out: self._check(out, n, d, optimum), self._counts)

    @staticmethod
    def _counts(output) -> dict[str, int]:
        return {"search.clique_size": output[1].size}

    @staticmethod
    def _check(output, n: int, d: int, optimum: int | None) -> str | None:
        code, result = output
        words = [tuple(w.symbols) for w in code.words]
        if any(len(w) != n or any(s not in (0, 1, 2) for s in w) for w in words):
            return "code holds a word of the wrong length or alphabet"
        if optimum is not None:
            if not result.exact:
                return "exact search returned exact=False"
            if len(words) != optimum or result.total_weight != optimum:
                return f"size {len(words)} (clique weight {result.total_weight}), optimum is {optimum}"
        elif len(words) < 2:
            return "greedy search returned fewer than two words"
        if min_dist_b(words) < d:
            return f"code has minimum dist_b below {d}"
        return None

    def detail(self, best, samples) -> dict:
        return {
            f"{group}_s": (sum(t for name, t in best.items() if name.startswith(group + "_")), "s")
            for group in ("unrestricted", "restricted", "greedy")
        }


# ---------------------------------------------------------------- simulate

SIM_TRIALS = {27: 400, 241: 80}  # per cell; short cells give many samples per run
SIM_P = (0.02, 0.3)
SIM_DECODERS = ("da", "ml")
BINOMIAL_ALPHA = 1e-6


def _plan_8_241_4(lib, construct):
    return construct.ConstructionPlan(
        lib.extended_hamming_8_4_4(),
        {0: lib.zero_code(0), 4: lib.single_parity_check(4), 8: lib.single_parity_check(8)},
        dbmin=4,
    )


def _transition(x: int, y: int, p: float) -> float:
    if x == y:
        return 1.0 - p if x == 0 else 1.0 - p / 2
    return p / 2 if x == 0 or y == 0 else 0.0


def _dist_a(u, v) -> float:
    total = 0
    for a, b in zip(u, v):
        if a != b:
            if a and b:
                return math.inf
            total += 1
    return total


def exact_da_rates(codewords, p: float) -> tuple[float, float]:
    """(word error rate, undecodable rate) of dist_a decoding with uniform codewords.

    Enumerates every (sent, received) pair; ties go to the lexicographically
    smallest codeword, and a received word at infinite distance from every
    codeword is undecodable.
    """
    words = sorted(tuple(w) for w in codewords)
    n = len(words[0])
    decoded = {}
    for received in _all_words(n):
        dists = [_dist_a(c, received) for c in words]
        best = min(dists)
        decoded[received] = None if best == math.inf else words[dists.index(best)]
    error = undecodable = 0.0
    for sent in words:
        for received, choice in decoded.items():
            prob = math.prod(_transition(x, y, p) for x, y in zip(sent, received))
            if choice is None:
                undecodable += prob
            elif choice != sent:
                error += prob
    return error / len(words), undecodable / len(words)


def _all_words(n: int):
    if n == 0:
        yield ()
        return
    for head in _all_words(n - 1):
        for s in range(3):
            yield head + (s,)


def binomial_plausible(k: int, trials: int, rate: float, alpha: float = BINOMIAL_ALPHA) -> bool:
    """True unless k lies in a tail of Binomial(trials, rate) holding less than alpha / 2."""
    if rate <= 0.0:
        return k == 0
    if rate >= 1.0:
        return k == trials

    def pmf(i: int) -> float:
        return math.exp(
            math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
            + i * math.log(rate) + (trials - i) * math.log1p(-rate)
        )

    lower = sum(pmf(i) for i in range(0, k + 1))
    upper = sum(pmf(i) for i in range(k, trials + 1))
    return lower > alpha / 2 and upper > alpha / 2


class SimulateWorkload(Workload):
    name = "simulate"
    reference_repeats = 2

    def load(self) -> None:
        from ternary_ecc import channel, construct, decode, library

        self.channel, self.construct, self.decode, self.lib = channel, construct, decode, library

    def generate(self) -> None:
        codes = {27: self.lib.ternary_5_27_3(),
                 241: self.construct.build_code(_plan_8_241_4(self.lib, self.construct))}
        rng = random.Random(self.seed)
        self.plan = [
            (f"{decoder}_M{m}_p{p}", codes[m], self.channel.ChannelSpec(3, p), decoder,
             SIM_TRIALS[m], rng.getrandbits(32))
            for m in (27, 241) for p in SIM_P for decoder in SIM_DECODERS
        ]
        self.first: dict[str, tuple[int, int]] = {}

    def prepare(self) -> None:
        code27 = next(code for _, code, *_ in self.plan if code.size == 27)
        self.exact = {p: exact_da_rates([w.symbols for w in code27.words], p) for p in SIM_P}

    def trace_targets(self, tracer) -> None:
        tracer.target(self.decode, "transmit", "channel.transmit")
        tracer.target(self.decode, "decode_da", "decode.da")
        tracer.target(self.decode, "decode_ml", "decode.ml")

    def cells(self) -> list[Cell]:
        return [self._cell(*entry) for entry in self.plan]

    def _cell(self, name, code, spec, decoder, trials, seed) -> Cell:
        def check(report) -> str | None:
            counts = (report.word_errors, report.undecodable)
            if report.trials != trials or min(counts) < 0 or sum(counts) > trials:
                return f"counts out of range: {report}"
            if report.correct + report.word_errors + report.undecodable != trials:
                return "correct + word_errors + undecodable != trials"
            if self.first.setdefault(name, counts) != counts:
                return f"same seed gave {counts}, earlier {self.first[name]}"
            if code.size == 27 and decoder == "da":
                error_rate, undecodable_rate = self.exact[spec.p]
                if not binomial_plausible(report.word_errors, trials, error_rate):
                    return f"{report.word_errors} word errors in {trials}, exact rate {error_rate:.6g}"
                if not binomial_plausible(report.undecodable, trials, undecodable_rate):
                    return f"{report.undecodable} undecodable in {trials}, exact rate {undecodable_rate:.6g}"
            return None

        def counts(report) -> dict[str, int]:
            return {"decode.distance_evals": trials * code.size,
                    "decode.word_errors": report.word_errors,
                    "decode.undecodable": report.undecodable}

        return Cell(name, lambda: self.decode.simulate(code, spec, decoder, trials, seed),
                    check, counts)

    def detail(self, best, samples) -> dict:
        return {
            f"{decoder}_trials_per_s": (
                sum(trials for _, _, _, kind, trials, _ in self.plan if kind == decoder)
                / sum(best[name] for name, _, _, kind, _, _ in self.plan if kind == decoder),
                "1/s",
            )
            for decoder in SIM_DECODERS
        }


# ---------------------------------------------------------------- stream

STREAM_BITS = 4_000  # message length per plan


def _plan_5_21_3(lib, construct):
    return construct.ConstructionPlan(
        lib.nonlinear_5_4_3(),
        {1: lib.zero_code(1), 2: lib.repetition(2), 5: lib.single_parity_check(5)},
        dbmin=3,
    )


class StreamWorkload(Workload):
    name = "stream"

    def load(self) -> None:
        from ternary_ecc import codec, construct, core, library

        self.codec, self.construct, self.core, self.lib = codec, construct, core, library

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.plans = []
        for label, make in (("5_21_3", _plan_5_21_3), ("8_241_4", _plan_8_241_4)):
            plan = make(self.lib, self.construct)
            stream_codec = self.codec.StreamCodec(plan)
            message = tuple(rng.getrandbits(1) for _ in range(STREAM_BITS))
            self.plans.append((label, plan, stream_codec, message, rng.getrandbits(32)))
        self.first_blocks: dict[str, list] = {}
        self.received: dict[str, list] = {}
        self.hits: dict[str, int] = {}

    def trace_targets(self, tracer) -> None:
        tracer.target(self.codec.StreamCodec, "__init__", "codec.init")
        tracer.target(self.codec.StreamCodec, "encode_block", "codec.encode_block")
        tracer.target(self.codec.StreamCodec, "decode_block", "codec.decode_block")
        tracer.target(self.core.BinaryBlockCode, "nearest", "core.nearest")
        tracer.target(self.core.BinaryBlockCode, "erasure_decode", "core.erasure_decode")
        tracer.target(self.construct.ConstructionPlan, "validate", "construct.validate")

    def cells(self) -> list[Cell]:
        cells = []
        for label, plan, stream_codec, message, error_seed in self.plans:
            cells.append(self._encode_cell(label, plan, stream_codec, message, error_seed))
            cells.append(self._decode_cell(label, stream_codec, message))
        return cells

    def _encode_cell(self, label, plan, stream_codec, message, error_seed) -> Cell:
        n = plan.outer.n
        radius = (plan.dbmin - 1) // 2

        def check(blocks) -> str | None:
            if not blocks or any(b.q != 3 or len(b) != n for b in blocks):
                return "encoder produced no blocks or a block of the wrong shape"
            first = self.first_blocks.setdefault(label, blocks)
            if first != blocks:
                return "same message encoded to different blocks"
            # Corrupt a copy for the decode cell: at most `radius` channel
            # errors per block, each a zero turned non-zero or the reverse.
            rng = random.Random(error_seed)
            received, hit = [], 0
            for block in blocks:
                symbols = list(block.symbols)
                errors = rng.randrange(radius + 1)
                for i in rng.sample(range(n), errors):
                    symbols[i] = rng.choice((1, 2)) if symbols[i] == 0 else 0
                hit += errors > 0
                received.append(self.core.Word(3, tuple(symbols)))
            self.received[label] = received
            self.hits[label] = hit
            return None

        return Cell(f"encode_{label}", lambda: stream_codec.encode_stream(message), check)

    def _decode_cell(self, label, stream_codec, message) -> Cell:
        def run():
            return stream_codec.decode_stream(self.received.pop(label))

        def check(bits) -> str | None:
            try:
                recovered = self.codec.strip_padding(bits)
            except ValueError as exc:
                return f"decoded stream has no padding marker: {exc}"
            if recovered != message:
                wrong = sum(a != b for a, b in zip(recovered, message))
                return f"round trip lost bits: {wrong} differ, lengths {len(recovered)}/{len(message)}"
            return None

        def counts(bits) -> dict[str, int]:
            return {"codec.blocks": len(self.first_blocks[label]),
                    "codec.block_errors": self.hits[label]}

        return Cell(f"decode_{label}", run, check, counts)

    def detail(self, best, samples) -> dict:
        bits = len(self.plans) * STREAM_BITS
        return {
            f"{side}_bits_per_s": (
                bits / sum(t for name, t in best.items() if name.startswith(side)), "1/s"
            )
            for side in ("encode", "decode")
        }


# ---------------------------------------------------------------- cli

# Byte-exact stdout of each subcommand, pinned at the commit that added the
# benchmark. CODE is the [5,27,3] code file written in set-up.
CLI_CALLS = [
    ("pmax", ["pmax", "--n", "3"], b"0.5527864045\n"),
    ("capacity", ["capacity", "--p", "0.2"],
     b'{"capacity_bits": 0.995474234923285, "capacity_trits": 0.6280743137268834, '
     b'"log_base": 3, "method": "closed-form", "p": 0.2, "p0_star": 0.2028833670166252, '
     b'"q": 3}\n'),
    ("bound", ["bound", "--table", "--n-list", "8,16", "--d-list", "2,4,8"],
     b"d,8,16\n2,6561,43046721\n4,729,2532160\n8,41,45169\n"),
    ("mindist", ["mindist", "--code", "CODE"], b"3\n"),
    ("verify", ["verify", "--code", "CODE", "--d", "3"],
     b'{"min_dist_b": 3, "ok": true, "required": 3}\n'),
]


@dataclass
class CallResult:
    stdout: bytes
    stderr: bytes
    returncode: int
    rss_mb: float


class CliWorkload(Workload):
    name = "cli"
    reference_repeats = 25

    def load(self) -> None:
        from ternary_ecc import library

        self.lib = library

    def generate(self) -> None:
        # The code file lists the [5,27,3] codewords in an order drawn from the seed.
        lines = [str(w) for w in self.lib.ternary_5_27_3().words]
        lines.sort()
        random.Random(self.seed).shuffle(lines)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.code_path = self.out_dir / f"cli-{os.getpid()}.code"
        self.code_path.write_text("3 5 27\n" + "\n".join(lines) + "\n", encoding="ascii")
        self.env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        self.rss: list[float] = []

    def _call(self, argv: list[str]) -> CallResult:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=self.out_dir)
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CallResult(stdout, stderr, proc.returncode, usage.ru_maxrss / 1024)

    def cells(self) -> list[Cell]:
        cells = []
        for name, args, expected in CLI_CALLS:
            argv = [sys.executable, "-m", "ternary_ecc.cli"] + [
                str(self.code_path) if a == "CODE" else a for a in args
            ]
            cells.append(Cell(name, lambda argv=argv: self._call(argv),
                              lambda r, e=expected: self._check(r, e), span=f"cli.{name}"))
        for name, code in (("interp", "pass"), ("import", "import ternary_ecc")):
            argv = [sys.executable, "-c", code]
            cells.append(Cell(name, lambda argv=argv: self._call(argv),
                              lambda r: self._check(r, b""), span=f"cli.{name}", extra=True))
        return cells

    def _check(self, result: CallResult, expected: bytes) -> str | None:
        self.rss.append(result.rss_mb)
        if result.returncode != 0:
            return f"exit code {result.returncode}: {result.stderr[-300:]!r}"
        if result.stdout != expected:
            return f"stdout {result.stdout[:200]!r}, expected {expected[:200]!r}"
        return None

    def detail(self, best, samples) -> dict:
        calls = sorted(t for name, ts in samples.items() for t in ts)
        # the highest percentile with at least ten calls beyond it
        if len(calls) > 10:
            pct = math.floor(100 * (len(calls) - 10) / len(calls))
            tail = calls[max(1, math.ceil(pct / 100 * len(calls))) - 1]
        else:  # too few calls for any percentile to have ten beyond it
            pct, tail = 100, calls[-1]
        return {
            "p50_ms": (statistics.median(calls) * 1e3, "ms"),
            "tail_ms": (tail * 1e3, "ms"),
            "tail_percentile": (pct, "%"),
            "calls": (len(calls), "count"),
        }

    def peak_rss_mb(self) -> float:
        return max(self.rss, default=0.0)

    def close(self) -> None:
        self.code_path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SearchWorkload, SimulateWorkload, StreamWorkload, CliWorkload)}
