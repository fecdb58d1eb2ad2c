"""Codebook decoders over a bit-sliced scan, and Monte Carlo error-rate runs."""

from __future__ import annotations

import random

from ._record import Record
from .channel import ChannelSpec, _cumulative_rows, _draw_symbols, split_seed
from .core import Code, Word, _least_count
from .metric import INF, _check_ml, _ml_cost

DECODER_KINDS = ("da", "ml")
_DECISION_CAP = 1 << 16  # decisions simulate keeps per call
_MAX_TRIALS = 1_000_000  # trials simulate runs per call (about 12 s on [5,27,3])


class DecodeResult(Record):
    """Outcome of a codebook scan: every minimizer, plus the tie-break winner.

    When every codeword sits at infinite distance the received word is
    unreachable from the whole codebook; chosen is None and minimizers empty.
    """

    __slots__ = ("chosen", "minimizers", "distance")

    def __init__(
        self, chosen: Word | None, minimizers: frozenset[Word], distance: float
    ) -> None:
        object.__setattr__(self, "chosen", chosen)
        object.__setattr__(self, "minimizers", minimizers)
        object.__setattr__(self, "distance", distance)

    @property
    def undecodable(self) -> bool:
        return self.chosen is None


def _result(code: Code, minimizers: int, distance: float) -> DecodeResult:
    if not minimizers:
        return DecodeResult(None, frozenset(), INF)
    words = code._words_at(minimizers)
    # codeword j is bit j in sorted order, so words[0] is the smallest minimizer
    return DecodeResult(words[0], frozenset(words), distance)


def decode_da(code: Code, received: Word) -> DecodeResult:
    """Decode by minimizing dist_a; ties go to the smallest codeword."""
    if received.q != code.q or len(received) != code.n:
        raise ValueError("received word does not match the code parameters")
    allowed, (planes, _) = code._scan(received.symbols, "a")
    return _result(code, *_least_count(allowed, planes))


def decode_ml(code: Code, received: Word, p: float) -> DecodeResult:
    """Maximum-likelihood decoding via the negative log-likelihood distance.

    Codewords are grouped by their (matching zeros, zero-involved
    disagreements) counts, and each group is costed by dist_ml's own
    expression, so distances and ties match it exactly.
    """
    if received.q != code.q or len(received) != code.n:
        raise ValueError("received word does not match the code parameters")
    _check_ml(p, code.q)
    allowed, (s2_planes, s0_planes) = code._scan(received.symbols, "ml")
    groups = [allowed] if allowed else []
    for plane in s0_planes + s2_planes:
        groups = [part for g in groups for part in (g & plane, g & ~plane) if part]
    best, minimizers = INF, 0
    for group in groups:
        j = (group & -group).bit_length() - 1
        s0 = sum(((plane >> j) & 1) << k for k, plane in enumerate(s0_planes))
        s2 = sum(((plane >> j) & 1) << k for k, plane in enumerate(s2_planes))
        d = _ml_cost(s0, code.n - s0 - s2, s2, p)
        if d < best:
            best, minimizers = d, group
        elif d == best and d != INF:
            minimizers |= group
    return _result(code, minimizers, best)


class SimReport(Record):
    """Counts from a Monte Carlo word-error run; correct + errors + undecodable = trials."""

    __slots__ = ("trials", "word_errors", "undecodable", "p", "decoder", "seed")

    def __init__(
        self, trials: int, word_errors: int, undecodable: int, p: float, decoder: str, seed: int
    ) -> None:
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "word_errors", word_errors)
        object.__setattr__(self, "undecodable", undecodable)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "decoder", decoder)
        object.__setattr__(self, "seed", seed)

    @property
    def correct(self) -> int:
        return self.trials - self.word_errors - self.undecodable

    @property
    def word_error_rate(self) -> float:
        return self.word_errors / self.trials


def simulate(
    code: Code,
    spec: ChannelSpec,
    decoder: str,
    trials: int,
    seed: int,
) -> SimReport:
    """Send uniform random codewords, decode, and count exact-word recoveries.

    Every trial derives its own child seed, so the totals do not depend on how
    trials might be split across workers. A decision depends on the received
    word alone, so each distinct received word is decoded once per call; up
    to _DECISION_CAP decisions are kept, and later new words are decoded
    every time they arrive. More than _MAX_TRIALS trials are refused up front.
    """
    if decoder not in DECODER_KINDS:
        raise ValueError(f"unknown decoder {decoder!r}, expected one of {DECODER_KINDS}")
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed the cap of {_MAX_TRIALS}")
    if code.q != spec.q:
        raise ValueError("code and channel alphabets differ")
    words = [word.symbols for word in code.sorted_words()]
    rows = _cumulative_rows(spec)
    # received symbols -> symbols of the chosen codeword, None when undecodable
    decisions: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    rng = random.Random()
    errors = 0
    undecodable = 0
    for t in range(trials):
        rng.seed(split_seed(seed, t))
        sent = words[rng.randrange(len(words))]
        received = _draw_symbols(rows, sent, rng.random)
        try:
            chosen = decisions[received]
        except KeyError:
            word = Word(spec.q, received)
            if decoder == "da":
                result = decode_da(code, word)
            else:
                result = decode_ml(code, word, spec.p)
            chosen = None if result.undecodable else result.chosen.symbols
            if len(decisions) < _DECISION_CAP:
                decisions[received] = chosen
        if chosen is None:
            undecodable += 1
        elif chosen != sent:
            errors += 1
    return SimReport(trials, errors, undecodable, spec.p, decoder, seed)
