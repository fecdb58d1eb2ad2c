"""The non-symmetric ternary channel, its q-ary generalization, and channel capacity.

For alphabet {0, ..., q-1} every error transition passes through symbol 0:
a zero may turn into any non-zero symbol and any non-zero symbol may decay to
zero, but two distinct non-zero symbols never turn into each other.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from ._record import Record

# largest alphabet capacity takes; it bounds no work (the closed form costs
# the same at any q) and keeps the refusals capacity --q has always given
_MAX_Q = 128
_MAX_SWEEP_STEPS = 20_000  # most grid points capacity_sweep takes


class ChannelSpec(Record):
    """Alphabet size q >= 3 and error probability p with 0 <= p <= (q-1)/q."""

    __slots__ = ("q", "p")

    def __init__(self, q: int, p: float) -> None:
        if q < 3:
            raise ValueError(f"channel alphabet must be at least 3, got {q}")
        limit = (q - 1) / q
        if not 0.0 <= p <= limit:
            raise ValueError(f"error probability {p} outside [0, {limit}]")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


class CapacityResult(Record):
    """Capacity in base-q units with the maximizing zero-symbol probability."""

    __slots__ = ("capacity_trits", "p0_star", "lam", "method", "log_base")

    def __init__(
        self,
        capacity_trits: float,
        p0_star: float,
        lam: float | None = None,
        method: str = "closed-form",
        log_base: int = 3,
    ) -> None:
        object.__setattr__(self, "capacity_trits", capacity_trits)
        object.__setattr__(self, "p0_star", p0_star)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "log_base", log_base)

    @property
    def capacity_bits(self) -> float:
        return self.capacity_trits * math.log2(self.log_base)


def transition_prob(spec: ChannelSpec, x: int, y: int) -> float:
    """Probability of receiving y given that x was sent."""
    q, p = spec.q, spec.p
    if not 0 <= x < q:
        raise ValueError(f"input symbol {x} outside alphabet of size {q}")
    if not 0 <= y < q:
        raise ValueError(f"output symbol {y} outside alphabet of size {q}")
    if x == y:
        return 1.0 - p if x == 0 else 1.0 - p / (q - 1)
    if x == 0 or y == 0:
        return p / (q - 1)
    return 0.0


def transition_matrix(spec: ChannelSpec) -> list[list[float]]:
    """Full q x q matrix of transition_prob values, rows indexed by the input."""
    return [
        [transition_prob(spec, x, y) for y in range(spec.q)] for x in range(spec.q)
    ]


def split_seed(seed: int, index: int) -> int:
    """Derive an independent child seed; distinct indexes give distinct streams."""
    return seed * 0x9E3779B97F4A7C15 + index + 1


@lru_cache(maxsize=64)
def _cumulative_rows(spec: ChannelSpec) -> tuple[tuple[float, ...], ...]:
    """Running sums of each transition row, added left to right, without the
    last sum: a draw at or above every kept sum is output q - 1."""
    return tuple(tuple(accumulate(row))[:-1] for row in transition_matrix(spec))


def transmit(spec: ChannelSpec, x: Word, rng: int | random.Random) -> Word:
    """Send a word through the channel, drawing one sample per symbol in order.

    A draw u becomes the first output whose running row sum exceeds u, or
    q - 1 when rounding leaves the last sum at or below u.
    """
    from .core import Word  # here, so that capacity never loads core

    if x.q != spec.q:
        raise ValueError(f"word alphabet {x.q} differs from channel alphabet {spec.q}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    return Word(spec.q, _draw_symbols(_cumulative_rows(spec), x.symbols, rng.random))


def _draw_symbols(
    rows: tuple[tuple[float, ...], ...], symbols: tuple[int, ...], draw
) -> tuple[int, ...]:
    """The received symbols for these sent ones, one draw() per symbol in
    order, from the rows of _cumulative_rows."""
    return tuple(bisect_right(rows[s], draw()) for s in symbols)


def entropy_trits(t: float) -> float:
    """Ternary entropy of the pair (t, 1-t), in trits."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"entropy argument {t} outside [0, 1]")
    result = 0.0
    if t > 0.0:
        result -= t * math.log(t) / math.log(3)
    if t < 1.0:
        result -= (1.0 - t) * math.log(1.0 - t) / math.log(3)
    return result


def _entropy(t: float, q: int) -> float:
    """Entropy of the pair (t, 1-t) in base-q units."""
    return entropy_trits(t) * (math.log(3) / math.log(q))


def mutual_information(spec: ChannelSpec, p0: float) -> float:
    """Mutual information in base-q units for the input law
    (p0, (1-p0)/(q-1), ..., (1-p0)/(q-1))."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 {p0} outside [0, 1]")
    q, p = spec.q, spec.p
    r = p / (q - 1)
    t = p0 + r - q / (q - 1) * p0 * p
    return (
        _entropy(t, q)
        - p0 * _entropy(p, q)
        - (1.0 - p0) * _entropy(r, q)
        + (1.0 - p0) * (1.0 - r) * (math.log(q - 1) / math.log(q))
    )


def capacity(spec: ChannelSpec) -> CapacityResult:
    """Closed-form capacity for every alphabet up to _MAX_Q.

    Under the input law of mutual_information the output is 0 with
    probability t = p0 + r - q/(q-1) p0 p, linear in p0, where r = p/(q-1),
    and every non-zero output shares 1 - t evenly. With h the binary entropy
    in base q and L = log_q(q-1),
    I = h(t) - p0 h(p) - (1-p0) h(r) + (1-p0)(1-r) L.
    Setting dI/dp0 = 0 gives log_q((1-t)/t) = -lam with
    lam = (h(r) - h(p) - (1-r) L) / (1 - q p/(q-1)), so t* = q^lam / (1 + q^lam)
    and p0* = (t* - r) / (1 - q p/(q-1)), clamped to [0, 1]. At the singular
    point p = (q-1)/q, t = r for every p0 and I = (1-p0)(1-r) L falls
    linearly, so p0* = 0.
    """
    q, p = spec.q, spec.p
    if q > _MAX_Q:
        raise ValueError(f"alphabet {q} exceeds the cap of {_MAX_Q}")
    if math.isclose(p, (q - 1) / q, rel_tol=0.0, abs_tol=1e-15):
        return CapacityResult(mutual_information(spec, 0.0), 0.0, log_base=q)
    r = p / (q - 1)
    slope = 1.0 - q / (q - 1) * p
    lam = (
        _entropy(r, q) - _entropy(p, q) - (1.0 - r) * (math.log(q - 1) / math.log(q))
    ) / slope
    t_star = q**lam / (1.0 + q**lam)
    p0 = min(1.0, max(0.0, (t_star - r) / slope))
    return CapacityResult(mutual_information(spec, p0), p0, lam, log_base=q)


def capacity_sweep(
    p_start: float, p_stop: float, steps: int
) -> list[tuple[float, CapacityResult]]:
    """Closed-form ternary capacity on a monotone grid of at most _MAX_SWEEP_STEPS
    error probabilities."""
    if steps < 1:
        raise ValueError("sweep needs at least one step")
    if steps > _MAX_SWEEP_STEPS:
        raise ValueError(f"{steps} steps exceed the cap of {_MAX_SWEEP_STEPS}")
    if p_start > p_stop:
        raise ValueError("sweep range must be increasing")
    if steps == 1:
        grid = [p_start]
    else:
        width = (p_stop - p_start) / (steps - 1)
        grid = [p_start + i * width for i in range(steps)]
        grid[-1] = p_stop
    return [(p, capacity(ChannelSpec(3, p))) for p in grid]
