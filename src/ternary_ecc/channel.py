"""The non-symmetric ternary channel, its q-ary generalization, and channel capacity.

For alphabet {0, ..., q-1} every error transition passes through symbol 0:
a zero may turn into any non-zero symbol and any non-zero symbol may decay to
zero, but two distinct non-zero symbols never turn into each other.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .core import Word

LOG3_2 = math.log(2) / math.log(3)


@dataclass(frozen=True)
class ChannelSpec:
    """Alphabet size q >= 3 and error probability p with 0 <= p <= (q-1)/q."""

    q: int
    p: float

    def __post_init__(self) -> None:
        if self.q < 3:
            raise ValueError(f"channel alphabet must be at least 3, got {self.q}")
        limit = (self.q - 1) / self.q
        if not 0.0 <= self.p <= limit:
            raise ValueError(f"error probability {self.p} outside [0, {limit}]")


@dataclass(frozen=True)
class CapacityResult:
    """Capacity in base-q units with the maximizing zero-symbol probability."""

    capacity_trits: float
    p0_star: float
    lam: float | None = None
    method: str = "closed-form"
    log_base: int = 3

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
    """Running sums of each transition row, added left to right."""
    return tuple(tuple(accumulate(row)) for row in transition_matrix(spec))


def transmit(spec: ChannelSpec, x: Word, rng: int | random.Random) -> Word:
    """Send a word through the channel, drawing one sample per symbol in order.

    A draw u becomes the first output whose running row sum exceeds u, or
    q - 1 when rounding leaves the last sum at or below u.
    """
    if x.q != spec.q:
        raise ValueError(f"word alphabet {x.q} differs from channel alphabet {spec.q}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    return Word(spec.q, _draw_symbols(spec, x.symbols, rng.random))


def _draw_symbols(spec: ChannelSpec, symbols: tuple[int, ...], draw) -> tuple[int, ...]:
    """The received symbols for these sent ones, one draw() per symbol in order."""
    rows = _cumulative_rows(spec)
    last = spec.q - 1
    return tuple(min(bisect_right(rows[s], draw()), last) for s in symbols)


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


def mutual_information(spec: ChannelSpec, p0: float) -> float:
    """Mutual information in trits for the ternary input law (p0, (1-p0)/2, (1-p0)/2)."""
    if spec.q != 3:
        raise ValueError("the closed form covers the ternary channel only")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 {p0} outside [0, 1]")
    p = spec.p
    if p > 2.0 / 3.0:
        raise ValueError(f"error probability {p} outside [0, 2/3]")
    t = p0 + p / 2.0 - 1.5 * p0 * p
    return (
        entropy_trits(t)
        - p0 * entropy_trits(p)
        - (1.0 - p0) * entropy_trits(p / 2.0)
        + (1.0 - p0) * (1.0 - p / 2.0) * LOG3_2
    )


def _lambda(p: float) -> float:
    return (
        entropy_trits(p / 2.0) - entropy_trits(p) - (1.0 - p / 2.0) * LOG3_2
    ) / (1.0 - 1.5 * p)


def capacity(spec: ChannelSpec) -> CapacityResult:
    """Closed-form ternary capacity; the optimizer clamps to [0, 1] when needed.

    Rejects p = 2/3 exactly, where the closed form is singular; use
    capacity_numeric there.
    """
    if spec.q != 3:
        raise ValueError("the closed form covers the ternary channel only")
    p = spec.p
    if math.isclose(p, 2.0 / 3.0, rel_tol=0.0, abs_tol=1e-15):
        raise ValueError("closed form is singular at p = 2/3; use capacity_numeric")
    lam = _lambda(p)
    t_star = 3.0**lam / (1.0 + 3.0**lam)
    p0 = (t_star - p / 2.0) / (1.0 - 1.5 * p)
    p0 = min(1.0, max(0.0, p0))
    return CapacityResult(mutual_information(spec, p0), p0, lam)


def input_distribution(spec: ChannelSpec, p0: float) -> tuple[float, ...]:
    """Input law (p0, (1-p0)/(q-1), ..., (1-p0)/(q-1))."""
    rest = (1.0 - p0) / (spec.q - 1)
    return (p0,) + (rest,) * (spec.q - 1)


def mutual_information_joint(spec: ChannelSpec, dist: tuple[float, ...]) -> float:
    """Mutual information in base-q units from the explicit joint distribution."""
    rows = transition_matrix(spec)
    log_q = math.log(spec.q)
    out = [
        sum(dist[x] * rows[x][y] for x in range(spec.q)) for y in range(spec.q)
    ]
    total = 0.0
    for x in range(spec.q):
        if dist[x] == 0.0:
            continue
        for y in range(spec.q):
            joint = dist[x] * rows[x][y]
            if joint > 0.0:
                total += joint * math.log(rows[x][y] / out[y]) / log_q
    return total


def capacity_numeric(spec: ChannelSpec, tol: float = 1e-12) -> CapacityResult:
    """Capacity by golden-section search over p0; works for every q and every valid p.

    The objective is concave in p0, so the unimodal search is safe.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def objective(p0: float) -> float:
        return mutual_information_joint(spec, input_distribution(spec, p0))

    lo, hi = 0.0, 1.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = objective(a), objective(b)
    while hi - lo > tol:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = objective(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = objective(a)
    candidates = [0.0, (lo + hi) / 2.0, 1.0]
    p0 = max(candidates, key=objective)
    return CapacityResult(
        objective(p0), p0, lam=None, method="numeric", log_base=spec.q
    )


def capacity_sweep(
    p_start: float, p_stop: float, steps: int
) -> list[tuple[float, CapacityResult]]:
    """Closed-form ternary capacity on a monotone grid of error probabilities."""
    if steps < 1:
        raise ValueError("sweep needs at least one step")
    if p_start > p_stop:
        raise ValueError("sweep range must be increasing")
    if steps == 1:
        grid = [p_start]
    else:
        width = (p_stop - p_start) / (steps - 1)
        grid = [p_start + i * width for i in range(steps)]
        grid[-1] = p_stop
    return [(p, capacity(ChannelSpec(3, p))) for p in grid]
