"""Distance measures for the non-symmetric channel and derived code parameters.

Three distances appear throughout the toolkit:

* dist_a -- per-symbol {0, 1, inf}: the number of single-symbol channel errors
  needed to turn one word into the other, infinite when a forbidden transition
  between distinct non-zero symbols would be required.
* dist_b -- per-symbol {0, 1, 2}: the metric closure of dist_a; a change
  between two distinct non-zero symbols costs 2 because it must pass through 0.
  On binary words dist_b is the Hamming distance.
* dist_ml -- negative log-likelihood of the channel transition, so that
  minimizing it over a codebook performs maximum-likelihood decoding.
"""

from __future__ import annotations

import math

from ._record import Record
# re-exported; bounds imports no module of ours
from .bounds import correction_capability, pmax
from .core import Code, Word, _check_compatible

INF = math.inf


class AgreementProfile(Record):
    """Position counts: matching zeros, matching non-zeros, zero-involved
    disagreements, and disagreements between distinct non-zero symbols."""

    __slots__ = ("s0", "s1", "s2", "s3")

    @property
    def n(self) -> int:
        return self.s0 + self.s1 + self.s2 + self.s3


def agreement_profile(u: Word, v: Word) -> AgreementProfile:
    """Classify every position of the pair into the four agreement classes."""
    _check_compatible(u, v)
    s0 = s1 = s2 = s3 = 0
    for a, b in zip(u.symbols, v.symbols):
        if a == b:
            if a == 0:
                s0 += 1
            else:
                s1 += 1
        elif a == 0 or b == 0:
            s2 += 1
        else:
            s3 += 1
    return AgreementProfile(s0, s1, s2, s3)


def dist_ml(u: Word, v: Word, p: float) -> float:
    """Negative natural log of the ternary transition probability, inf if zero.

    At p = 0 the channel is noiseless: the distance is 0 between equal words
    and inf otherwise; so too when p is so small that p/2 underflows to 0.
    p = 2/3 is rejected because log(p/2) and log(1-p) coincide there and the
    measure stops ordering likelihoods.
    """
    _check_ml(p, u.q, v.q)
    prof = agreement_profile(u, v)
    if prof.s3 > 0:
        return INF
    return _ml_cost(prof.s0, prof.s1, prof.s2, p)


def _check_ml(p: float, *alphabets: int) -> None:
    if any(q != 3 for q in alphabets):
        raise ValueError("the likelihood distance is defined over the ternary alphabet")
    if not 0.0 <= p < 2.0 / 3.0:
        raise ValueError(f"error probability {p} outside [0, 2/3)")


def _ml_cost(s0: int, s1: int, s2: int, p: float) -> float:
    """dist_ml of a pair with these agreement counts and no s3 position."""
    if p / 2.0 == 0.0:
        return 0.0 if s2 == 0 else INF
    return (
        -s0 * math.log(1.0 - p)
        - s1 * math.log(1.0 - p / 2.0)
        - s2 * math.log(p / 2.0)
    )


def dist_a(u: Word, v: Word) -> float:
    """Channel-error distance: one per zero-involved disagreement, inf when a
    disagreement joins two distinct non-zero symbols."""
    prof = agreement_profile(u, v)
    return INF if prof.s3 else prof.s2


def dist_b(u: Word, v: Word) -> int:
    """Metric closure of dist_a: disagreements between non-zero symbols cost 2."""
    prof = agreement_profile(u, v)
    return prof.s2 + 2 * prof.s3


def min_dist_b(code: Code) -> int:
    """Minimum pairwise dist_b of a code; requires at least two codewords."""
    return code._min_count("b")


class LikelihoodBounds(Record):
    """Extreme transition probabilities over words at a fixed dist_a from y."""

    __slots__ = ("lower", "upper")


def likelihood_bounds(n: int, w_y: int, d: int, p: float) -> LikelihoodBounds:
    """Bounds on p(y|x) over all x with dist_a(x, y) = d, given only weight(y).

    The transition probability depends on x only through the number of matched
    zeros, which is largest (smallest) at the lower (upper) bound.
    """
    if not 0 <= w_y <= n:
        raise ValueError(f"weight {w_y} outside 0..{n}")
    if not 0 <= d <= n:
        raise ValueError(f"distance {d} outside 0..{n}")
    if not 0.0 < p < 2.0 / 3.0:
        raise ValueError(f"error probability {p} outside (0, 2/3)")
    half = p / 2.0
    if d < w_y:
        lower = half**d * (1.0 - half) ** (w_y - d) * (1.0 - p) ** (n - w_y)
    else:
        lower = half**d * (1.0 - p) ** (n - d)
    if d < n - w_y:
        upper = half**d * (1.0 - half) ** w_y * (1.0 - p) ** (n - w_y - d)
    else:
        upper = half**d * (1.0 - half) ** (n - d)
    return LikelihoodBounds(lower, upper)
