"""Sphere volumes under dist_b, the correction radius, the sphere-packing bound
and pmax, the largest error probability at which dist_a decoding is maximum
likelihood.

The ternary space under dist_b is a hypercube centered on the all-zero word:
spheres shrink as their center moves toward the vertices (maximum-weight
words), so the packing bound divides by the volume of a vertex-centered
sphere. Volumes and bounds are exact integer arithmetic.
"""

from __future__ import annotations

_MAX_LENGTH = 30_000  # longest code length the volume and bound accept
_PMAX_TOL = 1e-12  # width at which the pmax bisection stops


def correction_capability(dbmin: int) -> int:
    """Guaranteed correction radius floor((dbmin - 1) / 2) under dist_a decoding."""
    if dbmin < 1:
        raise ValueError(f"minimum distance must be >= 1, got {dbmin}")
    return (dbmin - 1) // 2


def pmax(n: int) -> float:
    """Largest p for which dist_a decoding is maximum likelihood at length n.

    For n <= 2 the threshold is 2/3. Otherwise it is the unique root in
    (0, 2/3) of (p/2)/(1-p) = ((1-p)/(1-p/2))^floor((n-1)/2), found by
    bisection: the left side grows with p while the right side falls.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    exponent = (n - 1) // 2
    if exponent == 0:
        return 2.0 / 3.0

    def gap(p: float) -> float:
        return (p / 2.0) / (1.0 - p) - ((1.0 - p) / (1.0 - p / 2.0)) ** exponent

    lo, hi = 0.0, 2.0 / 3.0
    while hi - lo > _PMAX_TOL:
        mid = (lo + hi) / 2.0
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def sphere_volume_exact(n: int, w: int, r: int) -> int:
    """Number of ternary words within dist_b r of a length-n word of weight w.

    A coordinate costs 1 to move between zero and non-zero, 2 between the
    non-zero symbols, so c_k words lie at distance k, c_k the x^k coefficient
    of f = (1 + x + x^2)^w (1 + 2x)^(n-w). As (1 + x + x^2)(1 + 2x) f' =
    (w (1 + 2x)^2 + 2(n-w)(1 + x + x^2)) f, c_k follows from c_(k-3..k-1).
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside 0..{n}")
    if n > _MAX_LENGTH:
        raise ValueError(f"length {n} exceeds the cap of {_MAX_LENGTH}")
    a, b = 2 * n - w, 2 * n + 2 * w
    total, older, old, term = 0, 0, 0, 1  # c_(k-2), c_(k-1), c_k
    for k in range(min(r, n + w) + 1):
        total += term
        older, old, term = old, term, (
            (a - 3 * k) * term + (b - 3 * k + 3) * old + (b - 2 * k + 4) * older
        ) // (k + 1)
    return total


def sphere_volume_min(n: int, r: int) -> int:
    """Volume of a sphere centered on a maximum-weight word.

    Each coordinate of the center stays (cost 0), drops to zero (cost 1) or
    moves to the other non-zero symbol (cost 2), so a_k, the number of words
    at distance k, is the coefficient of x^k in f = (1 + x + x^2)^n. From
    (1 + x + x^2) f' = n (1 + 2x) f, each a_k follows from the two before it;
    as a_k = a_(2n-k), a radius of n or more subtracts the words beyond it
    from all 3^n, so at most n terms are summed. Lengths above _MAX_LENGTH are
    refused: at the cap the longest sum takes about half a second.
    """
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    if n > _MAX_LENGTH:
        raise ValueError(f"length {n} exceeds the cap of {_MAX_LENGTH}")
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    beyond = r >= n  # count the words past the radius instead
    last = 2 * n - min(r, 2 * n) - 1 if beyond else r
    total, before, term = 0, 0, 1
    for k in range(last + 1):
        total += term
        before, term = term, ((n - k) * term + (2 * n - k + 1) * before) // (k + 1)
    return 3**n - total if beyond else total


def sphere_packing_bound(n: int, dbmin: int) -> int:
    """Upper bound on the size of a length-n ternary code with the given dist_b minimum."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    volume = sphere_volume_min(n, correction_capability(dbmin))  # refuses a long n first
    return 3**n // volume
