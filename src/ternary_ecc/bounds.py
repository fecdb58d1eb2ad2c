"""Sphere volumes under dist_b, the correction radius and the sphere-packing bound.

The ternary space under dist_b is a hypercube centered on the all-zero word:
spheres shrink as their center moves toward the vertices (maximum-weight
words), so the packing bound divides by the volume of a vertex-centered
sphere. Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from functools import cache
from math import comb


def correction_capability(dbmin: int) -> int:
    """Guaranteed correction radius floor((dbmin - 1) / 2) under dist_a decoding."""
    if dbmin < 1:
        raise ValueError(f"minimum distance must be >= 1, got {dbmin}")
    return (dbmin - 1) // 2


@cache
def sphere_volume_exact(n: int, w: int, r: int) -> int:
    """Number of ternary words within dist_b r of a length-n word of weight w.

    Peeling off the last coordinate gives two recursions, one for a zero
    coordinate and one for a non-zero coordinate (reaching the other non-zero
    symbol costs 2). The volume depends on the center only through its weight.
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} outside 0..{n}")
    if r < 0:
        return 0
    if n == 0:
        return 1
    if w < n:
        return sphere_volume_exact(n - 1, w, r) + 2 * sphere_volume_exact(n - 1, w, r - 1)
    return (
        sphere_volume_exact(n - 1, w - 1, r)
        + sphere_volume_exact(n - 1, w - 1, r - 1)
        + sphere_volume_exact(n - 1, w - 1, r - 2)
    )


def sphere_volume_min(n: int, r: int) -> int:
    """Volume of a sphere centered on a maximum-weight word, in closed form.

    Words at distance d from the center split into e2 coordinates moved to the
    other non-zero symbol (cost 2 each) and d - 2*e2 coordinates zeroed; at
    most n coordinates can move, so past r = 2n the sphere holds all 3^n words.
    """
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    total = 0
    for d in range(min(r, 2 * n) + 1):
        for e2 in range(min(d // 2, n) + 1):
            total += comb(n, e2) * comb(n - e2, d - 2 * e2)
    return total


def sphere_packing_bound(n: int, dbmin: int) -> int:
    """Upper bound on the size of a length-n ternary code with the given dist_b minimum."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    radius = correction_capability(dbmin)
    return 3**n // sphere_volume_min(n, radius)
