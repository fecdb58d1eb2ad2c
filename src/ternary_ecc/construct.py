"""Building q-ary codes for the non-symmetric channel out of binary components.

An outer binary code fixes, per codeword, which positions carry non-zero
symbols; an inner code over the (q-1)-ary sub-alphabet picks the values on
those positions. Lifting the inner symbols away from zero makes codewords of
distinct outer words keep the outer Hamming distance, while codewords sharing
an outer word are separated by twice the inner Hamming distance.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ._record import Record
from .core import (
    Code,
    Word,
    WeightEnumerator,
    min_hamming_distance,
    weight_enumerator,
)

ErasureSymbol = int | None


class PlanError(ValueError):
    """A construction plan violates a distance or coverage requirement."""


def _support(word: Word) -> tuple[int, ...]:
    """Positions of the non-zero symbols of a word, in increasing order."""
    return tuple(i for i, s in enumerate(word.symbols) if s)


def lift_onto_support(
    n: int, support: Sequence[int], symbols: Sequence[int], q: int
) -> Word:
    """The length-n q-ary word carrying the (q-1)-ary symbols, each moved up by
    one so that it avoids zero, on the support positions and zero elsewhere.

    The support must be strictly increasing within 0..n-1 and as long as the
    symbols, and every symbol must lie in 0..q-2; otherwise ValueError.
    """
    if q < 3:
        raise ValueError(f"target alphabet must be at least 3, got {q}")
    _check_support(support, n)
    alphabet = range(q - 1)
    word = [0] * n
    for pos, s in zip(support, symbols, strict=True):
        if s not in alphabet:
            raise ValueError(f"symbol {s!r} outside sub-alphabet of size {q - 1}")
        word[pos] = s + 1
    return Word(q, tuple(word))


def lower_from_support(
    symbols: Sequence[int], support: Sequence[int]
) -> tuple[ErasureSymbol, ...]:
    """Inverse of lift_onto_support: read the support positions, zero becomes
    an erasure and s becomes s - 1. The support must be strictly increasing
    within the word; otherwise ValueError."""
    _check_support(support, len(symbols))
    return tuple(symbols[pos] - 1 if symbols[pos] else None for pos in support)


def _check_support(support: Sequence[int], n: int) -> None:
    """Refuse, with ValueError, a support not strictly increasing within 0..n-1."""
    last = -1
    for pos in support:
        if not last < pos < n:
            raise ValueError(
                f"support {tuple(support)} is not strictly increasing within 0..{n - 1}"
            )
        last = pos


class ConstructionPlan(Record):
    """Outer binary code plus one inner code per outer codeword weight.

    The inner codes, given as a mapping from weight to code, are kept as
    (weight, code) pairs sorted by weight, so a plan hashes and cannot change.
    The outer code needs minimum Hamming distance >= dbmin and every inner
    code needs minimum Hamming distance >= ceil(dbmin / 2); validate() checks
    both by direct computation rather than trusting labels. Weight 0 is always
    covered by the singleton empty-word code.
    """

    __slots__ = ("outer", "inner", "dbmin", "q")

    def __init__(self, outer: Code, inner: Mapping[int, Code], dbmin: int, q: int = 3) -> None:
        if outer.q != 2:
            raise PlanError(f"outer code must be binary, got alphabet {outer.q}")
        if q < 3:
            raise ValueError(f"target alphabet must be at least 3, got {q}")
        if dbmin < 1:
            raise ValueError(f"target minimum distance must be >= 1, got {dbmin}")
        super().__init__(outer, tuple(sorted(dict(inner).items())), dbmin, q)

    @property
    def inner_min_distance(self) -> int:
        return (self.dbmin + 1) // 2

    def weight_enumerator(self) -> WeightEnumerator:
        return weight_enumerator(self.outer)

    def inner_for(self, weight: int) -> Code:
        for w, code in self.inner:
            if w == weight:
                return code
        if weight == 0:
            return Code(self.q - 1, 0, frozenset({Word(self.q - 1, ())}))
        raise PlanError(f"no inner code for outer weight {weight}")

    def validate(self) -> None:
        if self.outer.size >= 2:
            dist = min_hamming_distance(self.outer)
            if dist < self.dbmin:
                raise PlanError(f"outer minimum distance {dist} below {self.dbmin}")
        needed = self.weight_enumerator().nonzero_weights()
        for d in needed:
            inner = self.inner_for(d)
            if inner.n != d:
                raise PlanError(f"inner code for weight {d} has length {inner.n}")
            if d > 0 and inner.q != self.q - 1:
                raise PlanError(
                    f"inner code for weight {d} uses alphabet {inner.q}, "
                    f"expected {self.q - 1}"
                )
            if len(inner.words) >= 2:
                dist = min_hamming_distance(inner)
                if dist < self.inner_min_distance:
                    raise PlanError(
                        f"inner code for weight {d} has minimum distance {dist}, "
                        f"needs {self.inner_min_distance}"
                    )


def build_code(plan: ConstructionPlan) -> Code:
    """Materialize the plan: lift each inner codeword onto each outer support.

    Images of distinct outer codewords never intersect; a repeat would mean a
    broken plan, so it is checked outright.
    """
    plan.validate()
    n = plan.outer.n
    seen: set[Word] = set()
    for mask in plan.outer.sorted_words():
        support = _support(mask)
        inner = plan.inner_for(len(support))
        for inner_word in sorted(inner.words):
            codeword = lift_onto_support(n, support, inner_word.symbols, plan.q)
            if codeword in seen:
                raise PlanError(f"construction produced {codeword} twice")
            seen.add(codeword)
    return Code(plan.q, n, frozenset(seen))


def construction_size(
    we: WeightEnumerator, inner_sizes: Mapping[int, int]
) -> int:
    """Size of the constructed code from the outer weight enumerator alone.

    Needs only the inner code sizes, one per weight with a non-zero count;
    weight 0 defaults to the singleton empty-word code.
    """
    total = 0
    for d, count in enumerate(we.counts):
        if count == 0:
            continue
        if d in inner_sizes:
            size = inner_sizes[d]
        elif d == 0:
            size = 1
        else:
            raise PlanError(f"no inner size for weight {d}")
        total += count * size
    return total
