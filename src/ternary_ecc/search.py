"""Clique-based code search: optimal codes are maximum cliques in compatibility graphs.

Unrestricted search puts every ternary word (within a weight window) on a
vertex and joins pairs at dist_b >= dbmin; a clique is then a code. Restricted
search works over binary outer words instead, weighting each vertex by the
size of the best inner code its weight can carry, so a maximum weighted clique
is the best code this toolkit's binary construction can produce.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate, combinations, product
from typing import Callable, Sequence

from ._record import Record
from .bounds import correction_capability
from .construct import ConstructionPlan, build_code
from .core import Code, Word, _at_least, _columns, _iter_bits, _pairwise_planes, hamming_weight
from .library import single_parity_check, zero_code
from .metric import min_dist_b

class BudgetExceededError(RuntimeError):
    """The requested graph or search is larger than its budget."""


class SearchGraph(Record):
    """Compatibility graph; adjacency rows are bitmasks over vertex indexes.

    word_symmetry marks graphs whose vertex set is a full weight window, in
    any order, with adjacency a dist_b threshold and each vertex weight a
    function of its Hamming weight. Coordinate permutations and
    per-coordinate swaps of the non-zero symbols then act on the graph, so
    the exact solver eliminates whole orbits, and an escalation to the
    integer program takes the metric balls as rows.
    """

    __slots__ = ("vertices", "weights", "adj", "dbmin", "word_symmetry")
    _defaults = {"word_symmetry": False}

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2


class CliqueResult(Record):
    """A clique and its weighted size; exact marks exhaustively proven optima."""

    __slots__ = ("members", "total_weight", "exact", "seed", "iterations")
    _defaults = {"seed": None, "iterations": None}

    @property
    def size(self) -> int:
        return len(self.members)


def _window_graph(
    q: int, n: int, dbmin: int, wmin: int, wmax: int | None, weight_of: Callable[[int], int]
) -> SearchGraph:
    """Graph over every q-ary word of length n with Hamming weight in [wmin, wmax]
    (wmax None: n), joined at dist_b >= dbmin; a vertex weighs weight_of(its
    Hamming weight). The vertex count is summed only until it passes
    _MAX_VERTICES, which refuses the graph with BudgetExceededError.
    Each weight class is laid out from its supports, so a narrow window of a
    long length never walks the whole space. The vertices come in search
    order: vertex weight ascending, then Hamming weight descending, then
    reverse lexicographic order of the words; _branch_and_bound colors and
    branches in that order."""
    if wmax is None:
        wmax = n
    if not 0 <= wmin <= wmax <= n:
        raise ValueError(f"weight window [{wmin}, {wmax}] invalid for length {n}")
    sizes = (math.comb(n, w) * (q - 1) ** w for w in range(wmin, wmax + 1))
    if any(total > _MAX_VERTICES for total in accumulate(sizes)):
        raise BudgetExceededError(f"the graph exceeds the cap of {_MAX_VERTICES} vertices")
    # (-vertex weight, Hamming weight, symbols) descending is the search order
    rows = sorted(
        (
            (-weight_of(w), w, symbols)
            for w in range(wmin, wmax + 1)
            for support in combinations(range(n), w)
            for symbols in product(*(range(1, q) if i in support else (0,) for i in range(n)))
        ),
        reverse=True,
    )
    lo, full = max(dbmin, 1), (1 << len(rows)) - 1
    adj = [0] * len(rows)
    for j, planes in _pairwise_planes([symbols for _, _, symbols in rows], q, "b"):
        adj[j] = _at_least(full, planes, lo)
    words = tuple(Word(q, symbols) for _, _, symbols in rows)
    weights = tuple(-weight for weight, _, _ in rows)
    return SearchGraph(words, weights, tuple(adj), dbmin, word_symmetry=True)


def build_unrestricted_graph(
    n: int, dbmin: int, wmin: int = 0, wmax: int | None = None
) -> SearchGraph:
    """Graph over all ternary words with weight in [wmin, wmax]."""
    return _window_graph(3, n, dbmin, wmin, wmax, lambda _: 1)


def build_restricted_graph(
    n: int, dbmin: int, wmin: int = 0, wmax: int | None = None
) -> SearchGraph:
    """Weighted graph over binary outer words; vertex weight is the size of the
    best inner code (minimum Hamming distance ceil(dbmin / 2)) for that weight."""
    inner_dist = (dbmin + 1) // 2
    return _window_graph(
        2, n, dbmin, wmin, wmax, lambda w: optimal_binary_code_size(w, inner_dist)
    )


def _mask_of(flags: Sequence[int]) -> int:
    """Bitmask with bit v set exactly when flags[v] is true; flags is non-empty."""
    return int("".join("1" if f else "0" for f in reversed(flags)), 2)


def _kth_bit(mask: int, k: int) -> int:
    """Index of the k-th lowest set bit of mask, counting from 0."""
    base = 0
    while mask.bit_length() > 64:
        half = mask.bit_length() >> 1
        low = mask & ((1 << half) - 1)
        count = low.bit_count()
        if k < count:
            mask = low
        else:
            k -= count
            mask >>= half
            base += half
    for _ in range(k):
        mask &= mask - 1
    return base + (mask & -mask).bit_length() - 1


def _non_neighbours(adj: Sequence[int]) -> list[int]:
    """Per vertex, the mask of the other vertices not adjacent to it."""
    full = (1 << len(adj)) - 1
    return [full & ~(row | 1 << v) for v, row in enumerate(adj)]


def greedy_clique(graph: SearchGraph, seed: int, iterations: int) -> CliqueResult:
    """Randomized greedy independent-set construction on the complement graph.

    Vertices of complement degree at most one are always safe to keep (their
    closed neighborhood leaves at most one rival), heaviest first; while none
    exists, the most conflicted vertex is discarded. Iteration i reseeds with
    seed XOR i and the heaviest result wins.

    Degrees within the active set live in bit-sliced counters: planes[b] holds
    bit b of every vertex's degree, so removing a vertex subtracts its active
    complement row from all counters at once with a ripple borrow through the
    planes. Degree <= 1 is the active set outside planes[1:], and the
    maximum-degree vertices are what survives narrowing the active set
    through the planes from the top down. Inactive vertices keep stale bits
    that every query masks out. A pick is the k-th lowest vertex of its pool
    with k = rng.randrange(pool size), which draws exactly as rng.choice on
    the pool as a sorted list does, so every graph, seed and iteration count
    gives the result of recounting each active degree at every step.

    A call of more than _MAX_GREEDY_VISITS vertex visits (iterations times
    vertices) is refused with BudgetExceededError before its first pass.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    v_count = len(graph.vertices)
    # a pass over no vertex still costs one visit
    if iterations * max(v_count, 1) > _MAX_GREEDY_VISITS:
        raise BudgetExceededError(
            f"{iterations} iterations over {v_count} vertices exceed the budget"
            f" of {_MAX_GREEDY_VISITS} vertex visits"
        )
    full = (1 << v_count) - 1
    complement = _non_neighbours(graph.adj)
    weights = graph.weights
    degrees = [mask.bit_count() for mask in complement]
    start_planes = [
        _mask_of([d >> b & 1 for d in degrees])
        for b in range(max(degrees, default=0).bit_length())
    ]
    by_weight = [
        _mask_of([w == top for w in weights])
        for top in sorted(set(weights), reverse=True)
    ]
    best_members: list[int] = []
    best_weight = -1
    for iteration in range(iterations):
        rng = random.Random(seed ^ iteration)
        planes = start_planes.copy()
        active = full
        members: list[int] = []
        while active:
            high = 0
            for plane in planes[1:]:
                high |= plane
            low = active & ~high
            if low:
                pool = next(low & mask for mask in by_weight if low & mask)
                v = _kth_bit(pool, rng.randrange(pool.bit_count()))
                members.append(v)
                removed = active & (complement[v] | (1 << v))
            else:
                pool = active
                for plane in reversed(planes):
                    if pool & plane:
                        pool &= plane
                v = _kth_bit(pool, rng.randrange(pool.bit_count()))
                removed = 1 << v
            active &= ~removed
            for u in _iter_bits(removed):
                borrow = complement[u] & active
                for b, plane in enumerate(planes):
                    if not borrow:
                        break
                    planes[b] = plane ^ borrow
                    borrow &= ~plane
        total = sum(weights[v] for v in members)
        if total > best_weight:
            best_weight = total
            best_members = members
    chosen = tuple(sorted(graph.vertices[v] for v in best_members))
    return CliqueResult(chosen, best_weight, exact=False, seed=seed, iterations=iterations)


# Clique depth up to which orbit grouping is attempted.
_ORBIT_DEPTH = 5

# Largest graph any search builds, in vertices (and largest restricted code, in
# words), and the most edges exact_clique takes on; past any of them it refuses.
_MAX_VERTICES = 20_000
_MAX_EDGES = 2_000_000

# Most vertex visits (iterations times vertices) of one greedy_clique call.
# The CLI default of 100 iterations stays within it on any graph under the
# vertex cap; at the budget, the 19,683-vertex graph of n=9 takes about 50 s.
_MAX_GREEDY_VISITS = 2_000_000

# Branch-and-bound node limit of every exact search; past it the search
# escalates to the integer-programming formulation.
_NODE_CAP = 300_000

# Wall-clock limit in seconds handed to the HiGHS integer program; past it
# exact_clique refuses. The slowest known solve, optimising the unrestricted
# n=5, d=3 graph to [5,27,3], takes about 70 s, so this leaves over 8x.
_MILP_TIME_LIMIT = 600.0


class _NodeCapReached(Exception):
    """The combinatorial search exceeded its node budget."""


_SWAP = (0, 2, 1)


def _orbit_masks(
    pending: int,
    symbol_masks: Sequence[Sequence[int]],
    chosen: Sequence[tuple[int, ...]],
) -> list[int]:
    """Partition the candidates in pending into orbits of the stabilizer of the chosen words.

    The word symmetries are the coordinate permutations combined with
    per-coordinate swaps sigma of the symbols 1 and 2; the stabilizer holds
    those that fix every chosen word. It maps a column of the chosen words
    onto another exactly when the two are equal up to sigma, so each column is
    oriented like the smaller of (column, sigma column), and columns of equal
    orientation form one class. Two candidates then share an orbit exactly
    when, in every class, as many of their oriented symbols read 1 and as many
    read 2; the all-zero class, which sigma fixes, counts non-zero symbols
    instead. That equals comparing the tags min((c, s), (sigma c, sigma s)) as
    multisets. Each count is bit-sliced over pending with a ripple add, and
    every count plane refines the partition. Binary words hold no 2, so for
    them only the all-zero class swaps. Returns the classes as bitmasks.
    """
    tallies: dict[tuple, list[int]] = {}
    for i, (_, ones, twos) in enumerate(symbol_masks):
        column = tuple(word[i] for word in chosen)
        flipped = tuple(_SWAP[s] for s in column)
        if flipped == column:
            tallies.setdefault((column, 0), []).append(ones | twos)
            continue
        if flipped < column:
            column, ones, twos = flipped, twos, ones
        tallies.setdefault((column, 1), []).append(ones)
        tallies.setdefault((column, 2), []).append(twos)
    classes = [pending]
    for masks in tallies.values():
        planes: list[int] = []
        for mask in masks:
            carry = mask & pending
            for k, plane in enumerate(planes):
                if not carry:
                    break
                planes[k], carry = plane ^ carry, plane & carry
            if carry:
                planes.append(carry)
        for plane in planes:
            refined = []
            for cls in classes:
                inside = cls & plane
                if inside and inside != cls:
                    refined += (inside, cls ^ inside)
                else:
                    refined.append(cls)
            classes = refined
    return classes


def _ball_rows(graph: SearchGraph) -> list[int]:
    """Each vertex's radius-t_A ball (dist_b <= t_A) as a bitmask row, from
    one pass over the count planes; none below t_A = 1 or on a graph that is
    not word-symmetric. q = 3 reads binary rows too: no word holds a 2."""
    if not graph.word_symmetry or graph.dbmin < 3:
        return []
    radius = correction_capability(graph.dbmin)
    full = (1 << len(graph.vertices)) - 1
    balls = [0] * len(graph.vertices)
    for j, planes in _pairwise_planes([w.symbols for w in graph.vertices], 3, "b"):
        balls[j] = full & ~_at_least(full, planes, radius + 1)
    return balls


def _exact_milp(graph: SearchGraph) -> tuple[int, int]:
    """Maximum clique as an integer program over sphere exclusion constraints.

    A radius-t_A ball (_ball_rows) is pairwise below dbmin, so a clique meets
    it at most once; pair constraints cover the non-adjacent pairs no ball
    contains (all of them where there are no balls). Settles searches that
    exhaust the branch-and-bound node budget; the solved vector is
    re-verified as a clique.
    Raises BudgetExceededError past _MILP_TIME_LIMIT seconds. scipy is
    imported here because no other path needs it.
    """
    from scipy import optimize, sparse

    v_count = len(graph.vertices)
    covered = [0] * v_count
    rows: list[int] = []
    for ball in _ball_rows(graph):
        if ball.bit_count() >= 2:
            rows.append(ball)
            for v in _iter_bits(ball):
                covered[v] |= ball
    full = (1 << v_count) - 1
    for u in range(v_count):
        missing = full & ~graph.adj[u] & ~covered[u] & ~((1 << (u + 1)) - 1)
        for v in _iter_bits(missing):
            rows.append((1 << u) | (1 << v))
    if not rows:
        return sum(graph.weights), full
    data, indices, indptr = [], [], [0]
    for row in rows:
        for v in _iter_bits(row):
            data.append(1.0)
            indices.append(v)
        indptr.append(len(indices))
    matrix = sparse.csr_matrix(
        (data, indices, indptr), shape=(len(rows), v_count)
    )
    result = optimize.milp(
        c=[-float(w) for w in graph.weights],
        constraints=optimize.LinearConstraint(matrix, -math.inf, 1.0),
        integrality=[1] * v_count,
        bounds=optimize.Bounds(0.0, 1.0),
        options={"time_limit": _MILP_TIME_LIMIT},
    )
    if result.status == 1:
        raise BudgetExceededError(
            f"integer program exceeded its time limit of {_MILP_TIME_LIMIT} s"
        )
    if result.status != 0:
        raise RuntimeError(f"integer program failed with status {result.status}")
    mask = 0
    for v, x in enumerate(result.x):
        if x > 0.5:
            mask |= 1 << v
    for v in _iter_bits(mask):
        others = mask & ~(1 << v)
        if others & ~graph.adj[v]:
            raise RuntimeError("integer program returned a non-clique")
    weight = sum(graph.weights[v] for v in _iter_bits(mask))
    return weight, mask


def _branch_and_bound(
    adj: Sequence[int],
    weights: Sequence[int],
    symbols: Sequence[tuple[int, ...]] | None = None,
) -> tuple[int, int]:
    """Maximum-weight clique by bitset branch and bound; returns (weight, mask).

    One root node over every vertex, in the graph's vertex order, which
    _window_graph lays out for this search. Each node colors its candidate
    set greedily, lowest vertex first; a clique takes at most one vertex per
    color class, so the running sum of per-class maximum weights (the class
    count with unit weights) bounds each prefix of the coloring, and only
    vertices whose prefix bound exceeds the incumbent gap are branched, last
    color first. No memo of candidate sets is kept: on these graphs an exact
    repeat is rare. The incumbent starts as the empty clique, so the first
    dive from the root sets the first real one. Candidates colored one per
    class form a clique and are taken whole, not one level each.

    A branched vertex is then eliminated from its node's candidates. With
    symbols the graph must be word-symmetric, and near the root the whole
    orbit of the vertex under the full stabilizer of the growing clique goes
    with it (see _orbit_masks), which keeps every candidate set invariant
    under that stabilizer; a subtree whose node drops back to per-vertex
    elimination stays plain. The open nodes live on an explicit stack, so a
    dive is as deep as the largest clique, whatever the interpreter's
    recursion limit. Raises _NodeCapReached once _NODE_CAP nodes are spent.
    """
    unit = all(w == 1 for w in weights)
    non_adj = _non_neighbours(adj)
    node_cap = _NODE_CAP
    symbol_masks = _columns(symbols, 3) if symbols is not None else None
    best_weight = best_mask = nodes = 0
    # one frame per open node: its clique mask and weight, candidates, chosen
    # words, orbits, and the branch vertices and bounds still to try, last first
    stack: list[list] = []
    clique_mask, clique_weight, candidates = 0, 0, (1 << len(adj)) - 1
    # chosen holds the clique's words while candidates stay orbit-invariant
    chosen: tuple[tuple[int, ...], ...] | None = None if symbols is None else ()
    while True:
        nodes += 1
        if nodes > node_cap:
            raise _NodeCapReached
        classes: list[int] = []
        remaining = candidates
        while remaining:
            class_mask = 0
            pool = remaining
            while pool:
                low = pool & -pool
                class_mask |= low
                pool &= non_adj[low.bit_length() - 1]
            remaining &= ~class_mask
            classes.append(class_mask)
        if len(classes) == candidates.bit_count():
            # one candidate per class: each was adjacent to all later ones
            weight = clique_weight + sum(map(weights.__getitem__, _iter_bits(candidates)))
            if weight > best_weight:
                best_weight, best_mask = weight, clique_mask | candidates
        else:
            gap = best_weight - clique_weight
            branch_v: list[int] = []
            branch_bound: list[int] = []
            bound = 0
            for class_mask in classes:
                bound += 1 if unit else max(map(weights.__getitem__, _iter_bits(class_mask)))
                if bound > gap:
                    for v in _iter_bits(class_mask):
                        branch_v.append(v)
                        branch_bound.append(bound)
            # stabilizers are large only near the root; deeper nodes would pay
            # the grouping cost for all-singleton orbits
            orbits = (
                _orbit_masks(candidates, symbol_masks, chosen)
                if chosen is not None
                and len(chosen) < _ORBIT_DEPTH
                and candidates.bit_count() > 16
                else None
            )
            stack.append(
                [clique_mask, clique_weight, candidates, chosen, orbits, branch_v, branch_bound]
            )
        # the next node: the top frame's last branch vertex still among its
        # candidates, while its bound beats the incumbent
        while stack:
            frame = stack[-1]
            clique_mask, clique_weight, candidates, chosen, orbits, branch_v, branch_bound = frame
            if not branch_v or clique_weight + branch_bound[-1] <= best_weight:
                stack.pop()
                continue
            v = branch_v.pop()
            branch_bound.pop()
            bit = 1 << v
            if candidates & bit:
                frame[2] = candidates & ~(
                    next(c for c in orbits if c & bit) if orbits else bit
                )
                break
        if not stack:
            return best_weight, best_mask
        clique_mask |= bit
        clique_weight += weights[v]
        candidates &= adj[v]
        chosen = chosen + (symbols[v],) if orbits else None


def exact_clique(graph: SearchGraph) -> CliqueResult:
    """Maximum(-weight) clique by branch and bound. Deterministic.

    One _branch_and_bound root node in vertex order (for a window graph, the
    search order _window_graph lays out), from the empty clique.
    A word-symmetric graph lends it the vertex words for orbit elimination;
    such a graph must weight its vertices by Hamming weight alone (ValueError
    otherwise). Past _NODE_CAP nodes the search escalates to the integer
    program, with metric balls as rows where there are any, and past
    _MILP_TIME_LIMIT seconds that raises BudgetExceededError, as does a
    graph of more than _MAX_EDGES edges.
    """
    edges = graph.edge_count()
    if edges > _MAX_EDGES:
        raise BudgetExceededError(f"{edges} edges exceed the budget {_MAX_EDGES}")
    symbols = None
    if graph.word_symmetry:
        by_weight: dict[int, int] = {}
        for word, weight in zip(graph.vertices, graph.weights):
            if by_weight.setdefault(hamming_weight(word), weight) != weight:
                raise ValueError(
                    "a word-symmetric graph weights its vertices by Hamming weight alone"
                )
        symbols = [w.symbols for w in graph.vertices]
    try:
        weight, mask = _branch_and_bound(graph.adj, graph.weights, symbols)
    except _NodeCapReached:
        weight, mask = _exact_milp(graph)
    members = tuple(sorted(graph.vertices[v] for v in _iter_bits(mask)))
    return CliqueResult(members, weight, exact=True)


_OPTIMAL_BINARY: dict[tuple[int, int], Code] = {}


def optimal_binary_code(length: int, min_dist: int) -> Code:
    """A largest binary code of this length with minimum Hamming distance >= min_dist.

    Distances up to 2 have closed forms (the full space and the even-weight
    code); beyond that a clique search over the binary Hamming graph settles
    it. Results are memoized per (length, distance).
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if min_dist < 1:
        raise ValueError(f"distance must be >= 1, got {min_dist}")
    key = (length, min_dist)
    if key in _OPTIMAL_BINARY:
        return _OPTIMAL_BINARY[key]
    if length == 0 or min_dist > length:
        code = zero_code(length)
    elif min_dist == 1:
        rows = [Word(2, tuple(1 if j == i else 0 for j in range(length))) for i in range(length)]
        code = Code.from_generator(rows)
    elif min_dist == 2:
        code = single_parity_check(length) if length >= 2 else zero_code(1)
    else:
        graph = _binary_hamming_graph(length, min_dist)
        result = exact_clique(graph)
        code = Code(2, length, frozenset(result.members))
    _OPTIMAL_BINARY[key] = code
    return code


def optimal_binary_code_size(length: int, min_dist: int) -> int:
    """Size of the best binary code of this length and minimum distance; where
    optimal_binary_code has a closed form, the size needs no code built."""
    if length >= 0 and (1 <= min_dist <= 2 or min_dist > length):
        return 2 ** max(length - min_dist + 1, 0)
    return optimal_binary_code(length, min_dist).size


def _binary_hamming_graph(n: int, min_dist: int) -> SearchGraph:
    return _window_graph(2, n, min_dist, 0, n, lambda _: 1)


def search_code(
    n: int,
    dbmin: int,
    mode: str,
    *,
    wmin: int = 0,
    wmax: int | None = None,
    algo: str = "exact",
    seed: int = 0,
    iterations: int = 100,
) -> tuple[Code, CliqueResult]:
    """Run a search and materialize the winning clique as a ternary code.

    Unrestricted cliques are codes already; restricted cliques become codes by
    attaching an optimal inner code to every outer codeword. The materialized
    code is re-verified against dbmin before being returned. Lengths and
    distances below 1 are refused with ValueError.
    """
    if mode not in ("unrestricted", "restricted"):
        raise ValueError(f"unknown mode {mode!r}")
    if algo not in ("exact", "greedy"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    correction_capability(dbmin)  # refuses dbmin < 1
    if mode == "unrestricted":
        graph = build_unrestricted_graph(n, dbmin, wmin, wmax)
    else:
        graph = build_restricted_graph(n, dbmin, wmin, wmax)
    if algo == "exact":
        # any clique weighs at most the maximum one, so one greedy pass over
        # a restricted graph of ample total weight may already pass the cap
        if mode == "restricted" and sum(graph.weights) > _MAX_VERTICES:
            if greedy_clique(graph, 0, 1).total_weight > _MAX_VERTICES:
                raise BudgetExceededError(f"the code exceeds the cap of {_MAX_VERTICES} words")
        result = exact_clique(graph)
    else:
        result = greedy_clique(graph, seed, iterations)
    if mode == "unrestricted":
        code = Code(3, n, frozenset(result.members))
    else:
        if result.total_weight > _MAX_VERTICES:  # the weight may outgrow str()
            raise BudgetExceededError(f"the code exceeds the cap of {_MAX_VERTICES} words")
        inner_dist = (dbmin + 1) // 2
        outer = Code(2, n, frozenset(result.members))
        needed = {sum(w.symbols) for w in result.members}
        plan = ConstructionPlan(
            outer,
            {w: optimal_binary_code(w, inner_dist) for w in needed},
            dbmin,
        )
        code = build_code(plan)
        if code.size != result.total_weight:
            raise RuntimeError(
                f"materialized {code.size} codewords, clique weight {result.total_weight}"
            )
    if code.size >= 2 and min_dist_b(code) < dbmin:
        raise RuntimeError("materialized code violates the distance target")
    return code, result
