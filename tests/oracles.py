"""Independent reference implementations used only to check library results.

Everything here recomputes values from first principles (joint distributions,
exhaustive enumeration) without reusing the code paths under test.
"""

from __future__ import annotations

import math
import random
from itertools import product

from ternary_ecc.channel import ChannelSpec, split_seed, transmit
from ternary_ecc.codec import (
    BlockDecodeError,
    BlockTrace,
    DecodeTrace,
    MessageStream,
    StreamCodec,
)
from ternary_ecc.core import (
    Code,
    ErasureDecodeError,
    Word,
    hamming_distance,
    hamming_weight,
)
from ternary_ecc.decode import (
    DECODER_KINDS,
    DecodeResult,
    SimReport,
    decode_da,
    decode_ml,
)
from ternary_ecc.metric import INF, dist_a, dist_b, dist_ml
from ternary_ecc.search import CliqueResult, SearchGraph


def joint_mutual_information(
    matrix: list[list[float]], dist: list[float], log_base: float
) -> float:
    """I(X;Y) summed directly over the joint distribution."""
    q_in = len(dist)
    q_out = len(matrix[0])
    out = [sum(dist[x] * matrix[x][y] for x in range(q_in)) for y in range(q_out)]
    total = 0.0
    for x in range(q_in):
        for y in range(q_out):
            joint = dist[x] * matrix[x][y]
            if joint > 0.0:
                total += joint * math.log(matrix[x][y] / out[y], log_base)
    return total


def ternary_matrix(p: float) -> list[list[float]]:
    return [
        [1 - p, p / 2, p / 2],
        [p / 2, 1 - p / 2, 0.0],
        [p / 2, 0.0, 1 - p / 2],
    ]


def ternary_mi(p: float, p0: float) -> float:
    """Mutual information in trits for the symmetric-in-1-2 input law."""
    return joint_mutual_information(
        ternary_matrix(p), [p0, (1 - p0) / 2, (1 - p0) / 2], 3.0
    )


def qary_matrix(q: int, p: float) -> list[list[float]]:
    """Transition rows of the q-ary channel: 0 -> j and j -> 0 each with p/(q-1)."""
    r = p / (q - 1)
    rows = [[1 - p] + [r] * (q - 1)]
    for x in range(1, q):
        rows.append([r if y == 0 else (1 - r if y == x else 0.0) for y in range(q)])
    return rows


def qary_mi(q: int, p: float, p0: float) -> float:
    """Mutual information in base-q units for the law (p0, (1-p0)/(q-1), ...)."""
    rest = (1 - p0) / (q - 1)
    return joint_mutual_information(qary_matrix(q, p), [p0] + [rest] * (q - 1), q)


def maximize_unimodal(f, lo: float, hi: float, grid: int = 200, tol: float = 1e-10):
    """Grid scan followed by golden-section refinement; returns (argmax, max)."""
    xs = [lo + i * (hi - lo) / grid for i in range(grid + 1)]
    best_i = max(range(len(xs)), key=lambda i: f(xs[i]))
    a = xs[max(0, best_i - 1)]
    b = xs[min(len(xs) - 1, best_i + 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    mid = (a + b) / 2
    return mid, f(mid)


def brute_dist_b(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Per-symbol dist_b computed without the library."""
    total = 0
    for a, b in zip(u, v):
        if a != b:
            total += 2 if (a != 0 and b != 0) else 1
    return total


def brute_dist_a(u: tuple[int, ...], v: tuple[int, ...]) -> float:
    total = 0
    for a, b in zip(u, v):
        if a != b:
            if a != 0 and b != 0:
                return math.inf
            total += 1
    return total


def pairwise_dist_b_masks(words, lo: int, hi: int | None = None) -> tuple[int, ...]:
    """Bitmask rows of lo <= dist_b(u, v) <= hi, one metric.dist_b call per pair."""
    masks = []
    for u in words:
        mask = 0
        for j, v in enumerate(words):
            d = dist_b(u, v)
            if d >= lo and (hi is None or d <= hi):
                mask |= 1 << j
        masks.append(mask)
    return tuple(masks)


def min_dist_b_reference(code: Code) -> int:
    """metric.min_dist_b as it was before the codebook scan: one dist_b call
    per pair of sorted codewords."""
    words = sorted(code.words)
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    best = 2 * code.n
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            d = dist_b(u, v)
            if d < best:
                best = d
                if best == 1:
                    break
        if best == 1:
            break
    return best


def min_hamming_distance_reference(words) -> int:
    """core.min_hamming_distance as it was before the codebook scan: one
    hamming_distance call per pair of sorted words."""
    ws = sorted(words)
    if len(ws) < 2:
        raise ValueError("minimum distance needs at least two words")
    best = len(ws[0])
    for i, u in enumerate(ws):
        for v in ws[i + 1 :]:
            d = hamming_distance(u, v)
            if d < best:
                best = d
                if best == 1:
                    return 1
    return best


def brute_sphere_volume(n: int, center: tuple[int, ...], r: int) -> int:
    """Count ternary words within dist_b r of the center by full enumeration."""
    return sum(
        1 for v in product(range(3), repeat=n) if brute_dist_b(center, v) <= r
    )


def sphere_volume_min_reference(n: int, r: int) -> int:
    """bounds.sphere_volume_min as a double sum: words at distance d from a
    maximum-weight center move e2 coordinates to the other non-zero symbol
    and zero d - 2*e2 more."""
    return sum(
        math.comb(n, e2) * math.comb(n - e2, d - 2 * e2)
        for d in range(min(r, 2 * n) + 1)
        for e2 in range(min(d // 2, n) + 1)
    )


def word_prob(x: tuple[int, ...], y: tuple[int, ...], p: float) -> float:
    """Channel transition probability of a whole ternary word."""
    matrix = ternary_matrix(p)
    prob = 1.0
    for a, b in zip(x, y):
        prob *= matrix[a][b]
    return prob


def brute_max_clique(adjacency: list[list[bool]]) -> int:
    """Maximum clique size by subset enumeration; tiny graphs only."""
    n = len(adjacency)
    best = 0
    for mask in range(1 << n):
        members = [v for v in range(n) if (mask >> v) & 1]
        if len(members) <= best:
            continue
        if all(
            adjacency[a][b] for i, a in enumerate(members) for b in members[i + 1 :]
        ):
            best = len(members)
    return best


def brute_max_weight_clique(adjacency: list[list[bool]], weights: list[int]) -> int:
    n = len(adjacency)
    best = 0
    for mask in range(1 << n):
        members = [v for v in range(n) if (mask >> v) & 1]
        total = sum(weights[v] for v in members)
        if total <= best:
            continue
        if all(
            adjacency[a][b] for i, a in enumerate(members) for b in members[i + 1 :]
        ):
            best = total
    return best


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def greedy_clique_reference(
    graph: SearchGraph, seed: int, iterations: int
) -> CliqueResult:
    """search.greedy_clique as it was before bit-sliced degree counters.

    Every step recounts the complement degree of each active vertex, O(V^2)
    popcounts per pass; the library version must draw and return the same.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    v_count = len(graph.vertices)
    full = (1 << v_count) - 1
    complement = [
        full & ~graph.adj[v] & ~(1 << v) for v in range(v_count)
    ]
    weights = graph.weights
    best_members: list[int] = []
    best_weight = -1
    for iteration in range(iterations):
        rng = random.Random(seed ^ iteration)
        active = full
        members: list[int] = []
        while active:
            degrees = {v: (complement[v] & active).bit_count() for v in _iter_bits(active)}
            low = [v for v, d in degrees.items() if d <= 1]
            if low:
                top = max(weights[v] for v in low)
                pool = [v for v in low if weights[v] == top]
                v = rng.choice(pool)
                members.append(v)
                active &= ~(complement[v] | (1 << v))
            else:
                top = max(degrees.values())
                pool = [v for v, d in degrees.items() if d == top]
                v = rng.choice(pool)
                active &= ~(1 << v)
        total = sum(weights[v] for v in members)
        if total > best_weight:
            best_weight = total
            best_members = members
    chosen = tuple(sorted(graph.vertices[v] for v in best_members))
    return CliqueResult(chosen, best_weight, exact=False, seed=seed, iterations=iterations)


def orbit_classes_reference(pending: int, words, chosen) -> list[int]:
    """Candidates in pending grouped by their multiset of canonical column tags.

    With c column i of the chosen words and s the candidate's symbol there,
    the tag is min((c, s), (sigma c, sigma s)), where sigma swaps 1 and 2 in
    every entry. Two candidates share an orbit of the stabilizer of the
    chosen words exactly when their sorted tag lists are equal. Returns one
    bitmask per class.
    """
    swap = (0, 2, 1)
    n = len(words[0]) if words else 0
    columns = [tuple(word[i] for word in chosen) for i in range(n)]
    flipped = [tuple(swap[s] for s in column) for column in columns]
    groups: dict[tuple, int] = {}
    for v in _iter_bits(pending):
        key = tuple(sorted(
            min((columns[i], words[v][i]), (flipped[i], swap[words[v][i]]))
            for i in range(n)
        ))
        groups[key] = groups.get(key, 0) | 1 << v
    return list(groups.values())


def scan_reference(code: Code, measure) -> DecodeResult:
    """decode's codebook scan as it was before bit slicing: one measure call
    per codeword in sorted order, keeping every minimizer."""
    best = INF
    minimizers: list[Word] = []
    for candidate in sorted(code.words):
        d = measure(candidate)
        if d == INF:
            continue
        if d < best:
            best = d
            minimizers = [candidate]
        elif d == best:
            minimizers.append(candidate)
    if not minimizers:
        return DecodeResult(None, frozenset(), INF)
    return DecodeResult(minimizers[0], frozenset(minimizers), best)


def decode_da_reference(code: Code, received: Word) -> DecodeResult:
    return scan_reference(code, lambda w: dist_a(w, received))


def decode_ml_reference(code: Code, received: Word, p: float) -> DecodeResult:
    return scan_reference(code, lambda w: dist_ml(w, received, p))


def simulate_reference(
    code: Code,
    spec: ChannelSpec,
    decoder: str,
    trials: int,
    seed: int,
) -> SimReport:
    """decode.simulate as it was before decisions were kept: every trial
    samples through transmit and runs a full decoder scan."""
    if decoder not in DECODER_KINDS:
        raise ValueError(f"unknown decoder {decoder!r}, expected one of {DECODER_KINDS}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if code.q != spec.q:
        raise ValueError("code and channel alphabets differ")
    words = code.sorted_words()
    errors = 0
    undecodable = 0
    for t in range(trials):
        rng = random.Random(split_seed(seed, t))
        sent = words[rng.randrange(len(words))]
        received = transmit(spec, sent, rng)
        if decoder == "da":
            result = decode_da(code, received)
        else:
            result = decode_ml(code, received, spec.p)
        if result.undecodable:
            undecodable += 1
        elif result.chosen != sent:
            errors += 1
    return SimReport(trials, errors, undecodable, spec.p, decoder, seed)


def nearest_reference(code: Code, received: Word) -> Word:
    """Code.nearest as a linear scan; the first closest word in sorted order wins."""
    best_word = None
    best = code.n + 1
    for w in sorted(code.words):
        d = hamming_distance(w, received)
        if d < best:
            best, best_word = d, w
    return best_word


def erasure_decode_reference(code: Code, pattern) -> Word:
    """Code.erasure_decode as a linear scan over the sorted codebook."""
    matches = [
        w
        for w in sorted(code.words)
        if all(p is None or p == s for p, s in zip(pattern, w.symbols))
    ]
    if not matches:
        raise ErasureDecodeError("no codeword consistent with the unerased positions")
    if len(matches) > 1:
        raise ErasureDecodeError(
            f"{len(matches)} codewords consistent with the unerased positions"
        )
    return matches[0]


def support_reference(mask: Word) -> tuple[int, ...]:
    """0-based positions of the ones of a binary word."""
    if mask.q != 2:
        raise ValueError("a mask is a binary word")
    return tuple(i for i, s in enumerate(mask.symbols) if s == 1)


def scatter_reference(mask: Word, payload: Word) -> Word:
    """The payload symbols, in order, on the ones of a binary mask; zeros elsewhere."""
    if len(payload) != len(support_reference(mask)):
        raise ValueError("payload length differs from the mask weight")
    rest = iter(payload.symbols)
    return Word(payload.q, tuple(next(rest) if m else 0 for m in mask.symbols))


def gather_reference(mask: Word, word: Word) -> Word:
    """The symbols of word on the ones of a binary mask, in order."""
    if len(word) != len(mask):
        raise ValueError("word length differs from the mask length")
    return Word(word.q, tuple(s for s, m in zip(word.symbols, mask.symbols) if m))


def lift_reference(symbols, q: int) -> Word:
    """Each symbol of the (q-1)-ary alphabet moved up by one, into 1..q-1."""
    if not all(0 <= s <= q - 2 for s in symbols):
        raise ValueError(f"a symbol of {symbols} lies outside 0..{q - 2}")
    return Word(q, tuple(s + 1 for s in symbols))


def lower_reference(word: Word) -> tuple:
    """Inverse of lift_reference, with each zero read as an erasure (None)."""
    return tuple(None if s == 0 else s - 1 for s in word.symbols)


def encode_block_reference(codec: StreamCodec, stream: MessageStream) -> BlockTrace:
    """StreamCodec.encode_block before per-plan block tables: the message maps
    pick both codewords, then the lifted inner word is scattered over the
    outer word's support."""
    u1 = stream.read(codec._outer.k)
    x1 = codec._outer.encode(u1)
    inner = codec._inner[hamming_weight(x1)]
    u2 = stream.read(inner.k)
    x2 = inner.encode(u2)
    x = scatter_reference(x1, lift_reference(x2.symbols, 3))
    return BlockTrace(u1, x1, u2, x2, x)


def decode_block_trace_reference(codec: StreamCodec, received: Word) -> DecodeTrace:
    """StreamCodec.decode_block_trace before per-plan block tables: every
    intermediate value goes through a validated Word and the reference
    support mappings above."""
    if received.q != 3 or len(received) != codec.plan.outer.n:
        raise ValueError("received word does not match the plan parameters")
    y1 = Word(2, tuple(1 if s else 0 for s in received.symbols))
    x1_hat = codec._outer.code.nearest(y1)
    u1_hat = codec._outer.decode(x1_hat)
    weight = hamming_weight(x1_hat)
    inner = codec._inner.get(weight)
    if inner is None:
        raise BlockDecodeError(
            f"outer decode landed on weight {weight}, which no inner code covers"
        )
    # keep received symbols on the support of the outer estimate, then undo the lift
    masked = Word(
        3, tuple(s if m else 0 for s, m in zip(received.symbols, x1_hat.symbols))
    )
    y2 = lower_reference(gather_reference(x1_hat, masked))
    x2_hat = inner.code.erasure_decode(y2)
    u2_hat = inner.decode(x2_hat)
    x_hat = scatter_reference(x1_hat, lift_reference(x2_hat.symbols, 3))
    return DecodeTrace(y1, x1_hat, u1_hat, y2, x2_hat, u2_hat, x_hat)
