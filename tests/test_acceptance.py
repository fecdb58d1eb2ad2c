"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criteria that need the exact clique searches reuse the
session-scoped fixtures, so the suite computes each search once.
"""

from __future__ import annotations

import json
import math
import random
import time
from itertools import product

import pytest

from ternary_ecc.channel import ChannelSpec, capacity
from ternary_ecc.codec import MessageStream, StreamCodec
from ternary_ecc.construct import (
    ConstructionPlan,
    build_code,
    construction_size,
    lift_onto_support,
    lower_from_support,
)
from ternary_ecc.core import (
    Code,
    WeightEnumerator,
    Word,
    all_words,
    hamming_weight,
    weight_enumerator,
)
from ternary_ecc.bounds import (
    sphere_packing_bound,
    sphere_volume_exact,
    sphere_volume_min,
)
from ternary_ecc.decode import decode_da, decode_ml, simulate
from ternary_ecc.library import (
    extended_hamming_8_4_4,
    repetition,
    single_parity_check,
    zero_code,
)
from ternary_ecc.metric import dist_b, min_dist_b, pmax

from oracles import (
    brute_sphere_volume,
    maximize_unimodal,
    scatter_reference,
    support_reference,
    ternary_mi,
    word_prob,
)


def report(number: int, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert elapsed < budget


def single_error_corruptions(x: Word):
    for i, s in enumerate(x.symbols):
        if s == 0:
            for repl in (1, 2):
                yield Word(3, x.symbols[:i] + (repl,) + x.symbols[i + 1 :])
        else:
            yield Word(3, x.symbols[:i] + (0,) + x.symbols[i + 1 :])


def test_criterion_1_capacity():
    started = time.perf_counter()
    noiseless = capacity(ChannelSpec(3, 0.0))
    assert abs(noiseless.capacity_trits - 1.0) < 1e-9
    assert abs(noiseless.p0_star - 1 / 3) < 1e-9
    for i in range(1, 13):
        p = 0.05 * i
        closed = capacity(ChannelSpec(3, p)).capacity_trits
        _, numeric = maximize_unimodal(lambda p0: ternary_mi(p, p0), 0.0, 1.0)
        assert abs(closed - numeric) < 1e-6
    p = 0.2
    symmetric = 1 + (1 - p) * math.log(1 - p, 3) + p * math.log(p / 2, 3)
    assert capacity(ChannelSpec(3, p)).capacity_trits > symmetric
    report(1, time.perf_counter() - started, 1.0)


def test_criterion_2_decoding_threshold():
    started = time.perf_counter()
    assert pmax(1) == 2 / 3
    assert pmax(2) == 2 / 3
    assert abs(pmax(3) - (5 - math.sqrt(5)) / 5) < 1e-9
    assert 0.08 < pmax(100) < 0.11

    n = 4
    p = 0.9 * pmax(n)
    space = list(all_words(3, n))
    rng = random.Random(2024)
    for _ in range(50):
        code = Code.from_words(rng.sample(space, 8))
        for y in space:
            da = decode_da(code, y)
            ml = decode_ml(code, y, p)
            if len(da.minimizers) == 1 and len(ml.minimizers) == 1:
                assert da.chosen == ml.chosen

    for n_odd in (3, 5, 7):
        p_bad = 0.6
        assert p_bad > pmax(n_odd)
        m = (n_odd - 1) // 2
        zeros = Word(3, (0,) * n_odd)
        ones = Word(3, (1,) * n_odd)
        y = Word(3, (0,) * (m + 1) + (1,) * m)
        code = Code.from_words([zeros, ones])
        assert word_prob(zeros.symbols, y.symbols, p_bad) <= word_prob(
            ones.symbols, y.symbols, p_bad
        )
        assert decode_da(code, y).chosen == zeros
        assert decode_ml(code, y, p_bad).chosen == ones
    report(2, time.perf_counter() - started, 30.0)


def test_criterion_3_sphere_packing():
    started = time.perf_counter()
    assert sphere_packing_bound(8, 2) == 6561
    assert sphere_packing_bound(8, 4) == 729
    for n in range(0, 11):
        for r in range(n + 1):
            assert sphere_volume_min(n, r) == sphere_volume_exact(n, n, r)
    for n in range(1, 6):
        for w in range(n + 1):
            center = (1,) * w + (0,) * (n - w)
            for r in range(n + 1):
                expected = brute_sphere_volume(n, center, r)
                assert sphere_volume_exact(n, w, r) == expected
                if w == n:
                    assert sphere_volume_min(n, r) == expected
    report(3, time.perf_counter() - started, 5.0)


def test_criterion_4_construction(plan_5_21_3, code_5_21_3):
    started = time.perf_counter()
    assert code_5_21_3.size == 21
    assert min_dist_b(code_5_21_3) == 3

    even_counts = tuple(
        math.comb(8, d) if d % 2 == 0 else 0 for d in range(9)
    )
    assert construction_size(
        WeightEnumerator(8, even_counts), {d: 2**d for d in range(0, 9, 2)}
    ) == 3281

    we = weight_enumerator(extended_hamming_8_4_4())
    assert construction_size(we, {0: 1, 4: 8, 8: 128}) == 241
    plan_241 = ConstructionPlan(
        extended_hamming_8_4_4(),
        {0: zero_code(0), 4: single_parity_check(4), 8: single_parity_check(8)},
        dbmin=4,
    )
    built_241 = build_code(plan_241)
    assert built_241.size == 241
    assert min_dist_b(built_241) >= 4

    assert construction_size(
        weight_enumerator(repetition(8)), {0: 1, 8: 16}
    ) == 17
    plan_17 = ConstructionPlan(
        repetition(8), {0: zero_code(0), 8: extended_hamming_8_4_4()}, dbmin=8
    )
    built_17 = build_code(plan_17)
    assert built_17.size == 17
    assert min_dist_b(built_17) >= 8
    report(4, time.perf_counter() - started, 5.0)


def test_criterion_5_mapping_properties():
    started = time.perf_counter()
    # the payload 201 has a zero, which only the reference scatter places
    mask = Word.from_string("10011000", 2)
    assert str(scatter_reference(mask, Word.from_string("201", 3))) == "20001000"
    # 11010?1?: the erasures at positions 5 and 7 stay off the support
    lifted = lift_onto_support(8, (0, 1, 2, 3, 4, 6), (1, 1, 0, 1, 0, 1), 3)
    assert str(lifted) == "22121020"
    assert lower_from_support(Word.from_string("22121020", 3).symbols, range(8)) == (
        1, 1, 0, 1, 0, None, 1, None
    )

    rng = random.Random(55)
    for q in (3, 4, 5):
        for _ in range(10_000):
            n = rng.randrange(0, 13)
            u = tuple(rng.randrange(q - 1) for _ in range(n))
            v = tuple(rng.randrange(q - 1) for _ in range(n))
            lifted_u = lift_onto_support(n, range(n), u, q)
            lifted_v = lift_onto_support(n, range(n), v, q)
            mismatches = sum(1 for a, b in zip(u, v) if a != b)
            assert dist_b(lifted_u, lifted_v) == 2 * mismatches
        for _ in range(10_000):
            n = rng.randrange(1, 13)
            support = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            k = hamming_weight(support)
            a = Word(q, tuple(rng.randrange(q) for _ in range(k)))
            b = Word(q, tuple(rng.randrange(q) for _ in range(k)))
            assert dist_b(
                scatter_reference(support, a), scatter_reference(support, b)
            ) == dist_b(a, b)
        for _ in range(10_000):
            n = rng.randrange(1, 13)
            u = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            v = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            a = Word(q, tuple(rng.randrange(1, q) for _ in range(hamming_weight(u))))
            b = Word(q, tuple(rng.randrange(1, q) for _ in range(hamming_weight(v))))
            lifted_a = lift_onto_support(n, support_reference(u), [s - 1 for s in a], q)
            lifted_b = lift_onto_support(n, support_reference(v), [s - 1 for s in b], q)
            assert dist_b(lifted_a, lifted_b) >= dist_b(u, v)
    report(5, time.perf_counter() - started, 5.0)


def test_criterion_6_codec_guarantee(plan_5_21_3):
    started = time.perf_counter()
    codec = StreamCodec(plan_5_21_3)
    for u1_bits in product((0, 1), repeat=2):
        x1 = codec.outer_codeword(u1_bits)
        k2 = codec.inner_message_len(hamming_weight(x1))
        for u2_bits in product((0, 1), repeat=k2):
            trace = codec.encode_block(MessageStream(u1_bits + u2_bits))
            assert codec.decode_block(trace.x) == (u1_bits, u2_bits)
            for y in single_error_corruptions(trace.x):
                assert codec.decode_block(y) == (u1_bits, u2_bits)

    mini = StreamCodec(
        ConstructionPlan(
            Code.from_strings(2, ["1100", "0011"]),
            {2: repetition(2)},
            dbmin=4,
        )
    )
    trace = mini.decode_block_trace(Word.from_string("0200", 3))
    assert str(trace.x1_hat) == "1100"
    assert trace.y2_bar == (None, 1)
    assert str(trace.x2_hat) == "11"
    assert str(trace.x_hat) == "2200"
    report(6, time.perf_counter() - started, 10.0)


def test_criterion_7_search_golden(
    unrestricted_optima_n5, restricted_optima, code_5_27_3
):
    unrestricted, t_unrestricted = unrestricted_optima_n5
    restricted, t_restricted = restricted_optima
    started = time.perf_counter()
    assert unrestricted[2].total_weight == 122
    assert unrestricted[3].total_weight == 27
    assert unrestricted[4].total_weight == 17
    assert unrestricted[5].total_weight == 7
    code53, result53 = restricted[(5, 3)]
    assert result53.total_weight == 21
    assert code53.size == 21 and min_dist_b(code53) >= 3
    code77, result77 = restricted[(7, 7)]
    assert result77.total_weight == 9
    assert code77.size == 9 and min_dist_b(code77) >= 7
    assert code_5_27_3.size == 27
    assert min_dist_b(code_5_27_3) == 3
    elapsed = (time.perf_counter() - started) + t_unrestricted + t_restricted
    report(7, elapsed, 600.0)


def test_criterion_8_decoder_guarantees(code_5_27_3):
    started = time.perf_counter()
    for x in code_5_27_3.sorted_words():
        for y in single_error_corruptions(x):
            result = decode_da(code_5_27_3, y)
            assert result.minimizers == frozenset({x})

    spec = ChannelSpec(3, 0.0)
    clean = simulate(code_5_27_3, spec, "da", 2000, seed=77)
    assert clean.word_errors == 0 and clean.undecodable == 0

    noisy_spec = ChannelSpec(3, 0.1)
    first = simulate(code_5_27_3, noisy_spec, "da", 2000, seed=99)
    second = simulate(code_5_27_3, noisy_spec, "da", 2000, seed=99)
    assert first == second
    payload = lambda r: json.dumps(
        {
            "trials": r.trials,
            "word_errors": r.word_errors,
            "undecodable": r.undecodable,
            "p": r.p,
            "decoder": r.decoder,
            "seed": r.seed,
        },
        sort_keys=True,
    )
    assert payload(first) == payload(second)
    report(8, time.perf_counter() - started, 60.0)


def test_criterion_9_declared_out_of_scope():
    # longer block lengths and the non-linear code census stay out of the
    # golden set: they need external weight enumerators and code tables. The
    # size formula still accepts any user-supplied weight enumerator.
    started = time.perf_counter()
    counts = [0] * 17
    counts[0] = counts[16] = 1
    counts[6] = 448
    counts[8] = 870
    counts[10] = 448
    we = WeightEnumerator(16, tuple(counts))
    sizes = {0: 1, 6: 32, 8: 128, 10: 512, 16: 32768}
    expected = 1 * 1 + 448 * 32 + 870 * 128 + 448 * 512 + 1 * 32768
    assert construction_size(we, sizes) == expected
    report(9, time.perf_counter() - started, 5.0)
