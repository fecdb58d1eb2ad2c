from __future__ import annotations

import math
import random
from itertools import product

import pytest

import ternary_ecc.bounds
from ternary_ecc.channel import ChannelSpec, transition_prob
from ternary_ecc.core import Word, all_words, hamming_distance, hamming_weight
from ternary_ecc.library import ternary_5_27_3
from ternary_ecc.metric import (
    INF,
    agreement_profile,
    correction_capability,
    dist_a,
    dist_b,
    dist_ml,
    likelihood_bounds,
    min_dist_b,
    pmax,
)

from oracles import brute_dist_a, word_prob


def w3(text: str) -> Word:
    return Word.from_string(text, 3)


class TestAgreementProfile:
    def test_examples(self):
        p = agreement_profile(w3("1100"), w3("2200"))
        assert (p.s0, p.s1, p.s2, p.s3) == (2, 0, 0, 2)
        u = w3("0120")
        p = agreement_profile(u, u)
        assert (p.s0, p.s1, p.s2, p.s3) == (2, 2, 0, 0)
        p = agreement_profile(w3("0200"), w3("1100"))
        assert (p.s0, p.s1, p.s2, p.s3) == (2, 0, 1, 1)

    def test_counts_cover_length(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(0, 8)
            u = Word(3, tuple(rng.randrange(3) for _ in range(n)))
            v = Word(3, tuple(rng.randrange(3) for _ in range(n)))
            assert agreement_profile(u, v).n == n


class TestDistMl:
    def test_forbidden_transition_is_infinite(self):
        assert dist_ml(w3("01"), w3("02"), 0.3) == INF

    def test_self_distance_is_not_zero(self):
        value = dist_ml(w3("00"), w3("00"), 0.5)
        assert value == pytest.approx(-2 * math.log(0.5))
        assert value > 0

    def test_exp_recovers_transition_product(self):
        rng = random.Random(5)
        spec = ChannelSpec(3, 0.3)
        for _ in range(300):
            n = rng.randrange(1, 7)
            x = Word(3, tuple(rng.randrange(3) for _ in range(n)))
            # y reachable from x: never flip between the two non-zero symbols
            y_syms = []
            for s in x.symbols:
                if s == 0:
                    y_syms.append(rng.choice([0, 1, 2]))
                else:
                    y_syms.append(rng.choice([0, s]))
            y = Word(3, tuple(y_syms))
            product_prob = 1.0
            for a, b in zip(x.symbols, y.symbols):
                product_prob *= transition_prob(spec, a, b)
            assert math.exp(-dist_ml(x, y, 0.3)) == pytest.approx(product_prob)

    def test_noiseless_semantics(self):
        assert dist_ml(w3("012"), w3("012"), 0.0) == 0.0
        assert dist_ml(w3("012"), w3("011"), 0.0) == INF

    def test_smallest_positive_p_is_noiseless(self):
        # 5e-324 / 2 underflows to 0, where log(p/2) has no value
        assert dist_ml(w3("00"), w3("10"), 5e-324) == INF
        assert dist_ml(w3("012"), w3("012"), 5e-324) == 0.0
        assert dist_ml(w3("01"), w3("02"), 5e-324) == INF
        assert dist_ml(w3("00"), w3("10"), 1e-323) < INF

    def test_domain(self):
        with pytest.raises(ValueError):
            dist_ml(w3("0"), w3("0"), 2 / 3)
        with pytest.raises(ValueError):
            dist_ml(w3("0"), w3("0"), -0.1)


class TestDistA:
    def test_examples(self):
        assert dist_a(w3("1100"), w3("0100")) == 1
        assert dist_a(w3("1100"), w3("1200")) == INF
        assert dist_a(w3("2200"), w3("0200")) == 1

    def test_triangle_inequality_fails(self):
        one, two, zero = w3("1"), w3("2"), w3("0")
        assert dist_a(one, two) == INF
        assert dist_a(one, zero) + dist_a(zero, two) == 2

    def test_matches_bruteforce(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randrange(0, 7)
            u = tuple(rng.randrange(3) for _ in range(n))
            v = tuple(rng.randrange(3) for _ in range(n))
            assert dist_a(Word(3, u), Word(3, v)) == brute_dist_a(u, v)


class TestDistB:
    def test_examples(self):
        assert dist_b(w3("1100"), w3("2200")) == 4
        assert dist_b(w3("0200"), w3("1100")) == 3

    def test_binary_words_reduce_to_hamming(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randrange(0, 9)
            u = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            v = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            assert dist_b(u, v) == hamming_distance(u, v)

    def test_closed_form_equals_min_over_midpoints(self):
        # two-hop definition checked exhaustively at short lengths
        for n in (1, 2, 3):
            words = list(product(range(3), repeat=n))
            for u in words:
                for v in words:
                    via = min(
                        brute_dist_a(u, mid) + brute_dist_a(mid, v) for mid in words
                    )
                    assert dist_b(Word(3, u), Word(3, v)) == via

    def test_metric_axioms(self):
        rng = random.Random(13)
        for q in (3, 4, 5):
            for _ in range(300):
                n = rng.randrange(1, 8)
                a, b, c = (
                    Word(q, tuple(rng.randrange(q) for _ in range(n)))
                    for _ in range(3)
                )
                assert dist_b(a, b) == dist_b(b, a)
                assert (dist_b(a, b) == 0) == (a == b)
                assert dist_b(a, c) <= dist_b(a, b) + dist_b(b, c)


class TestMinDistB:
    def test_optimal_code(self):
        assert min_dist_b(ternary_5_27_3()) == 3

    def test_two_antipodal_words(self):
        from ternary_ecc.core import Code

        code = Code.from_strings(3, ["00000", "11111"])
        assert min_dist_b(code) == 5

    def test_requires_two_words(self):
        from ternary_ecc.core import Code

        with pytest.raises(ValueError):
            min_dist_b(Code.from_strings(3, ["012"]))

    def test_cache_consistency(self):
        code = ternary_5_27_3()
        first = min_dist_b(code)
        assert min_dist_b(code) == first


class TestCorrectionCapability:
    def test_values(self):
        assert correction_capability(3) == 1
        assert correction_capability(1) == 0
        assert correction_capability(8) == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            correction_capability(0)

    def test_is_the_bounds_function(self):
        assert correction_capability is ternary_ecc.bounds.correction_capability


class TestPmax:
    def test_short_lengths_hit_two_thirds(self):
        assert pmax(1) == 2 / 3
        assert pmax(2) == 2 / 3

    def test_length_three_closed_form(self):
        assert pmax(3) == pytest.approx((5 - math.sqrt(5)) / 5, abs=1e-9)

    def test_length_hundred_band(self):
        assert 0.08 < pmax(100) < 0.11

    def test_monotone_in_length(self):
        values = [pmax(n) for n in range(1, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_root_satisfies_equality(self):
        for n in (3, 5, 10, 31):
            p = pmax(n)
            m = (n - 1) // 2
            assert (p / 2) / (1 - p) == pytest.approx(
                ((1 - p) / (1 - p / 2)) ** m, rel=1e-6
            )


class TestLikelihoodBounds:
    def test_sandwich_exhaustive(self):
        rng = random.Random(17)
        n, p = 4, 0.3
        words = [Word(3, s) for s in product(range(3), repeat=n)]
        for _ in range(6):
            y = words[rng.randrange(len(words))]
            w_y = hamming_weight(y)
            for x in words:
                d = dist_a(x, y)
                if d == INF:
                    continue
                bounds = likelihood_bounds(n, w_y, int(d), p)
                prob = word_prob(x.symbols, y.symbols, p)
                assert bounds.lower - 1e-15 <= prob <= bounds.upper + 1e-15

    def test_zero_distance_pins_both_bounds(self):
        for n, w_y in ((5, 0), (5, 2), (5, 5)):
            b = likelihood_bounds(n, w_y, 0, 0.3)
            expected = (1 - 0.3) ** (n - w_y) * (1 - 0.15) ** w_y
            assert b.lower == pytest.approx(expected)
            assert b.upper == pytest.approx(expected)

    def test_chain_below_threshold(self):
        # smaller distance always means strictly higher likelihood when the
        # channel noise stays below the length-5 threshold
        n, w_y, p = 5, 2, 0.01
        assert p < pmax(n)
        for d in range(n):
            upper_next = likelihood_bounds(n, w_y, d + 1, p).upper
            lower_here = likelihood_bounds(n, w_y, d, p).lower
            assert upper_next < lower_here

    def test_domain(self):
        with pytest.raises(ValueError):
            likelihood_bounds(4, 5, 0, 0.3)
        with pytest.raises(ValueError):
            likelihood_bounds(4, 2, 5, 0.3)
        with pytest.raises(ValueError):
            likelihood_bounds(4, 2, 1, 0.0)


class TestOrderingEquivalence:
    def test_monotone_below_threshold(self):
        # closer in dist_a implies strictly more likely, for every pair and
        # every received word, exhaustively at short lengths
        for n in (2, 3, 4):
            p = 0.9 * pmax(n)
            for y in all_words(3, n):
                scored = []
                for x in all_words(3, n):
                    d = dist_a(x, y)
                    if d != INF:
                        scored.append((d, word_prob(x.symbols, y.symbols, p)))
                scored.sort()
                for (d1, pr1), (d2, pr2) in zip(scored, scored[1:]):
                    if d1 < d2:
                        assert pr1 > pr2

    def test_counterexample_above_threshold(self):
        # antipodal two-word code with a received word straddling the halves
        p = 0.6
        for n in (3, 5, 7):
            assert p > pmax(n)
            m = (n - 1) // 2
            zeros = (0,) * n
            ones = (1,) * n
            y = (0,) * (m + 1) + (1,) * m
            assert dist_a(Word(3, zeros), Word(3, y)) == m
            assert dist_a(Word(3, ones), Word(3, y)) == m + 1
            assert word_prob(zeros, y, p) <= word_prob(ones, y, p)
            assert word_prob(zeros, y, p) == pytest.approx(
                (1 - p) ** (m + 1) * (p / 2) ** m
            )
