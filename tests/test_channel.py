from __future__ import annotations

import hashlib
import math

import pytest

from ternary_ecc import channel
from ternary_ecc.channel import (
    ChannelSpec,
    capacity,
    capacity_sweep,
    entropy_trits,
    mutual_information,
    split_seed,
    transition_matrix,
    transition_prob,
    transmit,
)
from ternary_ecc.core import Word, all_words

from oracles import (
    joint_mutual_information,
    maximize_unimodal,
    qary_mi,
    ternary_matrix,
    ternary_mi,
)

LOG3_2 = math.log(2, 3)


class TestTransitionProb:
    def test_ternary_entries(self):
        spec = ChannelSpec(3, 0.3)
        assert transition_prob(spec, 0, 0) == pytest.approx(0.7)
        assert transition_prob(spec, 0, 1) == pytest.approx(0.15)
        assert transition_prob(spec, 1, 2) == 0.0
        assert transition_prob(spec, 2, 1) == 0.0
        expected = ternary_matrix(0.3)
        for x in range(3):
            for y in range(3):
                assert transition_prob(spec, x, y) == pytest.approx(expected[x][y])

    def test_qary_entry(self):
        spec = ChannelSpec(5, 0.4)
        assert transition_prob(spec, 3, 3) == pytest.approx(0.9)
        assert transition_prob(spec, 3, 0) == pytest.approx(0.1)
        assert transition_prob(spec, 1, 2) == 0.0

    def test_rows_sum_to_one(self):
        for q in (3, 4, 5, 6):
            limit = (q - 1) / q
            for i in range(7):
                spec = ChannelSpec(q, min(limit * i / 6, limit))
                for row in transition_matrix(spec):
                    assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ChannelSpec(3, 0.7)
        with pytest.raises(ValueError):
            ChannelSpec(3, -0.1)
        with pytest.raises(ValueError):
            ChannelSpec(2, 0.1)
        with pytest.raises(ValueError):
            transition_prob(ChannelSpec(3, 0.1), 3, 0)


class TestTransmit:
    def test_noiseless_identity(self):
        spec = ChannelSpec(3, 0.0)
        word = Word.from_string("0121020", 3)
        assert transmit(spec, word, 5) == word

    def test_forbidden_transition_never_happens(self):
        spec = ChannelSpec(3, 0.6)
        word = Word(3, (1,) * 200)
        for seed in range(20):
            assert 2 not in transmit(spec, word, seed).symbols

    def test_seed_determinism(self):
        spec = ChannelSpec(3, 0.3)
        word = Word.from_string("0120120120", 3)
        assert transmit(spec, word, 42) == transmit(spec, word, 42)
        outs = {transmit(spec, word, split_seed(9, i)) for i in range(16)}
        assert len(outs) > 1

    @pytest.mark.parametrize(
        "q, p, digest",
        [
            (3, 0.02, "be691ca61fd11188ef14ae8c197f8930703349f0442e875c397c4b26327378dc"),
            (3, 0.3, "83f28f15fd666a7b09601419bfb745c0bef601fa483010bbedc2f6b4a3c34e11"),
            (3, 0.6, "319aa3a0341520eea383fb84c45209f2291fdbb76a37c7549662b2655dea2454"),
            (4, 0.5, "b558cedea8df03a2fda6699f701fbf9b5038987d8e8c0876fddf9d3dd0b3b11b"),
        ],
    )
    def test_draws_are_pinned(self, q, p, digest):
        # 2000 words received from every input of length 3 in turn; any change
        # to a single draw changes the digest
        spec = ChannelSpec(q, p)
        words = list(all_words(q, 3))
        text = "".join(
            str(transmit(spec, words[i % len(words)], split_seed(3, i))) for i in range(2000)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_empirical_zero_to_one_rate(self):
        # law of large numbers against the transition matrix entry p/2 = 0.15
        spec = ChannelSpec(3, 0.3)
        word = Word(3, (0,) * 1_000_000)
        received = transmit(spec, word, 2024)
        rate = sum(1 for s in received.symbols if s == 1) / len(word)
        assert abs(rate - 0.15) < 0.002


class TestMutualInformation:
    def test_noiseless_uniform_is_one_trit(self):
        assert mutual_information(ChannelSpec(3, 0.0), 1 / 3) == pytest.approx(1.0)

    def test_noiseless_binary_subchannel(self):
        assert mutual_information(ChannelSpec(3, 0.0), 0.0) == pytest.approx(LOG3_2)

    def test_matches_joint_oracle(self):
        assert mutual_information(ChannelSpec(3, 0.2), 0.3) == pytest.approx(
            ternary_mi(0.2, 0.3), abs=1e-12
        )
        for p in (0.05, 0.35, 0.55):
            for p0 in (0.0, 0.2, 0.8, 1.0):
                assert mutual_information(ChannelSpec(3, p), p0) == pytest.approx(
                    ternary_mi(p, p0), abs=1e-12
                )
        for q in (4, 5, 16, 128):
            limit = (q - 1) / q
            for p in (0.0, 0.3 * limit, 0.9 * limit, limit):
                for p0 in (0.0, 0.2, 0.8, 1.0):
                    assert mutual_information(ChannelSpec(q, p), p0) == pytest.approx(
                        qary_mi(q, p, p0), abs=1e-12
                    ), (q, p, p0)

    def test_symmetric_split_is_optimal(self):
        # with p0 fixed, the joint-distribution I is maximized by an even
        # split of the remaining mass over the two non-zero symbols
        matrix = ternary_matrix(0.25)
        p0 = 0.4
        best = max(
            joint_mutual_information(matrix, [p0, a, 1 - p0 - a], 3.0)
            for a in [i * (1 - p0) / 20 for i in range(21)]
        )
        even = joint_mutual_information(matrix, [p0, (1 - p0) / 2, (1 - p0) / 2], 3.0)
        assert even == pytest.approx(best, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mutual_information(ChannelSpec(3, 0.2), 1.2)
        assert mutual_information(ChannelSpec(4, 0.2), 0.5) == pytest.approx(
            qary_mi(4, 0.2, 0.5), abs=1e-12
        )

    def test_ternary_values_are_pinned(self):
        # exact floats: ternary outputs are compared byte for byte downstream
        pinned = {
            0.1: (0.5993832658928845, 0.7640236950201105, 0.5105725716457502, 0.0),
            0.4: (0.5047438028571659, 0.43982566094423103, 0.2161576007349332, 0.0),
            0.6: (0.44165082750002016, 0.33504281599902913, 0.13667162895086074, 0.0),
        }
        for p, values in pinned.items():
            spec = ChannelSpec(3, p)
            assert tuple(mutual_information(spec, p0) for p0 in (0.0, 0.25, 0.7, 1.0)) == values


class TestCapacity:
    def test_noiseless(self):
        result = capacity(ChannelSpec(3, 0.0))
        assert result.capacity_trits == pytest.approx(1.0, abs=1e-9)
        assert result.p0_star == pytest.approx(1 / 3, abs=1e-9)

    def test_beats_symmetric_ternary_channel(self):
        p = 0.2
        symmetric = 1 + (1 - p) * math.log(1 - p, 3) + p * math.log(p / 2, 3)
        assert capacity(ChannelSpec(3, p)).capacity_trits > symmetric

    def test_matches_numeric_maximization(self):
        for i in range(1, 13):
            p = 0.05 * i
            closed = capacity(ChannelSpec(3, p))
            _, best = maximize_unimodal(lambda p0: ternary_mi(p, p0), 0.0, 1.0)
            assert closed.capacity_trits == pytest.approx(best, abs=1e-6)

    def test_derivative_vanishes_at_interior_optimum(self):
        for p in (0.05, 0.1, 0.2, 0.3):
            result = capacity(ChannelSpec(3, p))
            assert 0.0 < result.p0_star < 1.0
            h = 1e-6
            spec = ChannelSpec(3, p)
            deriv = (
                mutual_information(spec, result.p0_star + h)
                - mutual_information(spec, result.p0_star - h)
            ) / (2 * h)
            assert abs(deriv) < 1e-5

    def test_clamped_region(self):
        result = capacity(ChannelSpec(3, 0.6))
        assert result.p0_star == 0.0
        assert result.capacity_trits == pytest.approx((1 - 0.3) * LOG3_2)

    def test_singular_point_is_linear_in_p0(self):
        # at p = 2/3 the output law no longer depends on p0, so I falls linearly
        result = capacity(ChannelSpec(3, 2 / 3))
        assert result.p0_star == 0.0
        assert result.lam is None
        assert result.capacity_trits == pytest.approx((1 - 1 / 3) * LOG3_2, abs=1e-15)
        _, best = maximize_unimodal(lambda p0: ternary_mi(2 / 3, p0), 0.0, 1.0)
        assert result.capacity_trits == pytest.approx(best, abs=1e-9)

    def test_ternary_values_are_pinned(self):
        # exact floats: ternary outputs are compared byte for byte downstream
        pinned = [
            (0.0, 1.0, 0.3333333333333333),
            (0.05, 0.8598851031431654, 0.3037945677932462),
            (0.1, 0.7650966421132546, 0.275559439656514),
            (0.2, 0.6280743137268834, 0.2028833670166252),
            (0.3, 0.5427394192228662, 0.08310854099462038),
            (0.35, 0.5205170466964524, 0.0),
            (0.5, 0.4731973151785931, 0.0),
            (0.6, 0.44165082750002016, 0.0),
        ]
        for p, trits, p0_star in pinned:
            result = capacity(ChannelSpec(3, p))
            assert (result.capacity_trits, result.p0_star) == (trits, p0_star), p

    def test_capacity_bits_conversion(self):
        result = capacity(ChannelSpec(3, 0.0))
        assert result.capacity_bits == pytest.approx(math.log2(3))


class TestCapacityNumeric:
    """The closed form against numeric maximization of the joint-law oracle."""

    def test_agrees_with_closed_form(self):
        for p in (0.0, 0.1, 0.4, 0.6):
            result = capacity(ChannelSpec(3, p))
            _, best = maximize_unimodal(lambda p0: ternary_mi(p, p0), 0.0, 1.0)
            assert result.capacity_trits == pytest.approx(best, abs=1e-8)
            assert result.method == "closed-form"

    def test_handles_singular_point(self):
        result = capacity(ChannelSpec(3, 2 / 3))
        assert 0.0 <= result.capacity_trits <= 1.0

    def test_qary(self):
        spec = ChannelSpec(5, 0.3)
        result = capacity(spec)
        assert result.log_base == 5
        assert 0.0 < result.capacity_trits <= 1.0
        # independent coarse grid over the same one-parameter family
        grid = max(qary_mi(5, 0.3, i / 200) for i in range(201))
        assert result.capacity_trits >= grid - 1e-6

    def test_every_alphabet_matches_oracle(self):
        # p from 0 to the singular point (q-1)/q; p0* clamps to 0 on the
        # upper part of each range
        for q in (3, 4, 5, 7, 16, 128):
            limit = (q - 1) / q
            clamped = 0
            for i in range(11):
                p = limit if i == 10 else limit * i / 10
                result = capacity(ChannelSpec(q, p))
                p0, best = maximize_unimodal(
                    lambda p0: qary_mi(q, p, p0), 0.0, 1.0, grid=20
                )
                assert result.capacity_trits == pytest.approx(best, abs=1e-9), (q, p)
                assert result.p0_star == pytest.approx(p0, abs=1e-4), (q, p)
                clamped += result.p0_star == 0.0
            assert 2 <= clamped < 10, q

    def test_refuses_alphabets_past_the_cap(self):
        for q in (channel._MAX_Q + 1, 10**9):
            with pytest.raises(ValueError, match="cap"):
                capacity(ChannelSpec(q, 0.3))


class TestCapacitySweep:
    def test_refuses_steps_past_the_cap(self):
        for steps in (channel._MAX_SWEEP_STEPS + 1, 10**9, 10**400):
            with pytest.raises(ValueError, match="cap"):
                capacity_sweep(0.0, 0.6, steps)

    def test_endpoints_and_length(self):
        rows = capacity_sweep(0.0, 0.6, 7)
        assert len(rows) == 7
        assert rows[0][0] == 0.0
        assert rows[-1][0] == 0.6
        assert rows[0][1].capacity_trits == pytest.approx(1.0)

    def test_all_rows_within_entropy_bounds(self):
        for p, result in capacity_sweep(0.0, 0.6, 13):
            assert 0.0 <= result.capacity_trits <= 1.0

    def test_rows_consistent_with_capacity(self):
        rows = capacity_sweep(0.0, 0.6, 7)
        for p, result in rows:
            again = capacity(ChannelSpec(3, p))
            assert result.capacity_trits == again.capacity_trits
            assert result.p0_star == again.p0_star

    def test_monotone_grid(self):
        ps = [p for p, _ in capacity_sweep(0.1, 0.5, 9)]
        assert ps == sorted(ps)


def test_entropy_endpoints():
    assert entropy_trits(0.0) == 0.0
    assert entropy_trits(1.0) == 0.0
    assert entropy_trits(0.5) == pytest.approx(LOG3_2)
