from __future__ import annotations

import random

import pytest

from ternary_ecc.construct import (
    ConstructionPlan,
    PlanError,
    build_code,
    construction_size,
    lift_onto_support,
    lower_from_support,
)
from ternary_ecc.core import (
    Code,
    WeightEnumerator,
    Word,
    hamming_distance,
    weight_enumerator,
)
from ternary_ecc.library import (
    extended_hamming_8_4_4,
    nonlinear_5_4_3,
    repetition,
    single_parity_check,
    zero_code,
)
from ternary_ecc.metric import dist_b, min_dist_b

from oracles import (
    gather_reference,
    lift_reference,
    lower_reference,
    scatter_reference,
    support_reference,
)


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


# The paper's example: the inner word 11010?1?, its two erasures left off
# the support, lifts to 22121020.
PAPER_PATTERN = (1, 1, 0, 1, 0, None, 1, None)


def unerased(pattern) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions of a pattern that hold a symbol, and those symbols."""
    kept = [(i, s) for i, s in enumerate(pattern) if s is not None]
    return tuple(i for i, _ in kept), tuple(s for _, s in kept)


class TestSupportScatter:
    def test_documented_example(self):
        # the payload 201 has a zero, which only the reference scatter places
        mask = w("10011000", 2)
        assert tuple(i + 1 for i in support_reference(mask)) == (1, 4, 5)
        assert scatter_reference(mask, w("201")) == w("20001000")

    def test_zero_payload_gives_zero_word(self):
        assert scatter_reference(w("1100", 2), w("00")) == w("0000")
        assert lift_onto_support(4, (), (), 3) == w("0000")

    def test_fiber_of_a_support(self):
        fiber = {
            str(lift_onto_support(4, (0, 1), a, 3))
            for a in ((0, 0), (0, 1), (1, 0), (1, 1))
        }
        assert fiber == {"1100", "1200", "2100", "2200"}

    def test_gather_inverts_scatter(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randrange(1, 10)
            mask = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            payload = Word(
                3, tuple(rng.randrange(3) for _ in range(sum(mask.symbols)))
            )
            scattered = scatter_reference(mask, payload)
            assert gather_reference(mask, scattered) == payload
            # the kept pair reads a zero of the payload as an erasure
            lowered = lower_from_support(scattered.symbols, support_reference(mask))
            assert lowered == lower_reference(payload)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lift_onto_support(4, (0, 1), (0,), 3)


class TestLiftLower:
    def test_documented_example(self):
        support, symbols = unerased(PAPER_PATTERN)
        assert str(lift_onto_support(8, support, symbols, 3)) == "22121020"

    def test_two_zeros(self):
        assert str(lift_onto_support(2, (0, 1), (0, 0), 3)) == "11"

    def test_qary(self):
        assert str(lift_onto_support(3, (0, 1), (3, 0), 5)) == "410"

    def test_lower_examples(self):
        assert lower_from_support(w("22121020").symbols, range(8)) == PAPER_PATTERN
        assert lower_from_support(w("000").symbols, range(3)) == (None, None, None)

    def test_roundtrip_random(self):
        rng = random.Random(4)
        for _ in range(1000):
            n = rng.randrange(0, 9)
            word = Word(3, tuple(rng.randrange(3) for _ in range(n)))
            support, symbols = unerased(lower_from_support(word.symbols, range(n)))
            assert lift_onto_support(n, support, symbols, 3) == word

    def test_symbol_out_of_subalphabet(self):
        with pytest.raises(ValueError):
            lift_onto_support(1, (0,), (2,), 3)

    def test_support_helpers_match_word_helpers(self):
        rng = random.Random(6)
        for _ in range(500):
            q = rng.choice((3, 4, 5))
            n = rng.randrange(0, 10)
            mask = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            support = support_reference(mask)
            inner = tuple(rng.randrange(q - 1) for _ in support)
            lifted = lift_onto_support(n, support, inner, q)
            assert lifted == scatter_reference(mask, lift_reference(inner, q))
            received = Word(q, tuple(rng.randrange(q) for _ in range(n)))
            assert lower_from_support(received.symbols, support) == (
                lower_reference(gather_reference(mask, received))
            )

    def test_lift_onto_support_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lift_onto_support(4, (0, 1), (1,), 3)
        with pytest.raises(ValueError):
            lift_onto_support(4, (0,), (2,), 3)

    @pytest.mark.parametrize(
        "n, support, symbols, q",
        [
            (4, (0,), (-1,), 3),  # would lift to zero, an erasure
            (4, (0,), (None,), 3),  # an erasure is not a symbol
            (4, (-1,), (1,), 3),  # would index from the end
            (4, (4,), (1,), 3),  # past the word
            (4, (1, 1), (1, 0), 3),  # repeated: the second would overwrite
            (4, (2, 1), (1, 0), 3),  # decreasing
            (2, (0, 1), (0, 0), 2),  # no sub-alphabet to lift from
        ],
        ids=[
            "negative-symbol",
            "erasure-symbol",
            "negative-position",
            "position-past-n",
            "repeated-position",
            "decreasing-support",
            "binary-target",
        ],
    )
    def test_lift_onto_support_refuses(self, n, support, symbols, q):
        with pytest.raises(ValueError):
            lift_onto_support(n, support, symbols, q)

    @pytest.mark.parametrize(
        "support",
        [
            (-1,),  # would read the last symbol
            (4,),  # past the word
            (2, 0),  # decreasing: would read out of order
        ],
        ids=["negative-position", "position-past-word", "decreasing-support"],
    )
    def test_lower_from_support_refuses(self, support):
        with pytest.raises(ValueError, match="strictly increasing"):
            lower_from_support((0, 2, 1, 0), support)

    def test_pattern_roundtrip(self):
        pattern = (1, None, 0, None, 1)
        support, symbols = unerased(pattern)
        lifted = lift_onto_support(5, support, symbols, 3)
        assert lower_from_support(lifted.symbols, range(5)) == pattern

    def test_lower_qary(self):
        assert lower_from_support(w("410", 5).symbols, range(3)) == (3, 0, None)


class TestPlanValidation:
    def test_valid_plan(self, plan_5_21_3):
        plan_5_21_3.validate()

    def test_inner_distance_shortfall(self):
        # distance-1 inner code cannot support a distance-3 target
        bad_inner = Code.from_strings(2, ["00000", "00001"])
        plan = ConstructionPlan(
            nonlinear_5_4_3(),
            {1: zero_code(1), 2: repetition(2), 5: bad_inner},
            dbmin=3,
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_outer_distance_shortfall(self):
        plan = ConstructionPlan(
            single_parity_check(4),
            {2: repetition(2), 4: repetition(4), 0: zero_code(0)},
            dbmin=3,
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_missing_inner_weight(self):
        plan = ConstructionPlan(nonlinear_5_4_3(), {1: zero_code(1)}, dbmin=3)
        with pytest.raises(PlanError):
            plan.validate()

    def test_wrong_inner_length(self):
        plan = ConstructionPlan(
            nonlinear_5_4_3(),
            {1: zero_code(2), 2: repetition(2), 5: single_parity_check(5)},
            dbmin=3,
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_outer_code_must_be_binary(self):
        with pytest.raises(PlanError):
            ConstructionPlan(
                Code.from_strings(3, ["12", "21"]), {2: repetition(2)}, dbmin=2
            ).validate()

    def test_qary_inner_distance_is_hamming(self):
        # {1, 2} over three symbols has dist_b 2 but Hamming distance 1, and
        # inner codes need Hamming distance ceil(dbmin / 2) = 2
        inner = Code.from_strings(3, ["1", "2"])
        assert min_dist_b(inner) == 2
        plan = ConstructionPlan(Code.from_strings(2, ["1"]), {1: inner}, dbmin=3, q=4)
        with pytest.raises(PlanError):
            plan.validate()

    def test_weight_zero_defaults_to_empty_word_code(self):
        plan = ConstructionPlan(
            repetition(3), {3: Code.from_strings(2, ["000", "111"])}, dbmin=3
        )
        plan.validate()
        assert plan.inner_for(0).size == 1


class TestBuildCode:
    def test_builds_5_21_3(self, plan_5_21_3, code_5_21_3):
        assert code_5_21_3.size == 21
        assert min_dist_b(code_5_21_3) == 3
        sizes = {
            d: plan_5_21_3.inner_for(d).size
            for d in weight_enumerator(plan_5_21_3.outer).nonzero_weights()
        }
        assert code_5_21_3.size == construction_size(
            weight_enumerator(plan_5_21_3.outer), sizes
        )

    def test_length_8_distance_4(self):
        plan = ConstructionPlan(
            extended_hamming_8_4_4(),
            {0: zero_code(0), 4: single_parity_check(4), 8: single_parity_check(8)},
            dbmin=4,
        )
        code = build_code(plan)
        assert code.size == 241
        assert min_dist_b(code) == 4

    def test_length_8_distance_8(self):
        plan = ConstructionPlan(
            repetition(8), {0: zero_code(0), 8: extended_hamming_8_4_4()}, dbmin=8
        )
        code = build_code(plan)
        assert code.size == 17
        assert min_dist_b(code) == 8

    def test_quaternary_construction(self):
        inner = Code.from_strings(3, ["000", "111", "222"])
        plan = ConstructionPlan(repetition(3), {3: inner}, dbmin=3, q=4)
        code = build_code(plan)
        assert code.q == 4
        assert code.words == frozenset(
            Word.from_string(t, 4) for t in ("000", "111", "222", "333")
        )
        assert min_dist_b(code) == 3

    def test_invalid_plan_rejected(self):
        bad_inner = Code.from_strings(2, ["00000", "00001"])
        plan = ConstructionPlan(
            nonlinear_5_4_3(),
            {1: zero_code(1), 2: repetition(2), 5: bad_inner},
            dbmin=3,
        )
        with pytest.raises(PlanError):
            build_code(plan)


class TestConstructionSize:
    def test_even_weight_outer_with_full_inner(self):
        counts = [0] * 9
        from math import comb

        for d in range(0, 9, 2):
            counts[d] = comb(8, d)
        we = WeightEnumerator(8, tuple(counts))
        sizes = {d: 2**d for d in range(0, 9, 2)}
        assert construction_size(we, sizes) == 3281

    def test_small_example(self):
        we = WeightEnumerator(5, (0, 1, 2, 0, 0, 1))
        assert construction_size(we, {1: 1, 2: 2, 5: 16}) == 21

    def test_zero_weight_only(self):
        we = WeightEnumerator(4, (1, 0, 0, 0, 0))
        assert construction_size(we, {}) == 1

    def test_missing_size_raises(self):
        we = WeightEnumerator(4, (0, 0, 3, 0, 0))
        with pytest.raises(PlanError):
            construction_size(we, {3: 4})


class TestMappingProperties:
    def test_lift_doubles_hamming_distance(self):
        rng = random.Random(21)
        for q in (3, 4, 5):
            for _ in range(400):
                n = rng.randrange(0, 13)
                u = Word(q - 1, tuple(rng.randrange(q - 1) for _ in range(n)))
                v = Word(q - 1, tuple(rng.randrange(q - 1) for _ in range(n)))
                lifted_u = lift_onto_support(n, range(n), u.symbols, q)
                lifted_v = lift_onto_support(n, range(n), v.symbols, q)
                assert dist_b(lifted_u, lifted_v) == 2 * hamming_distance(u, v)

    def test_scatter_is_isometric_on_a_common_support(self):
        rng = random.Random(22)
        for q in (3, 4, 5):
            for _ in range(400):
                n = rng.randrange(1, 13)
                mask = Word(2, tuple(rng.randrange(2) for _ in range(n)))
                k = sum(mask.symbols)
                a = Word(q, tuple(rng.randrange(q) for _ in range(k)))
                b = Word(q, tuple(rng.randrange(q) for _ in range(k)))
                # zeros in the payloads: only the reference scatter places them
                assert dist_b(
                    scatter_reference(mask, a), scatter_reference(mask, b)
                ) == dist_b(a, b)

    def test_scatter_dominates_support_distance(self):
        rng = random.Random(23)
        for q in (3, 4, 5):
            for _ in range(400):
                n = rng.randrange(1, 13)
                u = Word(2, tuple(rng.randrange(2) for _ in range(n)))
                v = Word(2, tuple(rng.randrange(2) for _ in range(n)))
                a = Word(
                    q, tuple(rng.randrange(1, q) for _ in range(sum(u.symbols)))
                )
                b = Word(
                    q, tuple(rng.randrange(1, q) for _ in range(sum(v.symbols)))
                )
                lifted_a = lift_onto_support(
                    n, support_reference(u), [s - 1 for s in a.symbols], q
                )
                lifted_b = lift_onto_support(
                    n, support_reference(v), [s - 1 for s in b.symbols], q
                )
                assert dist_b(lifted_a, lifted_b) >= dist_b(u, v)
