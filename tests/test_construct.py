from __future__ import annotations

import random

import pytest

from ternary_ecc.construct import (
    ConstructionPlan,
    PlanError,
    SupportMap,
    build_code,
    construction_size,
    format_erasure_text,
    gather_from_support,
    lift_erasure_word,
    lift_onto_support,
    lower_from_support,
    lower_to_erasure_word,
    parse_erasure_text,
    scatter_into_support,
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


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


class TestSupportScatter:
    def test_documented_example(self):
        mask = w("10011000", 2)
        support = SupportMap.of(mask)
        assert support.one_based() == (1, 4, 5)
        assert scatter_into_support(mask, w("201")) == w("20001000")

    def test_zero_payload_gives_zero_word(self):
        assert scatter_into_support(w("1100", 2), w("00")) == w("0000")

    def test_fiber_of_a_support(self):
        mask = w("1100", 2)
        fiber = {
            str(scatter_into_support(mask, w(a)))
            for a in ("11", "12", "21", "22")
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
            scattered = scatter_into_support(mask, payload)
            assert gather_from_support(mask, scattered) == payload

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            scatter_into_support(w("1100", 2), w("1"))


class TestLiftLower:
    def test_documented_example(self):
        assert str(lift_erasure_word(parse_erasure_text("11010?1?"), 3)) == "22121020"

    def test_two_zeros(self):
        assert str(lift_erasure_word((0, 0), 3)) == "11"

    def test_qary(self):
        assert str(lift_erasure_word(parse_erasure_text("30?"), 5)) == "410"

    def test_lower_examples(self):
        assert lower_to_erasure_word(w("22121020")) == parse_erasure_text("11010?1?")
        assert lower_to_erasure_word(w("000")) == (None, None, None)

    def test_roundtrip_random(self):
        rng = random.Random(4)
        for _ in range(1000):
            n = rng.randrange(0, 9)
            word = Word(3, tuple(rng.randrange(3) for _ in range(n)))
            assert lift_erasure_word(lower_to_erasure_word(word), 3) == word

    def test_symbol_out_of_subalphabet(self):
        with pytest.raises(ValueError):
            lift_erasure_word((2,), 3)

    def test_support_helpers_match_word_helpers(self):
        rng = random.Random(6)
        for _ in range(500):
            q = rng.choice((3, 4, 5))
            n = rng.randrange(0, 10)
            mask = Word(2, tuple(rng.randrange(2) for _ in range(n)))
            support = SupportMap.of(mask).positions
            inner = tuple(rng.randrange(q - 1) for _ in support)
            lifted = lift_onto_support(n, support, inner, q)
            assert lifted == scatter_into_support(mask, lift_erasure_word(inner, q))
            received = Word(q, tuple(rng.randrange(q) for _ in range(n)))
            assert lower_from_support(received.symbols, support) == (
                lower_to_erasure_word(gather_from_support(mask, received))
            )

    def test_lift_onto_support_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lift_onto_support(4, (0, 1), (1,), 3)
        with pytest.raises(ValueError):
            lift_onto_support(4, (0,), (2,), 3)

    def test_format_parse_roundtrip(self):
        text = "1?0?1"
        assert format_erasure_text(parse_erasure_text(text)) == text

    def test_parse_qary(self):
        assert parse_erasure_text("30?") == (3, 0, None)

    @pytest.mark.parametrize("text", ["\u0661?0", "\u0662"])
    def test_parse_refuses_non_ascii_digits(self, text):
        # int() reads the Arabic-Indic digits one and two; the parser must not
        with pytest.raises(ValueError):
            parse_erasure_text(text)


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
                lifted_u = lift_erasure_word(u.symbols, q)
                lifted_v = lift_erasure_word(v.symbols, q)
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
                assert dist_b(
                    scatter_into_support(mask, a), scatter_into_support(mask, b)
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
                assert dist_b(
                    scatter_into_support(u, a), scatter_into_support(v, b)
                ) >= dist_b(u, v)
