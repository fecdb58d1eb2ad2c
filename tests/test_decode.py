from __future__ import annotations

import random

import pytest

from ternary_ecc import decode
from ternary_ecc.channel import ChannelSpec, split_seed, transmit
from ternary_ecc.core import Code, Word, all_words
from ternary_ecc.decode import DecodeResult, decode_da, decode_ml, simulate
from ternary_ecc.metric import INF, correction_capability, dist_a, min_dist_b, pmax

from oracles import decode_da_reference, decode_ml_reference


def w3(text: str) -> Word:
    return Word.from_string(text, 3)


def single_error_neighbors(x: Word):
    """All words one channel error away from x."""
    for i, s in enumerate(x.symbols):
        if s == 0:
            for repl in (1, 2):
                yield Word(3, x.symbols[:i] + (repl,) + x.symbols[i + 1 :])
        else:
            yield Word(3, x.symbols[:i] + (0,) + x.symbols[i + 1 :])


class TestDecodeDa:
    def test_two_word_code(self):
        code = Code.from_strings(3, ["00000", "11111"])
        result = decode_da(code, w3("01000"))
        assert result.chosen == w3("00000")
        assert result.distance == 1
        assert result.minimizers == frozenset({w3("00000")})

    def test_codeword_decodes_to_itself(self, code_5_27_3):
        for word in code_5_27_3.sorted_words():
            result = decode_da(code_5_27_3, word)
            assert result.chosen == word
            assert result.distance == 0
            assert result.minimizers == frozenset({word})

    def test_single_error_correction(self, code_5_27_3):
        # guaranteed radius 1 at minimum distance 3
        assert min_dist_b(code_5_27_3) == 3
        for x in code_5_27_3.sorted_words():
            for y in single_error_neighbors(x):
                result = decode_da(code_5_27_3, y)
                assert result.minimizers == frozenset({x})

    def test_single_error_correction_constructed_code(self, code_5_21_3):
        assert min_dist_b(code_5_21_3) == 3
        for x in code_5_21_3.sorted_words():
            for y in single_error_neighbors(x):
                result = decode_da(code_5_21_3, y)
                assert result.minimizers == frozenset({x})

    def test_undecodable(self):
        code = Code.from_strings(3, ["11", "22"])
        result = decode_da(code, w3("12"))
        assert result.undecodable
        assert result.chosen is None
        assert result.minimizers == frozenset()
        assert result.distance == INF

    def test_sharpness_beyond_radius(self, code_5_27_3):
        # some double corruption escapes unique decoding
        t = correction_capability(min_dist_b(code_5_27_3))
        witness = None
        for x in code_5_27_3.sorted_words():
            for y1 in single_error_neighbors(x):
                for y in single_error_neighbors(y1):
                    if dist_a(x, y) != t + 1:
                        continue
                    result = decode_da(code_5_27_3, y)
                    if result.minimizers != frozenset({x}):
                        witness = (x, y)
                        break
                if witness:
                    break
            if witness:
                break
        assert witness is not None

    def test_parameter_mismatch(self, code_5_27_3):
        with pytest.raises(ValueError):
            decode_da(code_5_27_3, Word.from_string("0000", 3))


class TestDecodeMl:
    def test_antipodal_witness_above_threshold(self):
        code = Code.from_strings(3, ["000", "111"])
        y = w3("001")
        assert decode_ml(code, y, 0.6).chosen == w3("111")
        assert decode_da(code, y).chosen == w3("000")
        # below the threshold both rules pick the nearer codeword
        assert decode_ml(code, y, 0.3).chosen == w3("000")

    def test_clean_reception(self, code_5_27_3):
        for word in list(code_5_27_3.sorted_words())[:5]:
            assert decode_ml(code_5_27_3, word, 0.2).chosen == word

    def test_agreement_below_threshold(self):
        # the paper's claim, ties included: for 0 < p < pmax(n) every ML
        # minimizer is a d_A minimizer, and both rules give up on the same words
        rng = random.Random(99)
        ties_broken = 0
        for n in range(1, 6):
            space = list(all_words(3, n))
            ps = [fraction * pmax(n) for fraction in (0.01, 0.3, 0.9, 0.999)]
            for _ in range(25):
                code = Code.from_words(rng.sample(space, rng.randint(1, min(len(space), 27))))
                for y in space:
                    da = decode_da(code, y)
                    for p in ps:
                        ml = decode_ml(code, y, p)
                        assert ml.undecodable == da.undecodable
                        assert ml.minimizers <= da.minimizers
                        ties_broken += len(ml.minimizers) < len(da.minimizers)
        assert ties_broken > 0


@pytest.mark.parametrize("name", ["code_5_27_3", "code_5_21_3", "code_8_241_4"])
def test_decoders_match_reference(request, name):
    """Every received word of length 5, and a sample of length 8, decodes as
    in the linear scan: same winner, minimizer set and distance bits."""
    code = request.getfixturevalue(name)
    received = list(all_words(3, code.n))
    if code.n > 5:
        received = random.Random(5).sample(received, 400)
    for y in received:
        assert decode_da(code, y) == decode_da_reference(code, y)
        for p in (0.0, 0.02, 0.3, 0.6):
            result, reference = decode_ml(code, y, p), decode_ml_reference(code, y, p)
            assert result == reference
            assert repr(result.distance) == repr(reference.distance)


def test_ml_at_smallest_positive_p():
    code = Code.from_strings(3, ["00", "10", "12"])
    result = decode_ml(code, w3("10"), 5e-324)
    assert result == DecodeResult(w3("10"), frozenset({w3("10")}), 0.0)
    assert decode_ml(code, w3("02"), 5e-324).undecodable


class TestSimulate:
    def test_noiseless_channel_never_errs(self, code_5_27_3):
        report = simulate(code_5_27_3, ChannelSpec(3, 0.0), "da", 500, seed=1)
        assert report.word_errors == 0
        assert report.undecodable == 0
        assert report.correct == 500

    def test_seed_determinism(self, code_5_27_3):
        a = simulate(code_5_27_3, ChannelSpec(3, 0.05), "da", 2000, seed=7)
        b = simulate(code_5_27_3, ChannelSpec(3, 0.05), "da", 2000, seed=7)
        assert a == b
        c = simulate(code_5_27_3, ChannelSpec(3, 0.05), "da", 2000, seed=8)
        assert c != a

    def test_error_rate_within_union_bound(self, code_5_27_3):
        # a word error needs at least two symbol errors; the union bound
        # M * P(>= 2 errors at worst-case symbol rate) caps the estimate
        p = 0.02
        trials = 100_000
        report = simulate(code_5_27_3, ChannelSpec(3, p), "da", trials, seed=123)
        p_two_or_more = 1 - (1 - p) ** 5 - 5 * p * (1 - p) ** 4
        assert 0 < report.word_errors
        assert report.word_error_rate < 27 * p_two_or_more
        assert report.undecodable == 0

    def test_counts_add_up(self, code_5_27_3):
        report = simulate(code_5_27_3, ChannelSpec(3, 0.3), "ml", 400, seed=3)
        assert report.word_errors + report.correct + report.undecodable == 400

    def test_rejects_unknown_decoder(self, code_5_27_3):
        with pytest.raises(ValueError):
            simulate(code_5_27_3, ChannelSpec(3, 0.1), "nearest", 10, seed=0)

    def test_rejects_non_integer_seed(self, code_5_27_3):
        # a float seed would make split_seed round many trials to one stream
        with pytest.raises(ValueError, match="seed"):
            simulate(code_5_27_3, ChannelSpec(3, 0.3), "da", 1000, seed=1.5)

    @pytest.mark.parametrize("trials", [decode._MAX_TRIALS + 1, 10**400])
    def test_refuses_trials_past_the_cap_before_the_first(self, code_5_27_3, monkeypatch, trials):
        monkeypatch.setattr(decode, "_draw_symbols", None)  # no trial may start
        with pytest.raises(ValueError, match="cap"):
            simulate(code_5_27_3, ChannelSpec(3, 0.3), "da", trials, seed=1)

    @pytest.mark.parametrize("trials", [True, 2.0])
    def test_rejects_non_integer_trials(self, code_5_27_3, trials):
        with pytest.raises(ValueError, match="trials"):
            simulate(code_5_27_3, ChannelSpec(3, 0.3), "da", trials, seed=1)

    @pytest.mark.parametrize("decoder", ["da", "ml"])
    def test_decodes_each_distinct_received_word_once(self, code_5_27_3, monkeypatch, decoder):
        spec, trials, seed = ChannelSpec(3, 0.3), 400, 11
        words = code_5_27_3.sorted_words()
        distinct = set()
        for t in range(trials):
            rng = random.Random(split_seed(seed, t))
            distinct.add(transmit(spec, words[rng.randrange(len(words))], rng))
        name = f"decode_{decoder}"
        original = getattr(decode, name)
        decoded = []

        def counting(code, received, *args):
            decoded.append(received)
            return original(code, received, *args)

        monkeypatch.setattr(decode, name, counting)
        report = simulate(code_5_27_3, spec, decoder, trials, seed)
        assert len(decoded) == len(set(decoded)) == len(distinct) < trials
        assert set(decoded) == distinct
        # with no room for decisions, every trial decodes, and the counts hold
        decoded.clear()
        monkeypatch.setattr(decode, "_DECISION_CAP", 0)
        assert simulate(code_5_27_3, spec, decoder, trials, seed) == report
        assert len(decoded) == trials

    # Counts at the commit that made the decoders bit-sliced: a change to a
    # channel draw or to a decoder's tie-break moves at least one of them.
    @pytest.mark.parametrize(
        "size, p, decoder, counts",
        [
            (27, 0.0, "da", (0, 0)), (27, 0.0, "ml", (0, 0)),
            (27, 0.02, "da", (0, 0)), (27, 0.02, "ml", (0, 0)),
            (27, 0.3, "da", (61, 0)), (27, 0.3, "ml", (61, 0)),
            (27, 0.6, "da", (180, 0)), (27, 0.6, "ml", (185, 0)),
            (241, 0.0, "da", (0, 0)), (241, 0.0, "ml", (0, 0)),
            (241, 0.02, "da", (0, 0)), (241, 0.02, "ml", (1, 0)),
            (241, 0.3, "da", (121, 0)), (241, 0.3, "ml", (118, 0)),
            (241, 0.6, "da", (236, 0)), (241, 0.6, "ml", (227, 0)),
        ],
    )
    def test_counts_are_pinned(self, code_5_27_3, code_8_241_4, size, p, decoder, counts):
        code = code_5_27_3 if size == 27 else code_8_241_4
        report = simulate(code, ChannelSpec(3, p), decoder, 300, seed=2024)
        assert (report.word_errors, report.undecodable) == counts
