from __future__ import annotations

import io
import random

import pytest

from ternary_ecc.core import (
    Code,
    CodeFormatError,
    ErasureDecodeError,
    Word,
    all_words,
    hamming_distance,
    hamming_weight,
    load_code,
    min_hamming_distance,
    save_code,
    weight_enumerator,
)
from ternary_ecc.library import (
    extended_hamming_8_4_4,
    nonlinear_5_4_3,
    repetition,
    single_parity_check,
    ternary_5_27_3,
    zero_code,
)
from ternary_ecc.search import optimal_binary_code


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


class TestWord:
    def test_symbol_range_enforced(self):
        with pytest.raises(ValueError):
            Word(2, (0, 2))
        with pytest.raises(ValueError):
            Word(1, (0,))

    def test_bool_symbols_refused(self):
        # save_code would write such a word as 'TrueFalseTrue'
        with pytest.raises(ValueError, match="True"):
            Word(2, (True, False, True))
        with pytest.raises(ValueError):
            Word(3, (0, False))
        with pytest.raises(ValueError):
            Word(3, (1.0,))

    def test_roundtrip_string(self):
        word = w("20010")
        assert str(word) == "20010"
        assert len(word) == 5
        assert word[0] == 2

    def test_lexicographic_order(self):
        assert w("0012") < w("0021")
        assert sorted([w("11"), w("02"), w("10")]) == [w("02"), w("10"), w("11")]

    def test_empty_word_allowed(self):
        assert len(Word(2, ())) == 0


class TestHamming:
    def test_weight(self):
        assert hamming_weight(w("1100", 2)) == 2
        assert hamming_weight(w("00000")) == 0
        assert hamming_weight(w("20001000")) == 2

    def test_distance(self):
        assert hamming_distance(w("00100", 2), w("11000", 2)) == 3
        assert hamming_distance(w("11000", 2), w("11111", 2)) == 3
        u = w("1202")
        assert hamming_distance(u, u) == 0

    def test_distance_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(w("00", 2), w("000", 2))
        with pytest.raises(ValueError):
            hamming_distance(w("00", 2), w("00", 3))

    def test_metric_axioms_random(self):
        rng = random.Random(7)
        for q in (2, 3, 5):
            for _ in range(300):
                n = rng.randrange(1, 9)
                a, b, c = (
                    Word(q, tuple(rng.randrange(q) for _ in range(n)))
                    for _ in range(3)
                )
                assert hamming_distance(a, b) == hamming_distance(b, a)
                assert (hamming_distance(a, b) == 0) == (a == b)
                assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestWeightEnumerator:
    def test_nonlinear_5_4_3(self):
        we = weight_enumerator(nonlinear_5_4_3())
        assert we.counts == (0, 1, 2, 0, 0, 1)

    def test_zero_code(self):
        assert weight_enumerator(zero_code(5)).counts == (1, 0, 0, 0, 0, 0)

    def test_extended_hamming_by_enumeration(self):
        code = extended_hamming_8_4_4()
        # independent enumeration from the generator rows
        rows = [tuple(int(c) for c in r) for r in ("10001101", "01001011", "00100111", "00011110")]
        span = set()
        for mask in range(16):
            acc = (0,) * 8
            for j, row in enumerate(rows):
                if (mask >> j) & 1:
                    acc = tuple(a ^ b for a, b in zip(acc, row))
            span.add(acc)
        counts = [0] * 9
        for word in span:
            counts[sum(word)] += 1
        assert tuple(counts) == weight_enumerator(code).counts
        assert weight_enumerator(code).counts == (1, 0, 0, 0, 14, 0, 0, 0, 1)

    def test_counts_sum_to_size(self):
        for code in (nonlinear_5_4_3(), extended_hamming_8_4_4(), single_parity_check(6)):
            assert weight_enumerator(code).total == code.size


class TestBinaryCode:
    def test_generator_only_for_binary_codes(self):
        with pytest.raises(ValueError, match="binary"):
            Code.from_generator([w("1")])
        with pytest.raises(ValueError, match="binary"):
            Code.from_generator([w("10", 2), w("1", 2)])

    def test_info_len(self):
        assert extended_hamming_8_4_4().info_len == 4
        assert nonlinear_5_4_3().info_len == 2
        assert zero_code(3).info_len == 0
        three = Code.from_strings(2, ["00", "01", "10"])
        assert three.info_len is None

    def test_min_distance(self):
        assert min_hamming_distance(repetition(5)) == 5
        assert min_hamming_distance(single_parity_check(6)) == 2
        assert min_hamming_distance(extended_hamming_8_4_4()) == 4
        assert min_hamming_distance(nonlinear_5_4_3()) == 3

    def test_nearest_with_tie_break(self):
        code = Code.from_strings(2, ["00", "11"])
        assert code.nearest(w("01", 2)) == w("00", 2)  # tie, smallest wins
        assert code.nearest(w("11", 2)) == w("11", 2)
        with pytest.raises(ValueError):
            code.nearest(w("11"))

    def test_erasure_decode(self):
        code = Code.from_strings(2, ["00", "11"])
        assert code.erasure_decode((None, 1)) == w("11", 2)
        assert code.erasure_decode((0, None)) == w("00", 2)
        with pytest.raises(ErasureDecodeError):
            code.erasure_decode((None, None))
        with pytest.raises(ErasureDecodeError):
            Code.from_strings(2, ["01", "10"]).erasure_decode((0, 0))
        with pytest.raises(ValueError):
            code.erasure_decode((2, None))

    def test_parity_check_is_even_weight_code(self):
        code = single_parity_check(5)
        assert code.size == 16
        assert all(hamming_weight(word) % 2 == 0 for word in code.words)


class TestCodeFiles:
    def test_parse_minimal(self):
        code = load_code(io.StringIO("3 5 2\n00000\n11111\n"))
        assert (code.q, code.n, code.size) == (3, 5, 2)

    def test_roundtrip_optimal_code(self, tmp_path):
        code = ternary_5_27_3()
        path = tmp_path / "c.code"
        save_code(code, path)
        assert load_code(path).words == code.words

    @pytest.mark.parametrize(
        "make",
        [
            lambda: zero_code(0),
            lambda: zero_code(3),
            lambda: repetition(1),
            lambda: repetition(2),
            lambda: repetition(5),
            lambda: single_parity_check(2),
            lambda: single_parity_check(5),
            extended_hamming_8_4_4,
            nonlinear_5_4_3,
            ternary_5_27_3,
            lambda: optimal_binary_code(5, 1),
            lambda: optimal_binary_code(6, 2),
        ],
        ids=[
            "zero0", "zero3", "rep1", "rep2", "rep5", "spc2", "spc5", "ext_hamming",
            "nonlinear", "ternary", "optimal_5_1", "optimal_6_2",
        ],
    )
    def test_roundtrip_is_the_same_code(self, make):
        # a code is its words: no part of it is lost in the file format
        code = make()
        text = io.StringIO()
        save_code(code, text)
        loaded = load_code(io.StringIO(text.getvalue()))
        assert loaded == code
        assert hash(loaded) == hash(code)

    def test_codes_built_from_rows_or_words_are_one(self):
        assert len({repetition(2), Code.from_strings(2, ["00", "11"])}) == 1

    def test_symbol_out_of_range(self):
        with pytest.raises(CodeFormatError):
            load_code(io.StringIO("2 5 1\n01210\n"))

    def test_duplicate_codeword(self):
        with pytest.raises(CodeFormatError):
            load_code(io.StringIO("3 3 2\n012\n012\n"))

    def test_malformed_header(self, tmp_path):
        # only ASCII digits count: int() alone would take '1_0', '+2' and '\u0662'
        for text in (
            "3 5\n",
            "a b c\n000\n",
            "",
            "3 5 2 9\n",
            "3 1_0 1\n0000000000\n",
            "+2 1 1\n0\n",
            "3 \u0662 1\n00\n",
            "3 2 1\n\u06620\n",
        ):
            with pytest.raises(CodeFormatError):
                load_code(io.StringIO(text))
        path = tmp_path / "code.txt"
        path.write_bytes("3 2 1\n\u06620\n".encode("utf-8"))
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_wrong_line_length(self):
        with pytest.raises(CodeFormatError):
            load_code(io.StringIO("3 3 1\n0123\n"))

    def test_wrong_word_count(self):
        with pytest.raises(CodeFormatError):
            load_code(io.StringIO("3 3 2\n000\n"))

    def test_alphabet_cap(self):
        with pytest.raises(CodeFormatError):
            load_code(io.StringIO("11 2 1\n00\n"))

    def test_save_then_load_identity(self, tmp_path):
        rng = random.Random(3)
        words = {Word(4, tuple(rng.randrange(4) for _ in range(6))) for _ in range(40)}
        code = Code(4, 6, frozenset(words))
        buf = io.StringIO()
        save_code(code, buf)
        assert load_code(io.StringIO(buf.getvalue())).words == code.words


class TestHelpers:
    def test_all_words_count(self):
        assert len(list(all_words(3, 3))) == 27
        assert len(list(all_words(2, 5))) == 32

    def test_min_hamming_distance_requires_two(self):
        with pytest.raises(ValueError):
            min_hamming_distance(Code.from_words([w("00", 2)]))

    def test_library_optimal_code_shape(self):
        code = ternary_5_27_3()
        assert (code.q, code.n, code.size) == (3, 5, 27)
