from __future__ import annotations

import random
from itertools import product

import pytest

from ternary_ecc.codec import (
    BlockDecodeError,
    CodecError,
    MessageStream,
    StreamCodec,
    strip_padding,
)
from ternary_ecc.construct import ConstructionPlan
from ternary_ecc.core import Code, ErasureDecodeError, Word
from ternary_ecc.library import repetition, zero_code


def w(text: str, q: int = 3) -> Word:
    return Word.from_string(text, q)


def corruptions_within_one_error(x: Word):
    yield x
    for i, s in enumerate(x.symbols):
        if s == 0:
            for repl in (1, 2):
                yield Word(3, x.symbols[:i] + (repl,) + x.symbols[i + 1 :])
        else:
            yield Word(3, x.symbols[:i] + (0,) + x.symbols[i + 1 :])


class TestMessageStream:
    def test_reads_and_padding(self):
        stream = MessageStream((1, 0, 1))
        assert stream.read(2) == (1, 0)
        assert not stream.drained
        assert stream.read(3) == (1, 1, 0)  # last real bit, then pad 1, then 0
        assert stream.drained
        assert stream.read(2) == (0, 0)

    def test_empty_stream_pads_immediately(self):
        stream = MessageStream(())
        assert not stream.drained
        assert stream.read(3) == (1, 0, 0)
        assert stream.drained

    def test_consumed_tracks_real_bits(self):
        stream = MessageStream((1, 1))
        stream.read(5)
        assert stream.consumed == 2

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            MessageStream((0, 2))


class TestStripPadding:
    def test_strips_marker_and_zeros(self):
        assert strip_padding((1, 0, 1, 1, 0, 0)) == (1, 0, 1)
        assert strip_padding((1,)) == ()

    def test_missing_marker(self):
        with pytest.raises(ValueError):
            strip_padding((0, 0))
        with pytest.raises(ValueError):
            strip_padding(())


class TestEncodeBlock:
    def test_weight_two_path(self, plan_5_21_3):
        # message 10 picks 11000; inner bit 1 picks the doubled pair
        stream = MessageStream((1, 0, 1))
        trace = StreamCodec(plan_5_21_3).encode_block(stream)
        assert trace.u1 == (1, 0)
        assert str(trace.x1_bar) == "11000"
        assert trace.u2 == (1,)
        assert str(trace.x2_bar) == "11"
        assert str(trace.x) == "22000"

    def test_weight_one_consumes_no_extra_bits(self, plan_5_21_3):
        stream = MessageStream((0, 1))
        trace = StreamCodec(plan_5_21_3).encode_block(stream)
        assert str(trace.x1_bar) == "00100"
        assert trace.u2 == ()
        assert str(trace.x) == "00100"
        assert stream.consumed == 2

    def test_empty_stream_emits_padded_block(self, plan_5_21_3):
        # padding supplies 1 then zeros: u1 = 10 -> 11000, u2 = 0 -> 11000
        stream = MessageStream(())
        trace = StreamCodec(plan_5_21_3).encode_block(stream)
        assert trace.u1 == (1, 0)
        assert trace.u2 == (0,)
        assert str(trace.x) == "11000"
        assert stream.drained

    def test_requires_power_of_two_sizes(self):
        outer = Code.from_strings(2, ["000", "011", "101"])
        plan = ConstructionPlan(outer, {2: repetition(2)}, dbmin=1)
        with pytest.raises(CodecError):
            StreamCodec(plan)


class TestDecodeBlock:
    def test_erasure_trace(self, mini_plan):
        codec = StreamCodec(mini_plan)
        trace = codec.decode_block_trace(w("0200"))
        assert str(trace.y1_bar) == "0100"
        assert str(trace.x1_hat) == "1100"
        assert trace.y2_bar == (None, 1)
        assert str(trace.x2_hat) == "11"
        assert str(trace.x_hat) == "2200"

    def test_clean_block(self, plan_5_21_3):
        codec = StreamCodec(plan_5_21_3)
        stream = MessageStream((1, 0, 1))
        trace = codec.encode_block(stream)
        assert codec.decode_block(trace.x) == (trace.u1, trace.u2)

    def test_single_error_recovery_exhaustive(self, plan_5_21_3):
        codec = StreamCodec(plan_5_21_3)
        for u1_bits in product((0, 1), repeat=2):
            x1 = codec.outer_codeword(u1_bits)
            weight = sum(x1.symbols)
            k2 = codec.inner_message_len(weight)
            for u2_bits in product((0, 1), repeat=k2):
                stream = MessageStream(u1_bits + u2_bits)
                trace = codec.encode_block(stream)
                for y in corruptions_within_one_error(trace.x):
                    assert codec.decode_block(y) == (trace.u1, trace.u2)

    def test_erasures_stay_within_budget(self, plan_5_21_3):
        # with one channel error and a correct outer estimate, the inner
        # pattern carries at most one erasure and no substitution
        codec = StreamCodec(plan_5_21_3)
        for u1_bits in product((0, 1), repeat=2):
            x1 = codec.outer_codeword(u1_bits)
            k2 = codec.inner_message_len(sum(x1.symbols))
            for u2_bits in product((0, 1), repeat=k2):
                trace = codec.encode_block(MessageStream(u1_bits + u2_bits))
                for y in corruptions_within_one_error(trace.x):
                    dec = codec.decode_block_trace(y)
                    if dec.x1_hat != trace.x1_bar:
                        continue
                    erased = sum(1 for s in dec.y2_bar if s is None)
                    assert erased <= 1
                    for got, sent in zip(dec.y2_bar, trace.x2_bar.symbols):
                        assert got is None or got == sent

    def test_ambiguous_erasures_fail(self):
        outer = Code.from_strings(2, ["1100"])
        plan = ConstructionPlan(outer, {2: repetition(2)}, dbmin=4)
        codec = StreamCodec(plan)
        with pytest.raises(ErasureDecodeError):
            codec.decode_block(w("0000"))


class TestStreams:
    def test_empty_message_single_block(self, plan_5_21_3):
        words = StreamCodec(plan_5_21_3).encode_stream(())
        assert len(words) == 1
        bits = StreamCodec(plan_5_21_3).decode_stream(words)
        assert strip_padding(bits) == ()

    def test_noiseless_roundtrip(self, plan_5_21_3):
        rng = random.Random(6)
        message = tuple(rng.randrange(2) for _ in range(200))
        words = StreamCodec(plan_5_21_3).encode_stream(message)
        decoded = StreamCodec(plan_5_21_3).decode_stream(words)
        assert strip_padding(decoded) == message

    def test_roundtrip_with_one_error_per_block(self, plan_5_21_3):
        rng = random.Random(8)
        message = tuple(rng.randrange(2) for _ in range(150))
        words = StreamCodec(plan_5_21_3).encode_stream(message)
        corrupted = []
        for word in words:
            options = [y for y in corruptions_within_one_error(word) if y != word]
            corrupted.append(rng.choice(options))
        decoded = StreamCodec(plan_5_21_3).decode_stream(corrupted)
        assert strip_padding(decoded) == message

    def test_excess_errors_desynchronize(self, plan_5_21_3):
        # two errors push the outer decode onto a different-weight codeword,
        # shifting every later bit
        codec = StreamCodec(plan_5_21_3)
        message = (1, 0, 1) * 4
        words = codec.encode_stream(message)
        assert str(words[0]) == "22000"
        corrupted = [w("00100")] + words[1:]
        decoded = codec.decode_stream(corrupted)
        clean = codec.decode_stream(words)
        assert decoded != clean
        assert len(decoded) != len(clean) or decoded[:3] != clean[:3]

    def test_block_failures_carry_index(self, mini_plan):
        codec = StreamCodec(mini_plan)
        words = codec.encode_stream((0, 1, 1))
        bad = list(words)
        bad[1] = w("0000")
        with pytest.raises(BlockDecodeError) as info:
            codec.decode_stream(bad)
        assert info.value.block_index == 1

    def test_separate_codecs_agree(self, plan_5_21_3):
        stream = MessageStream((1, 1, 0, 0, 1))
        trace = StreamCodec(plan_5_21_3).encode_block(stream)
        assert StreamCodec(plan_5_21_3).decode_block(trace.x) == (trace.u1, trace.u2)


class TestCodecGuards:
    def test_ternary_only(self):
        inner = Code.from_strings(3, ["000", "111", "222"])
        plan = ConstructionPlan(repetition(3), {3: inner}, dbmin=3, q=4)
        with pytest.raises(CodecError):
            StreamCodec(plan)

    def test_plan_without_information_rejected(self):
        outer = Code.from_strings(2, ["110"])
        plan = ConstructionPlan(outer, {2: zero_code(2)}, dbmin=4)
        with pytest.raises(CodecError):
            StreamCodec(plan)

    def test_dependent_generator_rows_stream(self):
        # two equal rows span the 2-word repetition code, which is all the
        # code is: its one message bit indexes the two sorted words
        outer = Code.from_strings(2, ["1100", "0011"])
        inner = Code.from_generator(["11", "11"])
        assert inner == repetition(2)
        codec = StreamCodec(ConstructionPlan(outer, {2: inner}, dbmin=4))
        message = (1, 0, 1, 1, 0)
        assert strip_padding(codec.decode_stream(codec.encode_stream(message))) == message

    def test_message_indexes_sorted_codewords(self, plan_5_21_3):
        # the inner even-weight [5, 16, 2] code: message i is the i-th
        # smallest codeword, whichever rows built the code
        codec = StreamCodec(plan_5_21_3)
        words = plan_5_21_3.inner_for(5).sorted_words()
        assert str(codec.inner_codeword(5, (1, 0, 0, 0))) == str(words[8]) == "10001"
        assert str(codec.inner_codeword(5, (0, 1, 1, 0))) == str(words[6]) == "01100"
