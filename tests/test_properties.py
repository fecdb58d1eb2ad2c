"""Property tests: the bit-sliced codebook scan against the linear-scan and
pairwise oracles, and the code file round trip, over random small codes; the
stream codec's block path against its pre-table version, over three plans;
the exact search's bit-sliced orbit classes against canonical column tags;
simulate's kept decisions against its per-trial loop."""

from __future__ import annotations

import io
import math
import random
from itertools import product
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from ternary_ecc import decode
from ternary_ecc.channel import ChannelSpec
from ternary_ecc.codec import MessageStream, StreamCodec, strip_padding
from ternary_ecc.core import (
    Code,
    CodeFormatError,
    ErasureDecodeError,
    Word,
    load_code,
    min_hamming_distance,
    save_code,
)
from ternary_ecc.decode import decode_da, decode_ml
from ternary_ecc.metric import min_dist_b
from ternary_ecc.search import _orbit_masks, _symbol_masks

from oracles import (
    decode_block_trace_reference,
    decode_da_reference,
    decode_ml_reference,
    encode_block_reference,
    erasure_decode_reference,
    min_dist_b_reference,
    min_hamming_distance_reference,
    nearest_reference,
    orbit_classes_reference,
    simulate_reference,
)

SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

# p = 5e-324 is the smallest positive float: p / 2 underflows to 0. At
# p = 1e-300, 1 - p rounds to 1, so words with equal zero-involved
# disagreement counts tie however their matching zeros differ.
ML_P = (0.0, 5e-324, 1e-300, 1e-12, 0.3, math.nextafter(2.0 / 3.0, 0.0))


@st.composite
def code_and_word(draw, alphabets=(2, 3, 4), min_words=1):
    """A code of min_words to 64 words and a received word of its q and n.

    The received word is either uniform or a codeword whose non-zero symbols
    were changed to other non-zero ones, which no channel error reaches from
    that codeword.
    """
    q = draw(st.sampled_from(alphabets))
    n = draw(st.integers(1, 8))
    symbol = st.integers(0, q - 1)
    words = draw(st.sets(st.tuples(*[symbol] * n), min_size=min_words, max_size=64))
    code = Code(q, n, frozenset(Word(q, w) for w in words))
    base = draw(st.sampled_from(sorted(words)))
    shifts = draw(st.tuples(*[st.integers(1, max(1, q - 2))] * n))
    unreachable = tuple(
        (s - 1 + shift) % (q - 1) + 1 if s else 0 for s, shift in zip(base, shifts)
    )
    received = draw(st.one_of(st.tuples(*[symbol] * n), st.just(unreachable)))
    return code, Word(q, received)


def _outcome(call, *args):
    try:
        return call(*args)
    except ErasureDecodeError as exc:
        return ("ErasureDecodeError", str(exc))


@SETTINGS
@hypothesis.given(code_and_word())
def test_decode_da_matches_reference(case):
    code, received = case
    assert decode_da(code, received) == decode_da_reference(code, received)


@SETTINGS
@hypothesis.given(code_and_word(alphabets=(3,)), st.sampled_from(ML_P))
def test_decode_ml_matches_reference(case, p):
    code, received = case
    result = decode_ml(code, received, p)
    reference = decode_ml_reference(code, received, p)
    assert result == reference
    # equal floats may still differ in sign; the scan keeps the oracle's bits
    assert math.copysign(1.0, result.distance) == math.copysign(1.0, reference.distance)


@SETTINGS
@hypothesis.given(code_and_word())
def test_nearest_matches_reference(case):
    code, received = case
    assert code.nearest(received) == nearest_reference(code, received)


@SETTINGS
@hypothesis.given(code_and_word(min_words=2))
def test_min_distances_match_reference(case):
    code, _ = case
    assert min_dist_b(code) == min_dist_b_reference(code)
    assert min_hamming_distance(code) == min_hamming_distance_reference(code.words)


@SETTINGS
@hypothesis.given(code_and_word(), st.data())
def test_erasure_decode_matches_reference(case, data):
    code, received = case
    erased = data.draw(st.tuples(*[st.booleans()] * code.n))
    pattern = tuple(None if e else s for e, s in zip(erased, received.symbols))
    assert _outcome(code.erasure_decode, pattern) == _outcome(
        erasure_decode_reference, code, pattern
    )


def test_erasure_decode_error_cases():
    code = Code.from_strings(3, ["012", "010", "220"])
    for pattern in ((None, 1, None), (1, None, None), (None, None, None)):
        assert _outcome(code.erasure_decode, pattern) == _outcome(
            erasure_decode_reference, code, pattern
        )
    assert code.erasure_decode((None, None, 2)) == Word(3, (0, 1, 2))


@SETTINGS
@hypothesis.given(code_and_word())
def test_code_file_round_trip(case):
    code, _ = case
    buffer = io.StringIO()
    save_code(code, buffer)
    buffer.seek(0)
    assert load_code(buffer) == code


# A run of digits long enough that int() refuses to convert it (Python >= 3.11).
_LONG_DIGITS = st.integers(4301, 4400).map(lambda k: "1" * k)
# Characters a code file must not hold: non-ASCII digits and letters, and ASCII
# non-digits.
_FOREIGN = st.one_of(
    st.sampled_from("١٢³²߁๓\u00a0\ufeff"),
    st.characters(min_codepoint=128),
    st.characters(max_codepoint=127).filter(lambda ch: not ch.isdigit()),
)


@st.composite
def mutated_code_file(draw):
    """The text of a valid code file after one to three random edits, with
    "\n" or "\r\n" line endings."""
    code, _ = draw(code_and_word())
    buffer = io.StringIO()
    save_code(code, buffer)
    lines = buffer.getvalue().split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "truncate", "header", "character")))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
        elif kind == "header":
            fields = lines[0].split(" ")
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.one_of(st.text("0123456789", max_size=6), _LONG_DIGITS))
            lines[0] = " ".join(fields)
        else:
            line = lines[i]
            k = draw(st.integers(0, len(line)))
            keep = draw(st.booleans())  # insert the character, or overwrite one
            lines[i] = line[:k] + draw(_FOREIGN) + line[k + (0 if keep else 1):]
    separator = draw(st.sampled_from(("\n", "\r\n")))
    return separator.join(lines) + draw(st.sampled_from(("", separator)))


@SETTINGS
@hypothesis.given(mutated_code_file())
def test_mutated_code_files_parse_or_raise_format_error(tmp_path_factory, text):
    # from a stream the text arrives as is; from a path, as UTF-8 bytes read
    # with universal newlines
    path = tmp_path_factory.mktemp("mutated") / "c.code"
    path.write_bytes(text.encode("utf-8"))
    for source in (io.StringIO(text), path):
        try:
            code = load_code(source)
        except CodeFormatError:
            continue
        buffer = io.StringIO()
        save_code(code, buffer)
        buffer.seek(0)
        assert load_code(buffer) == code


@pytest.fixture(scope="module", params=["plan_5_21_3", "plan_8_241_4", "mini_plan"])
def stream_codec(request):
    return StreamCodec(request.getfixturevalue(request.param))


def _block_outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _decode_block_reference(codec, received):
    trace = decode_block_trace_reference(codec, received)
    return trace.u1_hat, trace.u2_hat


STREAM_SETTINGS = hypothesis.settings(
    max_examples=100, deadline=None, derandomize=True, database=None
)
messages = st.lists(st.integers(0, 1), max_size=96).map(tuple)


@STREAM_SETTINGS
@hypothesis.given(messages, st.data())
def test_stream_round_trip_within_radius(stream_codec, message, data):
    # at most floor((dbmin - 1) / 2) errors per block, each a zero turned
    # non-zero or the reverse, leave the message intact
    plan = stream_codec.plan
    radius = (plan.dbmin - 1) // 2
    words = stream_codec.encode_stream(message)
    stream = MessageStream(message)
    reference_words = []
    while not stream.drained:
        reference_words.append(encode_block_reference(stream_codec, stream).x)
    assert words == reference_words
    received = []
    for word in words:
        symbols = list(word.symbols)
        for i in data.draw(st.sets(st.integers(0, plan.outer.n - 1), max_size=radius)):
            symbols[i] = data.draw(st.sampled_from((1, 2))) if symbols[i] == 0 else 0
        received.append(Word(3, tuple(symbols)))
    bits = stream_codec.decode_stream(received)
    reference_bits = ()
    for y in received:
        u1, u2 = _decode_block_reference(stream_codec, y)
        reference_bits += u1 + u2
    assert bits == reference_bits
    assert strip_padding(bits) == message


@STREAM_SETTINGS
@hypothesis.given(st.data())
def test_decode_block_matches_reference(stream_codec, data):
    # any received word, beyond the decoding radius or of the wrong shape too
    n = stream_codec.plan.outer.n
    q = data.draw(st.sampled_from((3, 3, 3, 2)))
    length = data.draw(st.sampled_from((n, n, n, n - 1, n + 1)))
    symbols = data.draw(st.lists(st.integers(0, q - 1), min_size=length, max_size=length))
    received = Word(q, tuple(symbols))
    assert _block_outcome(stream_codec.decode_block, received) == _block_outcome(
        _decode_block_reference, stream_codec, received
    )
    assert _block_outcome(stream_codec.decode_block_trace, received) == _block_outcome(
        decode_block_trace_reference, stream_codec, received
    )


def test_decode_block_matches_reference_on_every_word(stream_codec):
    for symbols in product(range(3), repeat=stream_codec.plan.outer.n):
        received = Word(3, symbols)
        assert _block_outcome(stream_codec.decode_block_trace, received) == _block_outcome(
            decode_block_trace_reference, stream_codec, received
        )


@STREAM_SETTINGS
@hypothesis.given(messages)
def test_encode_block_matches_reference(stream_codec, message):
    stream, reference = MessageStream(message), MessageStream(message)
    read = ()
    while not reference.drained:
        trace = stream_codec.encode_block(stream)
        assert trace == encode_block_reference(stream_codec, reference)
        assert (stream.consumed, stream.drained) == (reference.consumed, reference.drained)
        read += trace.u1 + trace.u2
    assert stream.drained
    # the padding rule: the message, a single 1, then zeros
    assert read == message + (1,) + (0,) * (len(read) - len(message) - 1)


@st.composite
def orbit_case(draw):
    """All q-ary words of length n, up to four chosen ones (the kernel groups
    candidates only below clique size 5), and a non-empty pending set."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 6))
    words = list(product(range(q), repeat=n))
    chosen = draw(st.lists(st.sampled_from(words), max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.02, 1.0))
    pending = 1 << rng.randrange(len(words))
    for v in range(len(words)):
        if rng.random() < density:
            pending |= 1 << v
    return words, chosen, pending


@SETTINGS
@hypothesis.given(orbit_case())
def test_orbit_classes_match_reference(case):
    words, chosen, pending = case
    classes = _orbit_masks(pending, _symbol_masks(words), chosen)
    assert sorted(classes) == sorted(orbit_classes_reference(pending, words, chosen))


@st.composite
def simulate_case(draw):
    """A code of 1 to 32 words with q in {3, 4} and n in 1..6, a channel at
    one of the ML_P values, a decoder, 1 to 300 trials and a seed."""
    q = draw(st.sampled_from((3, 4)))
    n = draw(st.integers(1, 6))
    symbol = st.integers(0, q - 1)
    words = draw(st.sets(st.tuples(*[symbol] * n), min_size=1, max_size=32))
    code = Code(q, n, frozenset(Word(q, w) for w in words))
    spec = ChannelSpec(q, draw(st.sampled_from(ML_P)))
    decoder = draw(st.sampled_from(decode.DECODER_KINDS))
    return code, spec, decoder, draw(st.integers(1, 300)), draw(st.integers(-(2**64), 2**64))


def _simulate_outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:  # decode_ml refuses q = 4
        return ("ValueError", str(exc))


@SETTINGS
@hypothesis.given(simulate_case())
def test_simulate_matches_reference(case):
    reference = _simulate_outcome(simulate_reference, *case)
    assert _simulate_outcome(decode.simulate, *case) == reference
    # keeping no decision, or one, changes no count
    for cap in (0, 1):
        with mock.patch.object(decode, "_DECISION_CAP", cap):
            assert _simulate_outcome(decode.simulate, *case) == reference
