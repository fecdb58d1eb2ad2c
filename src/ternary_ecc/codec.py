"""Variable-length to fixed-length streaming over a ternary construction plan.

Each block spends k bits choosing an outer codeword and, depending on that
codeword's weight, k_w more bits choosing an inner codeword; the pair turns
into one ternary word. Decoding inverts the two choices: a binary projection
plus nearest-codeword decode recovers the outer word, after which the surviving
non-zero positions erasure-decode the inner word.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import Record
from .core import Code, ErasureDecodeError, Word
from .construct import ConstructionPlan, _support, lift_onto_support, lower_from_support

Bits = tuple[int, ...]


class CodecError(ValueError):
    """The plan cannot carry a bit stream (sizes not powers of two, wrong alphabet)."""


class BlockDecodeError(ValueError):
    """A block failed to decode; carries the block index within the stream."""

    def __init__(self, message: str, block_index: int | None = None):
        super().__init__(message)
        self.block_index = block_index


class MessageStream:
    """A finite bit buffer read as if it were endless, via the padding rule.

    When reads outrun the real bits, the stream appends a single 1 and then
    zeros forever; drained means every real bit and the padding 1 are consumed.
    """

    def __init__(self, bits: Iterable[int]):
        self._bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in self._bits):
            raise ValueError("message bits must be 0 or 1")
        self._pos = 0
        self._pad_started = False

    @property
    def consumed(self) -> int:
        """Number of real message bits read so far."""
        return min(self._pos, len(self._bits))

    @property
    def drained(self) -> bool:
        return self._pos >= len(self._bits) and self._pad_started

    def read(self, k: int) -> Bits:
        out = self._bits[self._pos:self._pos + k]
        short = k - len(out)
        if short:
            out += (0 if self._pad_started else 1,) + (0,) * (short - 1)
            self._pad_started = True
        self._pos += k
        return out


def strip_padding(bits: Sequence[int]) -> Bits:
    """Drop trailing zeros and the stop bit 1 that the padding rule appended."""
    out = list(bits)
    while out and out[-1] == 0:
        out.pop()
    if not out or out[-1] != 1:
        raise ValueError("no padding marker found; stream is corrupt or truncated")
    out.pop()
    return tuple(out)


class BlockTrace(Record):
    """Everything one encoded block consumed and produced."""

    __slots__ = ("u1", "x1_bar", "u2", "x2_bar", "x")


class DecodeTrace(Record):
    """Intermediate values of a block decode, for diagnostics and verification."""

    __slots__ = ("y1_bar", "x1_hat", "u1_hat", "y2_bar", "x2_hat", "u2_hat", "x_hat")


class _MessageMap:
    """Bijection between fixed-length bit blocks and the codewords of a code:
    a big-endian bit block indexes the sorted codewords."""

    def __init__(self, code: Code):
        if code.q != 2:
            raise CodecError("inner codes must be binary for streaming")
        k = code.info_len
        if k is None:
            raise CodecError(
                f"code of size {code.size} has no power-of-two message space"
            )
        self.code = code
        self.k = k
        self._encode_table = code.sorted_words()
        self._bits_of = {w: _int_to_bits(i, k) for i, w in enumerate(self._encode_table)}

    def encode(self, bits: Bits) -> Word:
        if len(bits) != self.k:
            raise ValueError(f"expected {self.k} message bits, got {len(bits)}")
        return self._encode_table[_bits_to_int(bits)]

    def decode(self, word: Word) -> Bits:
        return self._bits_of[word]


def _bits_to_int(bits: Bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


def _int_to_bits(value: int, k: int) -> Bits:
    return tuple((value >> (k - 1 - j)) & 1 for j in range(k))


class StreamCodec:
    """Encoder/decoder pair for one validated ternary construction plan.

    Every outer codeword gets a row, built once here, so a block is encoded
    and decoded by table lookups and one pass over the support.
    """

    def __init__(self, plan: ConstructionPlan):
        if plan.q != 3:
            raise CodecError("streaming is defined for the ternary channel only")
        plan.validate()
        self.plan = plan
        self._outer = _MessageMap(plan.outer)
        self._inner: dict[int, _MessageMap] = {}
        for d in plan.weight_enumerator().nonzero_weights():
            self._inner[d] = _MessageMap(plan.inner_for(d))
        if self._outer.k == 0 and all(m.k == 0 for m in self._inner.values()):
            raise CodecError("plan carries no information; every block is fixed")
        # (outer codeword, its message bits, its support, the inner map for
        # its weight), in outer message order; looked up by codeword to decode
        self._rows: list[tuple[Word, Bits, tuple[int, ...], _MessageMap]] = []
        for word in self._outer._encode_table:
            support = _support(word)
            inner = self._inner[len(support)]
            self._rows.append((word, self._outer.decode(word), support, inner))
        self._row_of = {row[0]: row for row in self._rows}

    def inner_message_len(self, weight: int) -> int:
        return self._inner[weight].k

    def outer_codeword(self, bits: Bits) -> Word:
        return self._outer.encode(bits)

    def inner_codeword(self, weight: int, bits: Bits) -> Word:
        return self._inner[weight].encode(bits)

    def _read_block(self, stream: MessageStream) -> tuple[Bits, int, Bits]:
        """Read one block's outer bits, pick their row, read its inner bits."""
        u1 = stream.read(self._outer.k)
        index = _bits_to_int(u1)
        return u1, index, stream.read(self._rows[index][3].k)

    def _build_block(self, index: int, u2: Bits) -> tuple[Word, Word]:
        """Inner codeword of row index for these bits, and the block it lifts to."""
        _, _, support, inner = self._rows[index]
        x2 = inner.encode(u2)
        return x2, lift_onto_support(self.plan.outer.n, support, x2.symbols, self.plan.q)

    def encode_block(self, stream: MessageStream) -> BlockTrace:
        u1, index, u2 = self._read_block(stream)
        x2, x = self._build_block(index, u2)
        return BlockTrace(u1, self._rows[index][0], u2, x2, x)

    def _decode(self, received: Word) -> tuple[Word, tuple, tuple[int | None, ...], Word]:
        """Binary projection, row of the outer estimate, inner erasure pattern
        and inner estimate of one received block."""
        if received.q != 3 or len(received) != self.plan.outer.n:
            raise ValueError("received word does not match the plan parameters")
        symbols = received.symbols
        y1 = Word(2, tuple(1 if s else 0 for s in symbols))
        row = self._row_of[self._outer.code.nearest(y1)]
        _, _, support, inner = row
        y2 = lower_from_support(symbols, support)
        return y1, row, y2, inner.code.erasure_decode(y2)

    def decode_block_trace(self, received: Word) -> DecodeTrace:
        y1, (x1_hat, u1_hat, support, inner), y2, x2_hat = self._decode(received)
        x_hat = lift_onto_support(
            self.plan.outer.n, support, x2_hat.symbols, self.plan.q
        )
        return DecodeTrace(y1, x1_hat, u1_hat, y2, x2_hat, inner.decode(x2_hat), x_hat)

    def decode_block(self, received: Word) -> tuple[Bits, Bits]:
        _, (_, u1_hat, _, inner), _, x2_hat = self._decode(received)
        return u1_hat, inner.decode(x2_hat)

    def encode_stream(self, bits: Iterable[int]) -> list[Word]:
        """Encode the whole stream; each distinct block is built once per call."""
        stream = MessageStream(bits)
        built: dict[tuple[int, Bits], Word] = {}  # (row index, inner bits) -> block
        blocks: list[Word] = []
        while not stream.drained:
            _, index, u2 = self._read_block(stream)
            x = built.get((index, u2))
            if x is None:
                x = built[index, u2] = self._build_block(index, u2)[1]
            blocks.append(x)
        return blocks

    def decode_stream(self, words: Iterable[Word]) -> Bits:
        """Decode every block in order; each distinct received word is decoded
        once per call, and the first block that fails raises BlockDecodeError."""
        decoded: dict[Word, Bits] = {}  # received word -> its message bits
        out: list[int] = []
        for index, received in enumerate(words):
            bits = decoded.get(received)
            if bits is None:
                try:
                    u1, u2 = self.decode_block(received)
                except ErasureDecodeError as exc:
                    raise BlockDecodeError(f"block {index}: {exc}", index) from exc
                bits = decoded[received] = u1 + u2
            out.extend(bits)
        return tuple(out)
