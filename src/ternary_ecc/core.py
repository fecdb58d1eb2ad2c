"""Words over small alphabets, code containers, and the plain-text code file format."""

from __future__ import annotations

from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from ._record import Record

# The text format writes one digit per symbol, so alphabets stop at 10.
MAX_TEXT_ALPHABET = 10


class CodeFormatError(ValueError):
    """A code file violates the on-disk format."""


class ErasureDecodeError(ValueError):
    """Erasure filling found no consistent codeword, or more than one."""


class Word(Record):
    """Immutable fixed-length word over the alphabet {0, ..., q-1}; each symbol
    is an int that is not a bool."""

    __slots__ = ("q", "symbols")

    def __init__(self, q: int, symbols: Iterable[int]) -> None:
        symbols = tuple(symbols)
        if q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {q}")
        for s in symbols:
            # plain ints pass on the first test; bools and non-ints fail
            if s.__class__ is not int and (
                s.__class__ is bool or not isinstance(s, int)
            ) or not 0 <= s < q:
                raise ValueError(f"symbol {s!r} outside alphabet of size {q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "symbols", symbols)

    # The base's equality and hash, spelt out: every decoder and search loop
    # compares and hashes words, and the generic forms cost about 80 ns more.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.q == other.q and self.symbols == other.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.symbols))

    @classmethod
    def from_string(cls, text: str, q: int) -> "Word":
        """Parse a contiguous digit string such as '20010'."""
        if q > MAX_TEXT_ALPHABET:
            raise ValueError(f"digit strings support q <= {MAX_TEXT_ALPHABET}, got {q}")
        if text and not _is_ascii_digits(text):
            raise ValueError(f"non-digit character in word {text!r}")
        return cls(q, tuple(int(ch) for ch in text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, index: int) -> int:
        return self.symbols[index]

    def __lt__(self, other: "Word") -> bool:
        return self.symbols < other.symbols

    def __str__(self) -> str:
        if self.q > MAX_TEXT_ALPHABET:
            raise ValueError(f"digit rendering supports q <= {MAX_TEXT_ALPHABET}")
        return "".join(str(s) for s in self.symbols)


def _is_ascii_digits(text: str) -> bool:
    """True for a non-empty run of 0-9 only; int() also takes '+', '_' and
    non-ASCII digits."""
    return text.isascii() and text.isdigit()


def hamming_weight(word: Word) -> int:
    """Number of non-zero symbols."""
    return sum(1 for s in word.symbols if s != 0)


def hamming_distance(u: Word, v: Word) -> int:
    """Number of positions where the two words differ."""
    _check_compatible(u, v)
    return sum(1 for a, b in zip(u.symbols, v.symbols) if a != b)


def _check_compatible(u: Word, v: Word) -> None:
    if u.q != v.q:
        raise ValueError(f"alphabet mismatch: {u.q} vs {v.q}")
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")


def all_words(q: int, n: int) -> Iterator[Word]:
    """All q-ary words of length n in lexicographic order."""
    for symbols in product(range(q), repeat=n):
        yield Word(q, symbols)


def min_hamming_distance(code: Code) -> int:
    """Minimum pairwise Hamming distance; requires at least two codewords."""
    return code._min_count("hamming")


class Code(Record):
    """Set of equal-length words over one alphabet."""

    # _index caches the sorted words and, per (position, symbol), the mask
    # of their indices; it is built on first use
    __slots__ = ("q", "n", "words", "_index")

    def __init__(self, q: int, n: int, words: Iterable[Word]) -> None:
        words = frozenset(words)
        if not words:
            raise ValueError("a code holds at least one word")
        for w in words:
            if w.q != q:
                raise ValueError(f"word alphabet {w.q} differs from code alphabet {q}")
            if len(w) != n:
                raise ValueError(f"word length {len(w)} differs from block length {n}")
        super().__init__(q, n, words)
        object.__setattr__(self, "_index", None)

    @classmethod
    def from_words(cls, words: Iterable[Word]) -> "Code":
        ws = list(words)
        if not ws:
            raise ValueError("a code holds at least one word")
        return cls(ws[0].q, len(ws[0]), frozenset(ws))

    @classmethod
    def from_strings(cls, q: int, texts: Iterable[str]) -> "Code":
        return cls.from_words(Word.from_string(t, q) for t in texts)

    @classmethod
    def from_generator(cls, rows: Sequence[Word | str]) -> "Code":
        """The binary code spanned by the rows."""
        row_words = tuple(
            r if isinstance(r, Word) else Word.from_string(r, 2) for r in rows
        )
        if not row_words:
            raise ValueError("a generator needs at least one row")
        n = len(row_words[0])
        if any(r.q != 2 or len(r) != n for r in row_words):
            raise ValueError("generator rows must be binary words of one length")
        span = [(0,) * n]
        for row in row_words:
            span += [tuple(a ^ b for a, b in zip(s, row.symbols)) for s in span]
        return cls(2, n, frozenset(Word(2, s) for s in span))

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def info_len(self) -> int | None:
        """log2 of the code size when that is an integer, else None."""
        m = len(self.words)
        k = m.bit_length() - 1
        return k if 1 << k == m else None

    def _codebook(self) -> tuple[tuple[Word, ...], list[list[int]]]:
        """The cached index: codeword j is bit j of every mask, in sorted order."""
        if self._index is None:
            words = tuple(sorted(self.words))
            object.__setattr__(self, "_index", (words, _columns(words, self.q)))
        return self._index

    def sorted_words(self) -> list[Word]:
        return list(self._codebook()[0])

    def _words_at(self, mask: int) -> list[Word]:
        """Codewords at the set bits of mask, smallest first."""
        words = self._codebook()[0]
        return [words[j] for j in _iter_bits(mask)]

    def _scan(
        self, symbols: Sequence[int | None], cost: str
    ) -> tuple[int, list[list[int]]]:
        """Costs of all codewords against a received word, one pass per position.

        "a" forbids non-zero/non-zero disagreements and counts zero-involved
        ones; "ml" also counts matching zeros, as a second class; "hamming"
        counts all disagreements; "consistent" forbids them. None
        positions are free. Returns the mask of finite-cost codewords and,
        per counted class, bit planes: plane k holds bit k of every
        codeword's count.
        """
        words, columns = self._codebook()
        full = (1 << len(words)) - 1
        forbidden = 0
        planes: list[list[int]] = [[], []]
        for column, b in zip(columns, symbols):
            if b is None:
                continue
            disagree = full ^ column[b]
            if cost == "consistent":
                forbidden |= disagree
                continue
            zero_involved = column[0] if b else disagree
            clash = disagree ^ zero_involved
            # (class, mask) pairs, each adding one to the counts under the mask
            if cost == "hamming":
                counted = ((0, disagree),)
            else:
                forbidden |= clash
                counted = ((0, zero_involved),)
                if cost == "ml":
                    counted += ((1, 0 if b else column[0]),)
            for c, carry in counted:
                class_planes = planes[c]
                for k, plane in enumerate(class_planes):
                    if not carry:
                        break
                    class_planes[k], carry = plane ^ carry, plane & carry
                if carry:
                    class_planes.append(carry)
        return full & ~forbidden, planes

    def _min_count(self, cost: str) -> int:
        """Least "b" or "hamming" cost between two distinct codewords: the
        least count of the others in each codeword's planes."""
        words = self._codebook()[0]
        if len(words) < 2:
            raise ValueError("minimum distance needs at least two codewords")
        full = (1 << len(words)) - 1
        best = 2 * self.n
        for j, planes in _pairwise_planes([w.symbols for w in words], self.q, cost):
            best = min(best, _least_count(full ^ (1 << j), planes)[1])
            # distinct words cost at least 1 apart
            if best == 1:
                break
        return best

    def nearest(self, received: Word) -> Word:
        """Closest codeword in Hamming distance; ties go to the smallest word."""
        if received.q != self.q or len(received) != self.n:
            raise ValueError("received word does not match the code's alphabet and length")
        allowed, (planes, _) = self._scan(received.symbols, "hamming")
        best, _ = _least_count(allowed, planes)
        return self._codebook()[0][(best & -best).bit_length() - 1]

    def erasure_decode(self, pattern: Sequence[int | None]) -> Word:
        """Unique codeword agreeing with every non-erased position of the pattern.

        Erased positions are None. Raises ErasureDecodeError when no codeword
        or more than one codeword is consistent.
        """
        if len(pattern) != self.n:
            raise ValueError(f"pattern length {len(pattern)} differs from block length {self.n}")
        if any(p is not None and not 0 <= p < self.q for p in pattern):
            raise ValueError(f"pattern symbol outside alphabet of size {self.q}")
        matches, _ = self._scan(pattern, "consistent")
        if not matches:
            raise ErasureDecodeError("no codeword consistent with the unerased positions")
        if matches.bit_count() > 1:
            raise ErasureDecodeError(
                f"{matches.bit_count()} codewords consistent with the unerased positions"
            )
        return self._codebook()[0][matches.bit_length() - 1]


def _columns(rows: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    """The column index of q-ary rows of one length: entry [i][s] is the mask
    of the rows that read s at coordinate i, row j being bit j."""
    columns = [[0] * q for _ in range(len(rows[0]) if rows else 0)]
    for j, row in enumerate(rows):
        for column, s in zip(columns, row):
            column[s] |= 1 << j
    return columns


def _iter_bits(mask: int) -> Iterator[int]:
    """The indexes of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _least_count(candidates: int, planes: Sequence[int]) -> tuple[int, int]:
    """The candidates of least bit-plane count, and that count (meaningless
    when there are no candidates); found by descending from the top plane."""
    count = 0
    for k in range(len(planes) - 1, -1, -1):
        rest = candidates & ~planes[k]
        if rest:
            candidates = rest
        else:
            count |= 1 << k
    return candidates, count


def _at_least(candidates: int, planes: Sequence[int], t: int) -> int:
    """The candidates whose bit-plane count is at least t >= 0; compared from
    the top bit of t or of the planes down, keeping the candidates already
    above t and those equal to t so far."""
    above, equal = 0, candidates
    for k in range(max(len(planes), t.bit_length()) - 1, -1, -1):
        plane = planes[k] if k < len(planes) else 0
        if t >> k & 1:
            equal &= plane
        else:
            above |= equal & plane
            equal &= ~plane
    return above | equal


def _pairwise_planes(
    rows: Sequence[tuple[int, ...]], q: int, cost: str
) -> Iterator[tuple[int, list[int]]]:
    """Per row j, the pair (j, planes): the bit planes of its cost against
    every row (row j is bit j, plane k holds bit k of each count). "hamming"
    counts disagreements, and "b" (dist_b) counts non-zero/non-zero ones twice.

    The rows must be distinct and of one length (ValueError otherwise), in
    any order; they are visited in sorted order. The planes after a prefix
    depend on that prefix alone, so a stack keeps them per coordinate, and
    each row resumes from the previous row's planes at their common prefix
    and adds only the coordinates after it.
    """
    n = len(rows[0]) if rows else 0
    full = (1 << len(rows)) - 1
    # per (coordinate, symbol): the words costing 1 there, and those costing 2
    adds = [
        [
            (col[0], full ^ col[0] ^ col[b]) if b and cost == "b" else (full ^ col[b], 0)
            for b in range(q)
        ]
        for col in _columns(rows, q)
    ]
    # counts are at most 2n, so the planes never need to grow
    stack = [[0] * (2 * n).bit_length()] + [[]] * n
    prev = None
    for j in sorted(range(len(rows)), key=rows.__getitem__):
        row = rows[j]
        if len(row) != n:
            raise ValueError("words must be of one length")
        p = 0
        if prev is not None:
            while p < n and prev[p] == row[p]:
                p += 1
            if p == n:
                raise ValueError("words must be distinct")
        for i in range(p, n):
            planes = stack[i].copy()
            ones, twos = adds[i][row[i]]
            low = planes[0]
            planes[0] = low ^ ones
            carry = twos | (low & ones)  # low & ones lies in ones, apart from twos
            k = 1
            while carry:
                plane = planes[k]
                planes[k] = plane ^ carry
                carry &= plane
                k += 1
            stack[i + 1] = planes
        yield j, stack[n]
        prev = row


# perfbench's stream workload traces Code.nearest and Code.erasure_decode
# under this older name; drop it when that workload is next changed.
BinaryBlockCode = Code


class WeightEnumerator(Record):
    """Counts of codewords per Hamming weight, indexed 0..n."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: Iterable[int]) -> None:
        counts = tuple(counts)
        if len(counts) != n + 1:
            raise ValueError(f"expected {n + 1} counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("weight counts must be non-negative")
        super().__init__(n, counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def nonzero_weights(self) -> list[int]:
        return [d for d, c in enumerate(self.counts) if c]


def weight_enumerator(code: Code) -> WeightEnumerator:
    """Count codewords of each Hamming weight."""
    counts = [0] * (code.n + 1)
    for w in code.words:
        counts[hamming_weight(w)] += 1
    return WeightEnumerator(code.n, tuple(counts))


def save_code(code: Code, target: str | Path | TextIO) -> None:
    """Write a code in the text format: a 'q n M' header, then one word per line."""
    if code.q > MAX_TEXT_ALPHABET:
        raise ValueError(f"text format supports q <= {MAX_TEXT_ALPHABET}")
    lines = [f"{code.q} {code.n} {code.size}"]
    lines.extend(str(w) for w in code.sorted_words())
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="ascii")
    else:
        target.write(text)


def load_code(source: str | Path | TextIO) -> Code:
    """Read a code from the text format; malformed input raises CodeFormatError."""
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="ascii")
        except UnicodeDecodeError as exc:
            raise CodeFormatError(f"{source}: not an ASCII file") from exc
    else:
        text = source.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CodeFormatError("empty code file")
    header = lines[0].split(" ")
    if len(header) != 3:
        raise CodeFormatError(f"malformed header {lines[0]!r}, expected 'q n M'")
    if not all(_is_ascii_digits(part) for part in header):
        raise CodeFormatError(f"malformed header {lines[0]!r}")
    try:
        q, n, m = (int(part) for part in header)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise CodeFormatError(f"malformed header {lines[0]!r}") from exc
    if not 2 <= q <= MAX_TEXT_ALPHABET:
        raise CodeFormatError(f"alphabet size {q} outside 2..{MAX_TEXT_ALPHABET}")
    if m < 1:
        raise CodeFormatError(f"invalid dimensions n={n}, M={m}")
    body = lines[1:]
    if len(body) != m:
        raise CodeFormatError(f"header promises {m} words, file holds {len(body)}")
    words: set[Word] = set()
    for lineno, line in enumerate(body, start=2):
        if len(line) != n:
            raise CodeFormatError(f"line {lineno}: expected {n} symbols, got {len(line)}")
        try:
            word = Word.from_string(line, q)
        except ValueError as exc:
            raise CodeFormatError(f"line {lineno}: {exc}") from exc
        if word in words:
            raise CodeFormatError(f"line {lineno}: duplicate codeword {line!r}")
        words.add(word)
    return Code(q, n, frozenset(words))
