"""Built-in block codes used as building blocks, golden references, and test anchors."""

from __future__ import annotations

from .core import Code, Word


def zero_code(n: int) -> Code:
    """The singleton code containing only the all-zero word (n = 0 allowed)."""
    if n < 0:
        raise ValueError("length must be non-negative")
    return Code(2, n, frozenset({Word(2, (0,) * n)}))


def repetition(n: int) -> Code:
    """[n, 2, n] repetition code."""
    if n < 1:
        raise ValueError("repetition code needs length >= 1")
    return Code.from_generator([Word(2, (1,) * n)])


def single_parity_check(n: int) -> Code:
    """[n, 2^(n-1), 2] even-weight code, generated by a staircase of adjacent pairs.

    Rows run right to left: for n = 5 they are 00011, 00110, 01100, 11000.
    """
    if n < 2:
        raise ValueError("single parity check code needs length >= 2")
    rows = []
    for j in range(n - 1):
        symbols = [0] * n
        symbols[n - 2 - j] = 1
        symbols[n - 1 - j] = 1
        rows.append(Word(2, tuple(symbols)))
    return Code.from_generator(rows)


def extended_hamming_8_4_4() -> Code:
    """[8, 16, 4] extended Hamming code with weight enumerator 1, 14, 1 at 0, 4, 8."""
    return Code.from_generator(
        [
            "10001101",
            "01001011",
            "00100111",
            "00011110",
        ]
    )


def nonlinear_5_4_3() -> Code:
    """Non-linear [5, 4, 3] binary code; its weights are 1, 2, 2, 5."""
    return Code.from_strings(2, ["00100", "11000", "00011", "11111"])


def ternary_5_27_3() -> Code:
    """Optimal [5, 27, 3] ternary code found by computer search."""
    return Code.from_strings(
        3,
        [
            "01112", "00200", "00121", "01001", "01022", "02110", "10010",
            "02221", "10102", "11111", "11120", "11221", "12020", "12101",
            "12202", "12211", "20020", "20012", "11212", "20111", "21100",
            "21211", "21202", "22001", "22210", "22102", "22222",
        ],
    )
