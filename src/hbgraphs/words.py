"""Digit words over {0,1,2}: values, canonical expansions, classifications.

A word is represented as a plain ``str`` of the characters ``0``, ``1``,
``2``, most significant digit first.  The empty string is the (unique)
expansion of 0.  A word is a *hyperbinary expansion* when it is empty or
its leading digit is nonzero.

A block is a word too: ``decompose`` cuts a minimal expansion into the
block words 1^t 2 and 2^t of the paper's structure theorem.  ``BLOCKS``
is the one copy of the block grammar; ``stern`` cuts its leaves with it,
and ``graphs`` and ``blocks`` take their block words from ``decompose``.
"""

from __future__ import annotations

import enum
import re

_ALPHABET = frozenset("012")
_BIT_TO_DIGIT = str.maketrans("01", "12")
_ONES_BITS = str.maketrans("012", "010")
_TWOS_BITS = str.maketrans("012", "001")

#: The blocks 1^t 2 (type 1) and 2^t (type 2) of a minimal expansion with
#: its trailing 1s stripped, matched left to right: no two type-2 blocks
#: are adjacent, and every digit lies in exactly one block.
BLOCKS = re.compile("1+2|2+")

#: Human-readable rendering of the empty word.
EMPTY_WORD_DISPLAY = "ε"  # ε


class LengthClass(enum.Enum):
    EMPTY = "empty"
    SHORT = "short"
    LONG = "long"


def validate_word(w: str) -> str:
    """Check that ``w`` uses only digits 0, 1, 2 and return it unchanged."""
    if not _ALPHABET.issuperset(w):
        raise ValueError(f"not a word over {{0,1,2}}: {w!r}")
    return w


def is_hyperbinary(w: str) -> bool:
    """True iff ``w`` is empty or starts with a nonzero digit."""
    validate_word(w)
    return w == "" or w[0] != "0"


def validate_expansion(w: str) -> str:
    """Check that ``w`` is a hyperbinary expansion and return it unchanged."""
    if not is_hyperbinary(w):
        raise ValueError(f"not a hyperbinary expansion (leading zero): {w!r}")
    return w


def digit_planes(w: str) -> tuple[int, int]:
    """The 1s and the 2s of a word read as two binary numbers (ones, twos).

    The value of ``w`` is ones + 2 * twos.  Both are linear-time parses;
    ``w`` is not validated.
    """
    return int(w.translate(_ONES_BITS) or "0", 2), int(w.translate(_TWOS_BITS) or "0", 2)


def value(w: str) -> int:
    """Base-2 positional value of a digit word; the empty word gives 0."""
    ones, twos = digit_planes(validate_word(w))
    return ones + 2 * twos


def binary_expansion(n: int) -> str:
    """Ordinary binary expansion of n; n = 0 gives the empty word."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return format(n, "b") if n else ""


def minimal_expansion(n: int) -> str:
    """The unique expansion of n with no 0 digits (shortlex minimum of H(n)).

    With L = (n + 1).bit_length() - 1 it has L digits, and subtracting
    1...1 (L ones) leaves n + 1 - 2^L: its L-digit binary form with
    0 -> 1 and 1 -> 2.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    length = (n + 1).bit_length() - 1
    if not length:
        return ""
    return format(n + 1 - (1 << length), f"0{length}b").translate(_BIT_TO_DIGIT)


def even_core(n: int) -> tuple[int, int]:
    """Strip trailing binary 1s: n = 2^t * m + 2^t - 1 with m even.

    t is the index of the lowest set bit of n + 1 = 2^t (m + 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = ((n + 1) & -(n + 1)).bit_length() - 1
    return (n >> t, t)


def weight(w: str) -> int:
    """Digit sum of the word (drops by exactly 1 along every reduction arc)."""
    validate_word(w)
    return w.count("1") + 2 * w.count("2")


def shortlex_key(w: str) -> tuple[int, str]:
    """Sort key for the shortlex (length, then lexicographic) order."""
    return (len(w), w)


def shortlex_cmp(a: str, b: str) -> int:
    """-1, 0 or 1 according to the shortlex order on digit words."""
    ka, kb = shortlex_key(validate_word(a)), shortlex_key(validate_word(b))
    return (ka > kb) - (ka < kb)


def length_class(w: str) -> LengthClass:
    """Classify an expansion as EMPTY, SHORT or LONG.

    LONG means the digit count equals that of the binary expansion of the
    value; SHORT means one less.  No other digit counts occur for valid
    expansions, so anything else signals corrupted input.
    """
    validate_expansion(w)
    if w == "":
        return LengthClass.EMPTY
    bin_len = value(w).bit_length()
    if len(w) == bin_len:
        return LengthClass.LONG
    if len(w) == bin_len - 1:
        return LengthClass.SHORT
    raise ValueError(f"impossible expansion length for {w!r}")


def decompose(w: str) -> tuple[tuple[str, ...], int]:
    """(block words, count of trailing 1s) of a minimal expansion (digits in {1,2}).

    The block 1^t 2 is type 1 and 2^t type 2; the word is their
    concatenation followed by the trailing 1s.
    """
    if "0" in validate_word(w):
        raise ValueError(f"not a minimal expansion (contains 0): {w!r}")
    core = w.rstrip("1")
    return tuple(BLOCKS.findall(core)), len(w) - len(core)


def render(w: str) -> str:
    """Human rendering of a word: the digit string, or ε for the empty word."""
    return w if w else EMPTY_WORD_DISPLAY
