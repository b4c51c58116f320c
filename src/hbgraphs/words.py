"""Digit words over {0,1,2}: binary and minimal expansions, the even core, blocks.

A word is represented as a plain ``str`` of the characters ``0``, ``1``,
``2``, most significant digit first.  The empty string is the (unique)
expansion of 0, which ``render`` shows as ε.  A word is a *hyperbinary
expansion* when it is empty or its leading digit is nonzero.

A block is a word too: ``decompose`` cuts a minimal expansion into the
block words 1^t 2 and 2^t of the paper's structure theorem.  ``BLOCKS``
is the one copy of the block grammar; ``stern`` cuts its leaves with it,
and ``graphs`` and ``blocks`` take their block words from ``decompose``.
"""

from __future__ import annotations

import re

_ALPHABET = frozenset("012")
_BIT_TO_DIGIT = str.maketrans("01", "12")

#: The blocks 1^t 2 (type 1) and 2^t (type 2) of a minimal expansion with
#: its trailing 1s stripped, matched left to right: no two type-2 blocks
#: are adjacent, and every digit lies in exactly one block.
BLOCKS = re.compile("1+2|2+")

#: Human-readable rendering of the empty word.
EMPTY_WORD_DISPLAY = "ε"  # ε


def validate_word(w: str) -> str:
    """Check that ``w`` uses only digits 0, 1, 2 and return it unchanged."""
    if not _ALPHABET.issuperset(w):
        raise ValueError(f"not a word over {{0,1,2}}: {w!r}")
    return w


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
