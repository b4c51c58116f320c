"""Counting functions for hyperbinary expansions, five ways.

b(n) = |H(n)| is computed by the classical recursion, two 2x2 matrix
products over the binary digits (digit-by-digit and run-by-run), an
iterative single-pass scan, and a fold over the block decomposition of
the minimal expansion.  Also: b(n) with the arc count a(n) in one digit
pass (``b_and_a``, for one n), the same pair as one endless stream over
n = 0, 1, 2, ..., each row from the rows at n's halves at O(1) additions
(``b_and_a_rows``, for tables and level sets), the cyclomatic number
v(n), and Stern's diatomic sequence c(n) = b(n - 1) with its own matrix
pair.  All arithmetic is plain Python ints (arbitrary precision), and no
evaluator keeps state between calls.

The matrix evaluators (``b_matrix``, ``b_matrix_blocks``, ``b_algorithm1``,
``b_block_formula``, ``c_matrix``) are digit folds: products of small
integer 2x2 matrices.  Folding one big vector a digit at a time costs
O(bits) additions of O(bits)-bit numbers, O(bits^2) in all.  Instead each
cuts its digits into leaves of at most ``_LEAF`` digits, runs a step rule
on a leaf with the two unit vectors packed into one int as lanes of
``_LANE`` bits, keeps the lanes of its two ints as the leaf, and multiplies
the leaves as a balanced tree (``_product``).  ``b_matrix`` and ``c_matrix``
share ``_digit_fold``, a byte of n at a time through a table of each
byte's matrix.  ``b_algorithm1`` also reads a byte at a time, through its
own table built from its own digit rule (``_ALG1``), and the other two keep
their own step rules, so each stays a check on the others.
The leaves cost O(bits) small-int operations, and the tree's top products
are few and large, where Python's Karatsuba multiplication makes the whole
subquadratic.  ``b_recursive`` keeps the classical recursion, in one pass
from n down to 0, as the independent check.  n's digits, and the check
n >= 0, come from ``words`` (``int.to_bytes`` in the byte kernels).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice, product

from .words import BLOCKS, binary_expansion, even_core, minimal_expansion

_LEAF = 256
# A product of L digit matrices of either pair has entries of absolute
# value at most Fib(L + 2) (brute-forced for L <= 14), and a block matrix
# of word length a has row sums at most a + 1 <= 2^a, so a leaf's entries
# stay below 2^(_LEAF + 1) (a leaf of one longer block: at most a + 1):
# signed lanes of _LEAF + 2 bits never carry into each other.  A byte table
# entry is a product of 8 digit matrices (|entry| <= Fib(10) = 55), a leaf
# _LEAF / 8 of them: the <= 7 zero digits padding n's top byte fix (1, 0).
# Algorithm 1 applies each run count as it is counted, so no counter carries
# into a leaf: a leaf is a product of at most _LEAF of b's digit matrices
# (pad 0s included), and Fib(_LEAF + 2) < 2^178 bounds its entries.
_LANE = _LEAF + 2
_RUNS = re.compile("0+|1+")


def _mul_pairs(pairs: Iterable) -> list[tuple[int, int, int, int]]:
    """The product of each pair of 2x2 matrices (a, b, c, d)."""
    return [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (a, b, c, d), (e, f, g, h) in pairs]


def _product(mats: list[tuple[int, int, int, int]]) -> tuple[int, int, int, int]:
    """The product of 2x2 matrices (a, b, c, d) in list order, as a balanced tree."""
    while len(mats) > 1:
        pairs = _mul_pairs(zip(mats[::2], mats[1::2]))
        mats = pairs + mats[-1:] if len(mats) % 2 else pairs
    return mats[0] if mats else (1, 0, 0, 1)


# each byte's 8 digit matrices multiplied top digit first, by doubling 1 -> 2 -> 4 -> 8 digits, for
# the rules (x, y) <- (a x + c y, b x + d y) of digits 0 and 1: M(0), M(1) of b, C(0), C(1) of c
_B_BYTES, _C_BYTES = [(1, 0, 1, 1), (1, 1, 0, 1)], [(1, 0, 1, 1), (0, 1, -1, 2)]
for _ in range(3):
    _B_BYTES, _C_BYTES = (_mul_pairs(product(t, repeat=2)) for t in (_B_BYTES, _C_BYTES))


def _alg1_byte(t: int, byte: int) -> tuple[int, int, int, int, int, int]:
    """(p, q, r, u, e, 256 t'): Algorithm 1 on a byte, low digit first, each count applied as it is
    counted (see b_algorithm1).  From counter state t (0: a1 = a2 = 0, 1: a1 > 0, 2: a2 > 0) it maps
    the column (b, s) to (p b + q s, r b + u s) in e expensive steps and leaves state t'."""
    p, q, r, u, e = 1, 0, 0, 1, 0
    for i in range(8):
        if byte >> i & 1:  # a 1 adds s to b: it ends an a1 run, or counts into a2
            p, q, e, t = p + r, q + u, e + (t == 1), 0 if t == 1 else 2
        else:  # a 0 adds b to s: it ends an a2 run, or counts into a1
            r, u, e, t = r + p, u + q, e + (t == 2), 1
    return p, q, r, u, e, 256 * t


_ALG1 = [_alg1_byte(t, byte) for t in range(3) for byte in range(256)]


def _digit_fold(n: int, table: list[tuple[int, int, int, int]]) -> tuple[int, int, int, int]:
    """The row (1, 0) through n's digit matrices, top digit first, as entries [0] and [1].

    A leaf takes the rows (1, 0) and (0, 1), packed as (x, y), a byte at a time; the first takes
    (1, 0) alone, so products on the tree's left spine have a zero second row and cost half."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    data = n.to_bytes((n.bit_length() + 7) // 8, "big")
    mats, x, y = [], 1, 0
    for i in range(0, len(data), _LEAF // 8):
        for byte in data[i : i + _LEAF // 8]:
            a, b, c, d = table[byte]
            x, y = a * x + c * y, b * x + d * y
        mats.append(_leaf(x, y))
        x, y = 1, 1 << _LANE
    return _product(mats)


def _leaf(x: int, y: int) -> tuple[int, int, int, int]:
    """The leaf (x0, y0, x1, y1) of packed ints x = x0 + x1 * 2^_LANE and y, all lanes signed."""
    mask, half = (1 << _LANE) - 1, 1 << (_LANE - 1)
    x0, y0 = ((x + half) & mask) - half, ((y + half) & mask) - half
    return x0, y0, (x - x0) >> _LANE, (y - y0) >> _LANE


def b_recursive(n: int) -> int:
    """b(0)=1, b(2n+1)=b(n), b(2n+2)=b(n+1)+b(n), followed from n down to 0 in one pass.

    For q = n >> k it keeps b(n) = x b(q) + y b(q - 1), the two arguments
    the recursion meets at that level.  A 1 bit (q = 2r + 1) does x += y, as
    b(2r + 1) = b(r) and b(2r) = b(r) + b(r - 1); a 0 bit (q = 2r) does
    y += x.  At q = 0, b(0) = 1 and b(-1) = 0 leave x: two big ints are held.
    """
    x, y = 1, 0
    for ch in reversed(binary_expansion(n)):
        if ch == "1":
            x += y
        else:
            y += x
    return x


def b_matrix(n: int) -> int:
    """Top entry of M_{d0} ... M_{dt} (1, 0)^T over the binary digits of n.

    The row vector (top, bottom) = (1, 0) takes the digits most
    significant first: 0 adds bottom to top, 1 adds top to bottom.
    """
    return _digit_fold(n, _B_BYTES)[0]


def b_matrix_blocks(n: int) -> int:
    """Same product as b_matrix, grouped over maximal runs of equal bits.

    Uses M0^a = (1 a; 0 1) and M1^a = (1 0; a 1) applied run by run.
    An independent cross-check, not a faster b_matrix: a random n's runs average two digits,
    but a regex match and a small-int multiplication per run lose to b_matrix's byte steps:
    2.3 to 3.3 times its time from 64k down to 4k bits.  Leaves are laid out as ``_digit_fold``'s,
    the first from (1, 0) alone."""
    bits = binary_expansion(n)
    mats, top, bottom = [], 1, 0
    for i in range(0, len(bits), _LEAF):
        for run in _RUNS.findall(bits, i, i + _LEAF):
            if run[0] == "0":
                top += len(run) * bottom
            else:
                bottom += len(run) * top
        mats.append(_leaf(top, bottom))
        top, bottom = 1, 1 << _LANE
    return _product(mats)[0]


def b_algorithm1(n: int) -> tuple[int, int]:
    """Single right-to-left scan of the binary digits of n, a byte at a time.

    Returns (b(n), expensive_steps) where expensive_steps counts the multiplicative updates (the
    steps that end a run); it equals the number of blocks in the minimal-expansion decomposition
    of the even core.  The step that ends a run of a1 0s does s += a1 b, of a2 1s b += a2 s: as
    maps on the column (b, s) these are elementary matrices E(x), and E(x) E(y) = E(x + y).
    Nothing else touches (b, s) inside a run, so each counted 0 adds b to s at once and each
    counted 1 adds s to b, and only the counter state t is carried from byte to byte (``_ALG1``).
    The one count this leaves pending is an a1 run of pad 0s above n's top bit: it adds to s only,
    which is never read.  Leaves are transposed, to keep scan order; the first takes the row (1, 1)
    alone, so products on the tree's left spine have a zero second row.
    """
    m = n >> even_core(n)[1] + 1  # above n's trailing 1s and the 0 after them
    data = m.to_bytes((m.bit_length() + 7) // 8, "little")
    mats, b, s, t, expensive = [], 1, 1, 0, 0
    for i in range(0, len(data), _LEAF // 8):
        for byte in data[i : i + _LEAF // 8]:
            p, q, r, u, e, t = _ALG1[t + byte]
            b, s = p * b + q * s, r * b + u * s
            expensive += e
        mats.append(_leaf(b, s))
        b, s = 1, 1 << _LANE
    return _product(mats)[0], expensive + (t == 512)  # t = 256 * 2: the final step ends an a2 run


def _block_transfer(blocks: Sequence[str], h: int, k: int) -> tuple[int, int]:
    """The product, in word order, of the block matrices of ``blocks``, times the column (h, k).

    A block 1^t 2 of word length a has matrix (a 1; a-1 1), a block 2^a has
    (1 a; 0 1): from the counts of completions after a block, h after a state
    that ends in 0 and k after one that does not, to those before it.
    """
    for block in reversed(blocks):
        a = len(block)
        if block[0] == "1":
            h, k = a * h + k, (a - 1) * h + k
        else:
            h, k = h + a * k, k
    return h, k


def b_block_formula(n: int) -> int:
    """b(n) as h, row 0 of the block matrices of n's even core, in word order, times (1, 1).

    Trailing 1s leave b unchanged.  Each leaf is a run of whole blocks
    ending at a ``2``: at most ``_LEAF`` digits, or one long type-1 block.
    Leaves are transposed and taken from the word's end, behind the row (1, 1), so products on the
    tree's left spine have a zero second row.
    """
    word = minimal_expansion(even_core(n)[0])
    mats = []
    i = 0
    while i < len(word):
        j = word.rfind("2", i, i + _LEAF) + 1 or word.index("2", i) + 1
        h, k = _block_transfer(BLOCKS.findall(word, i, j), 1, 1 << _LANE)
        mats.append(_leaf(h, k))
        i = j
    return _product([(1, 1, 0, 0), *reversed(mats)])[0]


def b_and_a(n: int) -> tuple[int, int]:
    """(b(n), a(n)) in one pass over the binary digits of n, top bit first.

    For q = n >> k it keeps b(q), a(q), b(q-1), a(q-1) and T(q-1), where
    T(x) counts the expansions of x ending in 2: T(2s+2) = b(s), and T is
    0 at 0 and at odd x.  With a(2r+1) = a(r) and
    a(2r) = a(r) + a(r-1) + b(r-1) - T(r-1), each digit is a few additions.
    """
    b, arcs, b1, arcs1, t1 = 1, 0, 0, 0, 0  # q = 0: b(-1), a(-1), T(-1) are 0
    for ch in binary_expansion(n):
        b_even, arcs_even = b + b1, arcs + arcs1 + b1 - t1  # b(2q), a(2q)
        if ch == "1":
            b1, arcs1, t1 = b_even, arcs_even, b1
        else:
            b, arcs, t1 = b_even, arcs_even, 0
    return b, arcs


def b_and_a_rows() -> Iterator[tuple[int, int, int]]:
    """(b(n), a(n), T(n)) for n = 0, 1, 2, ...: the rules of ``b_and_a``, read off n's halves.

    Rows 2r and 2r + 1 come from rows r - 1 and r of a second stream of
    the same rows, which starts only at n = 2; the k-th nested stream
    starts near n = 2^k, so O(log n) generators are alive at a time.
    """
    yield 1, 0, 0  # n = 0
    yield 1, 0, 0  # n = 1
    halves = b_and_a_rows()
    pb, pa, pt = next(halves)  # row r - 1 = 0
    for b, arcs, t in halves:  # row r = 1, 2, ...
        yield b + pb, arcs + pa + pb - pt, pb  # n = 2r, T(2r) = b(r - 1)
        yield b, arcs, 0  # n = 2r + 1
        pb, pa, pt = b, arcs, t


def v(n: int) -> int:
    """Cyclomatic number of A(n): a(n) - b(n) + 1."""
    b, arcs = b_and_a(n)
    return arcs - b + 1


def a(n: int) -> int:
    """Arc count of A(n) (0 for the one-vertex A(0))."""
    return b_and_a(n)[1]


def c(n: int) -> int:
    """Stern's diatomic sequence: c(n) = b(n - 1), defined for n >= 1."""
    if n < 1:
        raise ValueError("c is defined for n >= 1")
    return b_matrix(n - 1)


def c_matrix(n: int) -> int:
    """c(n) from Stern's own matrix pair C(0) = (1 0; 1 1), C(1) = (0 1; -1 2).

    c(n) is the second entry of the row vector (1, 0) C(d_t) ... C(d_0),
    the digits taken most significant first: 0 maps (x, y) to (x + y, y),
    1 maps it to (-y, x + 2y).
    """
    if n < 1:
        raise ValueError("c is defined for n >= 1")
    return _digit_fold(n, _C_BYTES)[1]


def v_level_set_even(level: int, max_n: int) -> list[int]:
    """All even n <= max_n with v(n) == level, read off the rows of ``b_and_a_rows``."""
    rows = islice(zip(range(max_n + 1), b_and_a_rows()), 0, None, 2)
    return [n for n, (b, arcs, _) in rows if arcs - b + 1 == level]


def v1_all(max_n: int) -> list[int]:
    """All n <= max_n with v(n) == 1 (the set {(12 +- 1) 2^t - 1})."""
    rows = zip(range(max_n + 1), b_and_a_rows())
    return [n for n, (b, arcs, _) in rows if arcs - b + 1 == 1]
