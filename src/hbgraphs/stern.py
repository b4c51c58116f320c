"""Counting functions for hyperbinary expansions, five ways.

b(n) = |H(n)| is computed by the classical recursion, two 2x2 matrix
products over the binary digits (digit-by-digit and run-by-run), an
iterative single-pass scan, and a fold over the block decomposition of
the minimal expansion.  Also: b(n) with the arc count a(n), folding the
blocks' dual matrices M + εN (``b_and_a``, for one n), the same pair as
one endless stream over n = 0, 1, 2, ..., each row from the rows at n's
halves at O(1) additions (``b_and_a_rows``, for tables and level sets),
the cyclomatic number v(n), and Stern's diatomic sequence c(n) = b(n - 1)
with its own matrix pair.  All arithmetic is plain Python ints (arbitrary
precision), and no evaluator keeps state between calls.

The matrix evaluators (``b_matrix``, ``b_matrix_blocks``, ``b_algorithm1``,
``b_block_formula``, ``c_matrix``, and ``b_and_a`` over dual matrices) are
digit folds: products of small integer 2x2 matrices.  Folding one big
vector a digit at a time costs O(bits) additions of O(bits)-bit numbers,
O(bits^2) in all.  Instead each cuts its digits into leaves of at most
``_LEAF`` digits, runs a step rule on a leaf with the two unit vectors
packed into one int as lanes of ``_LANE`` bits, keeps its ints as the
leaf, and multiplies the leaves as a balanced tree that computes only the
entry the caller reads (``_entry``).  ``b_matrix`` and ``c_matrix``
share ``_digit_fold``, a byte of n at a time through a table of each
byte's matrix.  ``b_algorithm1`` and ``b_matrix_blocks`` read bytes through
their own tables built from digits (``_ALG1`` by Algorithm 1's rule, ``_RUNS``
of runs), and ``b_block_formula`` keeps its own step rule: each checks the others.
The leaves cost O(bits) small-int operations, and the tree's top products
are few and large, where Python's Karatsuba multiplication makes the whole
subquadratic.  ``b_recursive`` keeps the classical recursion, in one pass
from n down to 0, as the independent check.  n's digits, and the check
n >= 0, come from ``words`` (``int.to_bytes`` in the byte kernels).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice, product

from .structure import block_transfer, dual_transfer
from .words import binary_expansion, even_core, minimal_expansion

_LEAF = 256
# A product of L digit matrices of either pair has entries of absolute
# value at most Fib(L + 2) (brute-forced for L <= 14), and a block matrix
# M_t of word length t + 1 has row sums <= t + 2 <= 2^(t + 1), so a leaf's
# entries are at most 2^_LEAF (a leaf of one longer block: t + 2).  As
# 0 <= N_t <= M_t, the ε part of a leaf with s <= _LEAF 2s, a sum of s
# products, is at most s times that, below 2^(_LEAF + 8): a leaf's arcs are
# at most its digits times its b.  Signed lanes of _LEAF + 10 bits never
# carry into each other.  A byte table entry is a product of 8 digit
# matrices (|entry| <= Fib(10) = 55), a leaf _LEAF / 8 of them: the <= 7
# zero digits padding n's top byte fix (1, 0).
# Algorithm 1 applies each run count as it is counted, and b_matrix_blocks cuts
# runs at bytes, so a leaf, and each step in it, is a product of at most _LEAF
# of b's digit matrices (pad 0s included), entries <= Fib(_LEAF + 2) < 2^178.
_LANE = _LEAF + 10


def _mul_pairs(pairs: Iterable) -> list[tuple[int, int, int, int]]:
    """The product of each pair of 2x2 matrices (a, b, c, d)."""
    return [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (a, b, c, d), (e, f, g, h) in pairs]


def _mul_duals(pairs: Iterable) -> list[tuple[int, ...]]:
    """(A, E)(B, F) = (AB, AF + EB), as ε^2 = 0, for each pair of A + εE = (a, ..., h)."""
    return [(a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s,
             a * t + b * v + e * p + f * r, a * u + b * w + e * q + f * s,
             c * t + d * v + g * p + h * r, c * u + d * w + g * q + h * s)
            for (a, b, c, d, e, f, g, h), (p, q, r, s, t, u, v, w) in pairs]


def _entry(leaves: list[tuple[int, ...]], j: int, mul=_mul_pairs) -> tuple[int, ...]:
    """Entry (0, j) of the product of the leaves in list order, as a balanced tree: (x,) for leaves
    (x, y) of packed rows (``_leaf``), (x, x') for dual leaves (x, y, x', y'), x' the ε part.

    The first leaf is a start row alone: one leaf is its own entry, and the tree's left spine has
    a zero second row.  The last keeps only its column j, so the right spine has a zero column."""
    if len(leaves) == 1:
        return leaves[0][j::2]
    *mats, last = (_leaf(*ints) for ints in leaves)
    mats.append(tuple(x if i % 2 == j else 0 for i, x in enumerate(last)))
    while len(mats) > 1:
        pairs = mul(zip(mats[::2], mats[1::2]))
        mats = pairs + mats[-1:] if len(mats) % 2 else pairs
    return mats[0][j::4]


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


# each byte's (ones, zeros) per 1-run and the 0-run after it, top digit first, built a digit at a
# time from (0, 0); only the first pair may lack 1s, only the last 0s; each pair is one of _PAIRS
_PAIRS = [[(ones, zeros) for zeros in range(9 - ones)] for ones in range(9)]
_RUNS = [((0, 0),)]
for _ in range(8):
    _RUNS = [new for runs in _RUNS for ones, zeros in runs[-1:] for new in (
        runs[:-1] + (_PAIRS[ones][zeros + 1],),  # a 0 lengthens the last 0-run
        runs + (_PAIRS[1][0],) if zeros else runs[:-1] + (_PAIRS[ones + 1][0],))]  # a 1


def _digit_fold(n: int, table: list[tuple[int, int, int, int]], j: int) -> int:
    """Entry j of the row (1, 0) through n's digit matrices, top digit first.

    A leaf takes the rows (1, 0) and (0, 1), packed as (x, y), a byte at a time; the first takes
    (1, 0) alone.  n = 0 is one zero byte."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    data = n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")
    leaves, x, y = [], 1, 0
    for i in range(0, len(data), _LEAF // 8):
        for byte in data[i : i + _LEAF // 8]:
            a, b, c, d = table[byte]
            x, y = a * x + c * y, b * x + d * y
        leaves.append((x, y))
        x, y = 1, 1 << _LANE
    return _entry(leaves, j)[0]


def _leaf(x: int, y: int, *rest: int) -> tuple[int, ...]:
    """(x0, y0, x1, y1) of packed ints x = x0 + x1 * 2^_LANE and y, lanes signed, and so on."""
    mask, half = (1 << _LANE) - 1, 1 << (_LANE - 1)
    x0, y0 = ((x + half) & mask) - half, ((y + half) & mask) - half
    return (x0, y0, (x - x0) >> _LANE, (y - y0) >> _LANE, *(rest and _leaf(*rest)))


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
    return _digit_fold(n, _B_BYTES, 0)


def b_matrix_blocks(n: int) -> int:
    """Same product as b_matrix, grouped over maximal runs of equal bits.

    Uses M1^a = (1 0; a 1) and M0^a = (1 a; 0 1), a 1-run and the 0-run after it per step, from
    each byte's runs (``_RUNS``): a run across a byte's edge goes in two parts, M^a M^b = M^(a + b),
    in leaves laid out as ``_digit_fold``'s.
    A cross-check, not a faster b_matrix: a small-int multiplication per run (of two digits on
    average) loses to its byte steps, 1.7 to 1.2 times its time from 4k to 256k bits."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    data = n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")
    leaves, top, bottom = [], 1, 0
    for i in range(0, len(data), _LEAF // 8):
        for byte in data[i : i + _LEAF // 8]:
            for ones, zeros in _RUNS[byte]:
                bottom += ones * top
                top += zeros * bottom
        leaves.append((top, bottom))
        top, bottom = 1, 1 << _LANE
    return _entry(leaves, 0)[0]


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
    data = m.to_bytes((m.bit_length() + 7) // 8 or 1, "little")
    leaves, b, s, t, expensive = [], 1, 1, 0, 0
    for i in range(0, len(data), _LEAF // 8):
        for byte in data[i : i + _LEAF // 8]:
            p, q, r, u, e, t = _ALG1[t + byte]
            b, s = p * b + q * s, r * b + u * s
            expensive += e
        leaves.append((b, s))
        b, s = 1, 1 << _LANE
    return _entry(leaves, 0)[0], expensive + (t == 512)  # t = 256 * 2: the last step ends an a2 run


def _block_leaves(n: int, transfer, *eps: int) -> list[tuple[int, ...]]:
    """``transfer`` on the leaves of n's even core's minimal expansion, transposed and from the
    word's end, the first from the row (1, 1) alone, the others from the packed rows, with ε column
    ``eps``.  Trailing 1s change neither b nor a.  A leaf ends at a 2 and starts after one or at
    the word's start: at most ``_LEAF`` digits, or one long block 1^t 2."""
    word = minimal_expansion(even_core(n)[0])
    leaves, j, k = [], len(word), 1
    while True:
        i = 0 if j <= _LEAF else (word.find("2", j - _LEAF - 1, j - 1) + 1
                                  or word.rfind("2", 0, j - 1) + 1)  # or that long 1^t 2
        leaves.append(transfer(word[i:j], 1, k, *eps))
        if not i:
            return leaves
        j, k = i, 1 << _LANE


def b_block_formula(n: int) -> int:
    """b(n) as h, row 0 of the block matrices of n's even core, in word order, times (1, 1)."""
    return _entry(_block_leaves(n, block_transfer), 0)[0]


def b_and_a(n: int) -> tuple[int, int]:
    """(b(n), a(n)): row 0 of the dual block matrices M + εN of n's even core times (1, 1).

    N counts arcs as M counts vertices (``structure.dual_transfer``), so the ε part, a sum of
    products with one M swapped for its N, counts the pairs of a vertex and one of its arcs."""
    return _entry(_block_leaves(n, dual_transfer, 0, 0), 0, _mul_duals)


def b_and_a_rows() -> Iterator[tuple[int, int, int]]:
    """(b(n), a(n), T(n)) for n = 0, 1, 2, ..., each row read off the rows at n's halves.

    T(x) counts the expansions of x ending in 2: T(2s + 2) = b(s), and T is
    0 at odd x; a(2r + 1) = a(r) and a(2r) = a(r) + a(r-1) + b(r-1) - T(r-1).
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
    return _digit_fold(n, _C_BYTES, 1)


def v_level_set_even(level: int, max_n: int) -> list[int]:
    """All even n <= max_n with v(n) == level, read off the rows of ``b_and_a_rows``."""
    rows = islice(zip(range(max_n + 1), b_and_a_rows()), 0, None, 2)
    return [n for n, (b, arcs, _) in rows if arcs - b + 1 == level]


def v1_all(max_n: int) -> list[int]:
    """All n <= max_n with v(n) == 1 (the set {(12 +- 1) 2^t - 1})."""
    rows = zip(range(max_n + 1), b_and_a_rows())
    return [n for n, (b, arcs, _) in rows if arcs - b + 1 == 1]
