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
cuts its digits into leaves of at most ``_LEAF`` digits, runs its own step
rule on a leaf with the two unit vectors packed into one int as lanes of
``_LANE`` bits, keeps the lanes of its two ints, ``_lanes(x) + _lanes(y)``,
as the leaf (transposed in a fold of a row vector, whose leaves multiply
in reverse), and multiplies the leaves as a balanced tree (``_product``).
The leaves cost O(bits) small-int operations, and the tree's top products
are few and large, where Python's Karatsuba multiplication makes the whole
subquadratic.  ``b_recursive`` keeps the classical recursion, in one pass
from n down to 0, as the independent check.  n's digits, and the check
n >= 0, come from ``words.binary_expansion``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from itertools import islice

from .words import BLOCKS, binary_expansion, even_core, minimal_expansion

_LEAF = 256
# A product of L digit matrices of either pair has entries of absolute
# value at most Fib(L + 2) (brute-forced for L <= 14), and a block matrix
# of word length a has row sums at most a + 1 <= 2^a, so a leaf's entries
# stay below 2^(_LEAF + 1) (a leaf of one longer block: at most a + 1):
# signed lanes of _LEAF + 2 bits never carry into each other.
# Algorithm 1's leaves start from a run counter c < bits carried in from
# the leaf before, and their entries stay below (c + 1) Fib(L + 2)
# (brute-forced likewise); Fib(258) < 2^178 leaves room for any c < 2^79.
_LANE = _LEAF + 2
_RUNS = re.compile("0+|1+")


def _product(mats: list[tuple[int, int, int, int]]) -> tuple[int, int, int, int]:
    """The product of 2x2 matrices (a, b, c, d) in list order, as a balanced tree."""
    while len(mats) > 1:
        pairs = [
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            for (a, b, c, d), (e, f, g, h) in zip(mats[::2], mats[1::2])
        ]
        mats = pairs + mats[-1:] if len(mats) % 2 else pairs
    return mats[0] if mats else (1, 0, 0, 1)


def _lanes(x: int) -> tuple[int, int]:
    """The signed low and high lanes of a packed int x = low + high * 2^_LANE."""
    low = x & ((1 << _LANE) - 1)
    if low >> (_LANE - 1):
        low -= 1 << _LANE
    return low, (x - low) >> _LANE


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
    significant first: 0 adds bottom to top, 1 adds top to bottom.  A
    leaf's lanes of top and bottom are the rows of its matrix's transpose.
    """
    bits = binary_expansion(n)
    mats = []
    for i in range(0, len(bits), _LEAF):
        top, bottom = 1, 1 << _LANE
        for ch in bits[i : i + _LEAF]:
            if ch == "0":
                top += bottom
            else:
                bottom += top
        mats.append(_lanes(top) + _lanes(bottom))
    return _product(mats[::-1])[0]


def b_matrix_blocks(n: int) -> int:
    """Same product as b_matrix, grouped over maximal runs of equal bits.

    Uses M0^a = (1 a; 0 1) and M1^a = (1 0; a 1) applied run by run.
    It is an independent cross-check, not a faster b_matrix: the runs of
    a random n average two digits, so it halves the steps but pays a regex
    match and a small-int multiplication per run, and it takes 1.2 to 2.1
    times b_matrix's time from 64k down to 4k bits.
    """
    bits = binary_expansion(n)
    mats = []
    for i in range(0, len(bits), _LEAF):
        top, bottom = 1, 1 << _LANE
        for run in _RUNS.findall(bits, i, i + _LEAF):
            if run[0] == "0":
                top += len(run) * bottom
            else:
                bottom += len(run) * top
        mats.append(_lanes(top) + _lanes(bottom))
    return _product(mats[::-1])[0]


def b_algorithm1(n: int) -> tuple[int, int]:
    """Single right-to-left scan of the binary digits of n.

    Returns (b(n), expensive_steps) where expensive_steps counts the
    multiplicative updates (the two else clauses); it equals the number
    of blocks in the minimal-expansion decomposition of the even core.
    The counters a1, a2 and expensive run across leaves; only (b, s) is
    packed, and the leaf matrices act on the column (b, s).
    """
    d = binary_expansion(n)[::-1]  # d[l] is the coefficient of 2^l
    t = len(d) - 1
    i0 = even_core(n)[1]  # d[:i0] are n's trailing 1s
    if i0 > t:  # n == 0 or n == 2^k - 1: a single all-1s expansion
        return (1, 0)
    i0 += 1  # d[i0 - 1] is necessarily 0 here, nothing to do for it
    a1 = a2 = 0
    expensive = 0
    mats = []
    for i in range(i0, t + 1, _LEAF):
        b, s = 1, 1 << _LANE
        for ch in d[i : i + _LEAF]:
            if ch == "1":
                if a1 == 0:
                    a2 += 1
                else:
                    s = a1 * b + s
                    b = b + s
                    a1 = 0
                    expensive += 1
            else:
                if a2 == 0:
                    a1 += 1
                else:
                    b = b + a2 * s
                    a2 = 0
                    a1 = 1
                    expensive += 1
        mats.append(_lanes(b) + _lanes(s))
    m = _product(mats[::-1])
    b, s = m[0] + m[1], m[2] + m[3]  # from (b, s) = (1, 1)
    if a2:
        expensive += 1
    b = b + a2 * s
    return (b, expensive)


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


def _block_product(n: int) -> tuple[int, int, int, int]:
    """The product, in word order, of the block matrices of n's even core.

    Trailing 1s leave b unchanged.  Each leaf is a run of whole blocks
    ending at a ``2``: at most ``_LEAF`` digits, or one long type-1 block.
    """
    word = minimal_expansion(even_core(n)[0])
    mats = []
    i = 0
    while i < len(word):
        j = word.rfind("2", i, i + _LEAF) + 1 or word.index("2", i) + 1
        h, k = _block_transfer(BLOCKS.findall(word, i, j), 1, 1 << _LANE)
        mats.append(_lanes(h) + _lanes(k))
        i = j
    return _product(mats)


def b_block_formula(n: int) -> int:
    """b(n) as h = row 0 of the block-matrix product times (1, 1)."""
    h0, h1, _, _ = _block_product(n)
    return h0 + h1


def short_expansion_count(n: int) -> int:
    """Number of short expansions of n: k = row 1 of the block-matrix product times (1, 1)."""
    if n < 0 or n % 2:
        raise ValueError("defined here for even n only")
    if n == 0:
        return 0
    _, _, k0, k1 = _block_product(n)
    return k0 + k1


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
    1 maps it to (-y, x + 2y).  The leaves are transposed, as in ``b_matrix``.
    """
    if n < 1:
        raise ValueError("c is defined for n >= 1")
    bits = binary_expansion(n)
    mats = []
    for i in range(0, len(bits), _LEAF):
        x, y = 1, 1 << _LANE
        for ch in bits[i : i + _LEAF]:
            x, y = (x + y, y) if ch == "0" else (-y, x + 2 * y)
        mats.append(_lanes(x) + _lanes(y))
    return _product(mats[::-1])[2]


def v_level_set_even(level: int, max_n: int) -> list[int]:
    """All even n <= max_n with v(n) == level, read off the rows of ``b_and_a_rows``."""
    rows = islice(zip(range(max_n + 1), b_and_a_rows()), 0, None, 2)
    return [n for n, (b, arcs, _) in rows if arcs - b + 1 == level]


def v1_all(max_n: int) -> list[int]:
    """All n <= max_n with v(n) == 1 (the set {(12 +- 1) 2^t - 1})."""
    rows = zip(range(max_n + 1), b_and_a_rows())
    return [n for n, (b, arcs, _) in rows if arcs - b + 1 == 1]
