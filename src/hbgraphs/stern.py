"""Counting functions for hyperbinary expansions, five ways.

b(n) = |H(n)| is computed by the classical recursion, two 2x2 matrix
products over the binary digits (digit-by-digit and run-by-run), an
iterative single-pass scan, and a fold over the block decomposition of
the minimal expansion.  Also: b(n) with the arc count a(n) in one digit
pass, the cyclomatic number v(n), and Stern's diatomic sequence
c(n) = b(n - 1) with its own matrix pair.  All arithmetic is plain Python
ints (arbitrary precision), and no evaluator keeps state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockKind, decompose
from .iso import even_core
from .words import minimal_expansion


@dataclass
class SternCounters:
    """The (h, k) accumulator pair of the block-fold formula; h >= k >= 0."""

    h: int = 1
    k: int = 1


def b_recursive(n: int) -> int:
    """b(0)=1, b(2n+1)=b(n), b(2n+2)=b(n+1)+b(n); explicit stack, memo per call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    memo = {0: 1}
    stack = [n]
    while stack:
        m = stack[-1]
        if m in memo:
            stack.pop()
            continue
        if m % 2:
            p = (m - 1) // 2
            if p in memo:
                memo[m] = memo[p]
                stack.pop()
            else:
                stack.append(p)
        else:
            p, q = m // 2, m // 2 - 1
            pending = [x for x in (p, q) if x not in memo]
            if pending:
                stack.extend(pending)
            else:
                memo[m] = memo[p] + memo[q]
                stack.pop()
    return memo[n]


def b_matrix(n: int) -> int:
    """Top entry of M_{d0} ... M_{dt} (1, 0)^T over the binary digits of n.

    Folded right to left: the most significant digit acts on the vector
    first, so the full product is never materialized.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top, bottom = 1, 0
    for ch in format(n, "b") if n else "":
        if ch == "0":
            top += bottom
        else:
            bottom += top
    return top


def b_matrix_blocks(n: int) -> int:
    """Same product as b_matrix, grouped over maximal runs of equal bits.

    Uses M0^a = (1 a; 0 1) and M1^a = (1 0; a 1) applied run by run.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top, bottom = 1, 0
    bits = format(n, "b") if n else ""
    i = 0
    while i < len(bits):
        j = i
        while j < len(bits) and bits[j] == bits[i]:
            j += 1
        a = j - i
        if bits[i] == "0":
            top += a * bottom
        else:
            bottom += a * top
        i = j
    return top


def b_algorithm1(n: int) -> tuple[int, int]:
    """Single right-to-left scan of the binary digits of n.

    Returns (b(n), expensive_steps) where expensive_steps counts the
    multiplicative updates (the two else clauses); it equals the number
    of blocks in the minimal-expansion decomposition of the even core.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    bits = format(n, "b") if n else ""
    t = len(bits) - 1
    # d[l] is the coefficient of 2^l
    d = bits[::-1]
    i0 = 0
    while i0 <= t and d[i0] == "1":
        i0 += 1
    if i0 > t:
        # n == 0 or n == 2^k - 1: a single all-1s expansion
        return (1, 0)
    i0 += 1  # d[i0 - 1] is necessarily 0 here, nothing to do for it
    a1 = a2 = 0
    b, s = 1, 1
    expensive = 0
    for ell in range(i0, t + 1):
        if d[ell] == "1":
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
    if a2:
        expensive += 1
    b = b + a2 * s
    return (b, expensive)


def two_factor_count(b0: int, b2: int, b_n2: int, s: int) -> int:
    """b(n) from a two-factor split: b0 * b(n2) + b2 * s.

    b0 and b2 count expansions of the first factor ending in 0 and in 2;
    s counts the short-or-empty expansions of the second factor.
    """
    if min(b0, b2, b_n2, s) < 0:
        raise ValueError("arguments must be nonnegative")
    return b0 * b_n2 + b2 * s


def _fold_blocks(n: int) -> SternCounters:
    core, _ = even_core(n)  # trailing 1s leave b unchanged
    counters = SternCounters()
    for block in reversed(decompose(minimal_expansion(core)).blocks):
        a, h, k = block.word_length, counters.h, counters.k
        if block.kind is BlockKind.TYPE1:
            counters.h, counters.k = a * h + k, (a - 1) * h + k
        else:
            counters.h, counters.k = h + a * k, k
    return counters


def b_block_formula(n: int) -> int:
    """b(n) as the final h of the right-to-left block fold."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _fold_blocks(n).h


def short_expansion_count(n: int) -> int:
    """Number of short expansions of n (the final k of the block fold)."""
    if n < 0 or n % 2:
        raise ValueError("defined here for even n only")
    if n == 0:
        return 0
    return _fold_blocks(n).k


def b_and_a(n: int) -> tuple[int, int]:
    """(b(n), a(n)) in one pass over the binary digits of n, top bit first.

    For q = n >> k it keeps b(q), a(q), b(q-1), a(q-1) and T(q-1), where
    T(x) counts the expansions of x ending in 2: T(2s+2) = b(s), and T is
    0 at 0 and at odd x.  With a(2r+1) = a(r) and
    a(2r) = a(r) + a(r-1) + b(r-1) - T(r-1), each digit is a few additions.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    b, arcs, b1, arcs1, t1 = 1, 0, 0, 0, 0  # q = 0: b(-1), a(-1), T(-1) are 0
    for ch in format(n, "b") if n else "":
        b_even, arcs_even = b + b1, arcs + arcs1 + b1 - t1  # b(2q), a(2q)
        if ch == "1":
            b1, arcs1, t1 = b_even, arcs_even, b1
        else:
            b, arcs, t1 = b_even, arcs_even, 0
    return b, arcs


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
    the digits taken most significant first.  The vector is folded digit
    by digit, so no matrix is formed.
    """
    if n < 1:
        raise ValueError("c is defined for n >= 1")
    x, y = 1, 0
    for ch in format(n, "b"):
        x, y = (x + y, y) if ch == "0" else (-y, x + 2 * y)
    return y


def v_level_set_even(level: int, max_n: int) -> list[int]:
    """All even n <= max_n with v(n) == level, from the recursion."""
    return [n for n in range(0, max_n + 1, 2) if v(n) == level]


def v1_all(max_n: int) -> list[int]:
    """All n <= max_n with v(n) == 1 (the set {(12 +- 1) 2^t - 1})."""
    return [n for n in range(max_n + 1) if v(n) == 1]
