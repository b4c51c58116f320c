"""The structure theorem: A(n) as an induced subgraph of a product of block paths.

The expansions of each block of n (``words.decompose``) form a path of states
(``block_states``), and A(n) embeds as an induced subgraph into the Cartesian product of
these paths: a vertex is a tuple of block states admissible by one table, ``block_flags``,
their lexicographic order the shortlex order of the words, and an arc steps one state, its
place, to the vertex a fixed stride of ids on.  ``walk`` generates A(n) so, in id order, as
pieces that ``column`` reads, after a count pass, ``suffix_counts``, that checks the limits
and makes no word; ``block_transfer`` counts a state's completions by the paper's block
matrices, and ``dual_transfer`` their arcs too, which ``stern`` folds.  ``count_tuples``
counts the tuples off the table alone, with no word and no matrix, for ``verify``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, repeat
from operator import add

from .words import decompose, minimal_expansion

DEFAULT_LIMIT = 10**6
#: digits allowed per vertex of the limit: the words of H(n) may hold at most 64 * limit
DIGITS_PER_VERTEX = 64
#: most completions in a template of ``walk``, which cuts the blocks at the first suffix this small
TEMPLATE_SIZE = 1024


class SizeLimitError(Exception):
    """Raised when H(n) would exceed the vertex limit, or its words 64 digits per vertex of it."""


class Label:
    SINGLE = "single"  # ->   patterns x02y -> x10y and 2y -> 10y
    DOUBLE = "double"  # ->>  pattern  x12y -> x20y


Pieces = namedtuple("Pieces", "prefixes templates blocks")


def block_transfer(word: str, h: int, k: int) -> tuple[int, int]:
    """The product, in word order, of the block matrices of ``word`` (1s and 2s, ending in 2 or
    empty), times (h, k).  A block 1^t 2 has matrix M_t = (t+1 1; t 1), a block 2^a has
    (1 a; 0 1) = M_0^a: from the counts of completions after a block, h after a state that ends in
    0 and k after one that does not, to those before it.  So each 2, with the t >= 0 1s just
    before it, applies M_t, and the word may start inside a 2^a."""
    for t in map(len, word.split("2")[-2::-1]):  # from the word's last 2 back
        k += t * h
        h += k
    return h, k


def dual_transfer(word: str, h: int, k: int, hp: int, kp: int) -> tuple[int, int, int, int]:
    """``block_transfer`` over the dual matrices M_t + εN_t, ε^2 = 0, times (h, k) + ε(hp, kp).

    M counts a block's admissible states by their completions, N those with an out-arc: all but
    the last, which ends in 0, or in row 1 of 2^a is the block word.  So N_t = M_t - (1 0; 1 0)
    for t > 0 and N_0 = M_0 - I (2^a's N is the ε part of (M_0 + εN_0)^a), and a product's ε
    part counts the arcs of the completions."""
    for t in map(len, word.split("2")[-2::-1]):
        if t:  # (hp, kp) <- M_t (hp, kp) + M_t (h, k) - (h, h)
            k += t * h
            kp += t * hp + k - h
            hp += kp + h
        else:  # (hp, kp) <- M_0 (hp, kp) + (k, 0)
            hp += kp + k
        h += k
    return h, k, hp, kp


def block_flags(block: str, e: int = 1) -> list[tuple[bool, bool]]:
    """(long, ends in 0) of one block's states admissible after a state that ends in 0 iff e, with
    no word: a long state only after a final 0.  Long states end the path: these are a prefix."""
    if block[0] == "1":  # 1^(t-i) 2 0^i for i = 0..t, then the long 1 0^(t+1)
        return [(False, False)] + [(False, True)] * (len(block) - 1) + [(True, True)] * e
    return [(False, False)] + ([(True, False)] * (len(block) - 1) + [(True, True)]) * e


def block_states(block: str, first: bool) -> list[tuple[str, bool, bool, tuple | None]]:
    """The path of one block's expansions, in closed form, from the block word on.

    Each state is (word, long, ends in 0, step), its flags ``block_flags``'s (long: its word is
    longer than the block's), and ``step`` the (label, local position) of the arc to the next
    state, None for the last.  The leading ``2y -> 10y`` step rewrites the 0 before the block:
    local position -1, or 0 for the first block.
    """
    lead = (Label.SINGLE, 0 if first else -1)
    if block[0] == "1":  # 1^t 2: 1^(t-i) 2 0^i for i = 0..t, then 1 0^(t+1)
        t = len(block) - 1
        words = [block[i:] + "0" * i for i in range(t + 1)] + ["1" + "0" * (t + 1)]
        steps = [(Label.DOUBLE, t - i - 1) for i in range(t)] + [lead, None]
    else:  # 2^t: 2^t, then 1^i 0 2^(t-i) for i = 1..t
        t = len(block)
        words = [block] + ["1" * i + "0" + block[i:] for i in range(1, t + 1)]
        steps = [lead] + [(Label.SINGLE, i) for i in range(1, t)] + [None]
    return [(w, *flag, step) for w, flag, step in zip(words, block_flags(block), steps)]


def count_tuples(n: int) -> int:
    """b(n), the count of admissible tuples of block states, by ``block_flags``: no word made."""
    c = [0, 1]  # c[e]: the tuples over the blocks so far whose last state ends in 0 iff e
    for block in decompose(minimal_expansion(n))[0]:
        c, last = [0, 0], c
        for e in (0, 1):
            for _, zero in block_flags(block, e):
                c[zero] += last[e]
    return sum(c)


def suffix_counts(n: int, limit: int) -> tuple[list[str], int, list[tuple[int, int]], int]:
    """``walk``'s count pass, which makes no state word: n's block words and trailing 1s, the
    counts of completions, and the cut.  ``counts[p][e]`` is the admissible completions from
    block p on, after a state that ends in 0 iff e, so ``counts[0][1]`` is b(n).  Raises
    ``walk``'s SizeLimitErrors."""
    blocks, ones = decompose(minimal_expansion(n))
    # no block lowers h and k <= h, so no suffix has more than the whole, and a refused n
    # stops at the first suffix over ``limit``, before its counts grow big
    counts = [(1, 1)]
    for block in reversed(blocks):
        k, h = counts[-1]
        if h > limit:
            break
        h, k = block_transfer(block, h, k)
        counts.append((k, h))
    counts.reverse()
    bits = n.bit_length()  # the longest word's length; n itself may be too long to print
    if counts[0][1] > limit:
        raise SizeLimitError(f"|H(n)| exceeds limit {limit} for n of {bits} bits")
    if counts[0][1] * bits > DIGITS_PER_VERTEX * limit:
        raise SizeLimitError(f"{counts[0][1]} word{'s' * (counts[0][1] != 1)} of up to {bits}"
                             f" digits may exceed {DIGITS_PER_VERTEX} * limit {limit} digits")
    cut = sum(h > TEMPLATE_SIZE for _, h in counts)  # the suffixes of more than TEMPLATE_SIZE
    return blocks, ones, counts, cut


def walk(n: int, limit: int) -> Pieces:
    """A(n) as the admissible prefixes over blocks 1..cut, and templates of their completions.

    A vertex is a tuple x_1 ... x_k of block states, each x_p admissible after x_(p-1) by
    ``block_flags``; its word joins the state words, each dropping its final 0 before a long
    state, then n's trailing 1s.  Extending every tuple by the states of the next block, level
    by level, emits them in id order.  The arc x_p -> x_p + 1 goes C ids on, C the count of
    completions after x_p (fixed by whether x_p ends in 0); its place is p, and it rewrites
    the digit r places from the end.

    A prefix, over blocks 1..cut, is (head, ends in 0, arc steps): its word
    less a final 0, where template 1 starts.  A template is (words, each
    one's arc steps), and a vertex head + word, with the prefix's steps, then
    the word's, each (stride, label, r, place) a tuple shared by all that
    take it.  ``cut`` is the first suffix of at most ``TEMPLATE_SIZE``
    completions: 0 for a small A(n), one empty prefix and template 1 the
    graph; ``blocks`` are n's block words.  Raises SizeLimitError, before any
    state word is made, when there are more than ``limit`` tuples, or when
    they times n's bit length exceeds ``DIGITS_PER_VERTEX * limit`` digits.
    """
    blocks, ones, counts, cut = suffix_counts(n, limit)

    def extend(level: list, lo: int, hi: int) -> list:
        width = sum(map(len, blocks[lo:])) + ones  # the digits from block lo on
        for p in range(lo, hi):
            width -= len(blocks[p])  # now the digits after block p
            # each state, and its arc to the next: x_p ... x_k take width + len(w) digits, and a
            # final 0 that x_p drops comes back as the extra digit of the long x_(p+1)
            path = [(w, long and p > 0, zero, ((counts[p + 1][zero], step[0],
                                                width + len(w) - step[1], p + 1),) if step else ())
                    for w, long, zero, step in block_states(blocks[p], p == 0)]
            m = len(block_flags(blocks[p], 0))  # rows[e]: the states admissible after one that
            rows = [path[:m - 1] + [(*path[m - 1][:3], ())], path]  # ends in 0 iff e, last arcless
            level = [(word[:-1] + w if drop else word + w, zero, arcs + arc)
                     for word, e, arcs in level for w, drop, zero, arc in rows[e]]
        return level

    def template(seed: tuple) -> tuple:  # the words, with n's 1s, and steps of the completions
        words, _, steps = zip(*extend([seed], cut, len(blocks)))
        return tuple(map(add, words, repeat("1" * ones))) if ones else words, steps

    prefixes = [(w[:-1] if e else w, e, steps) for w, e, steps in extend([("", 1, ())], 0, cut)]
    return Pieces(prefixes, {e: template(("0" if e and cut else "", e, ()))
                             for e in {e for _, e, _ in prefixes}}, blocks)


def column(pieces: Pieces, k: int) -> Iterator:
    """The words (k = 0) or the arc steps (k = 1) of the vertices in id order, from the pieces."""
    prefixes, templates, _ = pieces
    if len(prefixes) == 1:  # cut 0, b <= 1024: skipping the map and chain layer per column
        return iter(templates[1][k])  # keeps build_graph 7-18% faster at b = 100..1000
    return chain.from_iterable(map((head, steps)[k].__add__, templates[e][k])
                               for head, e, steps in prefixes)
