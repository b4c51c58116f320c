"""Shared test helpers: oracles independent of the library.

The enumeration oracle builds H(n) by recursion on the last digit of a
word, without touching the single-step-reduction machinery it is used to
check.  The (b, v) oracle runs the classical recursions on an explicit
stack, without the digit pass of ``stern.b_and_a``.
"""

from functools import lru_cache

from hbgraphs.words import shortlex_key


@lru_cache(maxsize=None)
def oracle_expansions(n: int) -> tuple[str, ...]:
    """All hyperbinary expansions of n, shortlex-sorted."""
    if n == 0:
        return ("",)
    out = []
    for d in (0, 1, 2):
        if d <= n and (n - d) % 2 == 0:
            m = (n - d) // 2
            if m == 0:
                if d:
                    out.append(str(d))
            else:
                out.extend(u + str(d) for u in oracle_expansions(m))
    return tuple(sorted(out, key=shortlex_key))


def oracle_b_v(n: int, memo: dict[int, tuple[int, int]] | None = None) -> tuple[int, int]:
    """(b(n), v(n)) by the recursions on n, memoized in ``memo`` only.

    b(2p+1) = b(p) and v(2p+1) = v(p).  An even m = 4q+2 or 4q+4 splits as
    p = m - 2q - 2 (that is 2q or 2q+2) and q: b(m) = b(p) + b(q) and
    v(m) = v(p) + a(q) with a(q) = v(q) + b(q) - 1.  Pass one ``memo`` to
    share work across the calls of one test.
    """
    if memo is None:
        memo = {}
    memo.setdefault(0, (1, 0))
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
            q = (m - 2) // 4 if m % 4 == 2 else (m - 4) // 4
            p = m - 2 * q - 2
            pending = [x for x in (p, q) if x not in memo]
            if pending:
                stack.extend(pending)
            else:
                (bp, vp), (bq, vq) = memo[p], memo[q]
                memo[m] = (bp + bq, vp + vq + bq - 1)
                stack.pop()
    return memo[n]


@lru_cache(maxsize=None)
def cached_graph(n: int):
    from hbgraphs.graphs import build_graph

    return build_graph(n)


@lru_cache(maxsize=None)
def cached_embed(n: int):
    from hbgraphs.blocks import embed

    return embed(n)
