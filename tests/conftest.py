"""Shared test helpers: oracles independent of the library.

The enumeration oracle builds H(n) by recursion on the last digit of a
word, without touching the single-step-reduction machinery it is used to
check; the arc oracle reads the reductions off those words by scanning
for their patterns.  The factor oracle splits an expansion into block
factors by string slicing and digit values, without the cut finder of
``blocks.embed``.  The (b, v) oracle runs the classical recursions on an
explicit stack, without the digit pass of ``stern.b_and_a``.  The b and
c oracles fold one vector through the digit matrices a digit at a time,
without the leaves and product tree of ``stern``.
"""

from functools import lru_cache

from hbgraphs.graphs import Label
from hbgraphs.words import shortlex_key, value


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


def oracle_arcs(n: int) -> list[tuple[int, int, str, int]]:
    """The arcs of A(n) as (tail, head, label, position), in (tail, position) order.

    Ids are shortlex ranks.  ``2y -> 10y`` has position 0; ``x02y -> x10y``
    and ``x12y -> x20y`` have the index of their first rewritten digit.
    """
    words = oracle_expansions(n)
    rank = {w: i for i, w in enumerate(words)}
    arcs = []
    for tail, w in enumerate(words):
        if w[:1] == "2":
            arcs.append((tail, rank["10" + w[1:]], Label.SINGLE, 0))
        for i in range(len(w) - 1):
            if w[i : i + 2] == "02":
                arcs.append((tail, rank[w[:i] + "10" + w[i + 2 :]], Label.SINGLE, i))
            elif w[i : i + 2] == "12":
                arcs.append((tail, rank[w[:i] + "20" + w[i + 2 :]], Label.DOUBLE, i))
    return arcs


def _oracle_split(word: str, first_value: int, rest_value: int) -> tuple[str, str]:
    """Split an expansion as (first untruncated factor, rest expansion).

    The rest has the digit count of binary(rest_value) (long) or one less
    (short); in the long case the first factor regains its truncated final 0.
    Exactly one of the two candidate splits is valid.
    """
    found = None
    bin_len = rest_value.bit_length()
    for k, pad in ((bin_len, "0"), (bin_len - 1, "")):
        if not 0 < k < len(word):
            continue
        prefix, suffix = word[:-k] + pad, word[-k:]
        if suffix[0] != "0" and value(suffix) == rest_value and value(prefix) == first_value:
            if found is not None:
                raise AssertionError(f"ambiguous factor split of {word!r}")
            found = (prefix, suffix)
    if found is None:
        raise AssertionError(f"no factor split of {word!r}")
    return found


def oracle_factors(word: str, blocks) -> tuple[str, ...]:
    """Per-block factors of one expansion, split off one block at a time."""
    if not blocks:
        if word:
            raise ValueError("nonempty word with empty block list")
        return ()
    if len(blocks) == 1:
        return (word,)
    rest_word = "".join(b.word for b in blocks[1:])
    first, rest = _oracle_split(word, blocks[0].value, value(rest_word))
    return (first,) + oracle_factors(rest, blocks[1:])


def oracle_places(pg) -> dict:
    """Each arc's 1-based place: the one factor that differs between its ends."""
    factors = [oracle_factors(w, pg.decomposition.blocks) for w in pg.graph.vertices]
    place = {}
    for arc in pg.graph.arcs:
        fx, fy = factors[arc.tail], factors[arc.head]
        (changed,) = [i for i in range(len(fx)) if fx[i] != fy[i]]
        place[arc] = changed + 1
    return place


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


def oracle_b_matrix(n: int) -> int:
    """b(n): the row vector (1, 0) through M(0) = (1 0; 1 1), M(1) = (1 1; 0 1), top bit first."""
    top, bottom = 1, 0
    for ch in format(n, "b") if n else "":
        if ch == "0":
            top += bottom
        else:
            bottom += top
    return top


def oracle_c_matrix(n: int) -> int:
    """c(n), n >= 1: the row vector (1, 0) through C(0) = (1 0; 1 1), C(1) = (0 1; -1 2)."""
    x, y = 1, 0
    for ch in format(n, "b"):
        x, y = (x + y, y) if ch == "0" else (-y, x + 2 * y)
    return y


@lru_cache(maxsize=None)
def cached_graph(n: int):
    from hbgraphs.graphs import build_graph

    return build_graph(n)


@lru_cache(maxsize=None)
def cached_embed(n: int):
    from hbgraphs.blocks import embed

    return embed(n)
