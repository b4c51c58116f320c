"""Shared test helpers: oracles independent of the library.

The enumeration oracle builds H(n) by recursion on the last digit of a
word, without touching the single-step-reduction machinery it is used to
check; the arc oracle reads the reductions off those words by scanning
for their patterns.  The factor oracle splits an expansion into block
factors by string slicing and digit values, without the block states
of ``blocks.embed``.  The decomposition oracle scans a minimal expansion for
its blocks one digit at a time, without the block pattern of ``words``.
The (b, v) oracle runs the classical recursions on an
explicit stack, without the digit pass of ``stern.b_and_a``.  The b and
c oracles fold one vector through the digit matrices a digit at a time,
without the leaves and product tree of ``stern``; the Algorithm 1 oracle
scans n's digits with its two run counters, applying each count when its
run ends, without the byte table of ``stern.b_algorithm1``.  The value
oracle folds a word a digit at a time.  The isomorphism oracle filters
candidates by comparing every pair of vertex signatures and checks every
arc to a matched vertex through ``Arc`` objects, its in-arcs filtered from
``arcs``, without the buckets and in-arc rows of ``iso.labeled_iso``.
The export oracles build a dict per arc and encode the document with
``json.dumps``, and render both ends of every DOT arc.  The descendants
oracle walks a built graph's out-arcs and re-indexes the induced
subgraph by sorting its words.  The closure oracle
builds A(n), or the descendants of any expansion, by applying the single
step reductions breadth first from a seed word and sorting the words it
finds, without the block states of ``graphs.build_graph``; its reduction
rules (``_children``, and ``single_step_reductions`` over them) live
here, so it shares no code with ``graphs``.  Both oracles
make their arcs as ``Arc`` objects and store them in ``HbGraph``'s
columns through ``graph_from_arcs``.
"""

import json
from functools import lru_cache

from hbgraphs.graphs import Arc, HbGraph, Label, SizeLimitError
from hbgraphs.words import binary_expansion


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
    return tuple(_oracle_shortlex_sorted(out))


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
        if (
            suffix[0] != "0"
            and oracle_value(suffix) == rest_value
            and oracle_value(prefix) == first_value
        ):
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
    rest_word = "".join(blocks[1:])
    first, rest = _oracle_split(word, oracle_value(blocks[0]), oracle_value(rest_word))
    return (first,) + oracle_factors(rest, blocks[1:])


def oracle_decompose(w: str) -> tuple[tuple[tuple[int, int], ...], int]:
    """((kind, t) of each block, trailing 1s) of a minimal expansion, by a digit scan.

    Kind 1 is the block 1^t 2 and kind 2 the block 2^t.
    """
    core = w.rstrip("1")
    blocks = []
    i = 0
    while i < len(core):
        if core[i] == "1":
            j = i
            while core[j] == "1":
                j += 1
            # core ends with 2, so core[j] == "2"
            blocks.append((1, j - i))
            i = j + 1
        else:
            j = i
            while j < len(core) and core[j] == "2":
                j += 1
            blocks.append((2, j - i))
            i = j
    return tuple(blocks), len(w) - len(core)


def oracle_places(pg) -> dict:
    """Each arc's 1-based place: the one factor that differs between its ends."""
    factors = [oracle_factors(w, pg.blocks) for w in pg.graph.vertices]
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


def oracle_algorithm1(n: int) -> tuple[int, int]:
    """(b(n), expensive steps): Algorithm 1's right-to-left scan of n's digits, one at a time.

    The counters a1 and a2 count a run of 0s or of 1s; the step that ends a
    run applies its count in one multiplication, an expensive step.
    """
    d = format(n, "b")[::-1] if n else ""  # d[l] is the coefficient of 2^l
    i0 = len(d) - len(d.lstrip("1"))  # d[:i0] are n's trailing 1s
    if i0 == len(d):  # n == 0 or n == 2^k - 1: a single all-1s expansion
        return (1, 0)
    b = s = 1
    a1 = a2 = 0
    expensive = 0
    for ch in d[i0 + 1 :]:  # d[i0] is 0, nothing to do for it
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
    if a2:
        expensive += 1
    b = b + a2 * s
    return (b, expensive)


@lru_cache(maxsize=None)
def cached_graph(n: int):
    from hbgraphs.graphs import build_graph

    return build_graph(n)


@lru_cache(maxsize=None)
def cached_embed(n: int):
    from hbgraphs.blocks import embed

    return embed(n)


def graph_from_arcs(n: int, vertices, arcs) -> HbGraph:
    """The HbGraph whose arc columns hold ``arcs``, given in (tail, -head) order."""
    columns = [tuple(getattr(a, f) for a in arcs) for f in ("tail", "head", "label", "position")]
    return HbGraph(n, tuple(vertices), *columns)


def oracle_descendants(g, start: int):
    """Induced subgraph of g on ``start`` and its descendants, by a depth-first walk."""
    reach = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for arc in g.out_arcs(v):
            if arc.head not in reach:
                reach.add(arc.head)
                frontier.append(arc.head)
    verts = _oracle_shortlex_sorted(g.vertices[v] for v in reach)
    index = {w: i for i, w in enumerate(verts)}
    arcs = tuple(
        Arc(index[g.vertices[a.tail]], index[g.vertices[a.head]], a.label, a.position)
        for a in g.arcs
        if a.tail in reach and a.head in reach
    )
    # start is the source, and the original sink, reachable from every vertex, is the sink
    assert (index[g.vertices[start]], index[g.vertices[g.sink]]) == (0, len(verts) - 1)
    return graph_from_arcs(g.n, verts, arcs)


def oracle_value(w: str) -> int:
    """Base-2 value of a digit word, one doubling per digit."""
    n = 0
    for ch in w:
        n = 2 * n + (ord(ch) - 48)
    return n


def oracle_labeled_iso(g1, g2) -> tuple[tuple | None, int]:
    """(mapping or None, search nodes expanded) of the depth-first search.

    Candidates are every g2 vertex whose signature equals the g1 vertex's,
    found by comparing all pairs; the vertices are matched in id order.
    The depth-first loop is the library's.
    """
    n1, n2 = len(g1.vertices), len(g2.vertices)
    if n1 != n2 or len(g1.arcs) != len(g2.arcs):
        return None, 0

    ins1, ins2 = ([[a for a in g.arcs if a.head == v] for v in range(len(g.vertices))]
                  for g in (g1, g2))

    def signature(g, ins, v):
        level = sum(map(int, g.vertices[v])) - sum(map(int, g.vertices[g.sink]))
        outs = g.out_arcs(v)
        return (level, tuple(sorted(a.label for a in outs)), tuple(sorted(a.label for a in ins)))

    sigs1 = [signature(g1, ins1[v], v) for v in range(n1)]
    sigs2 = [signature(g2, ins2[v], v) for v in range(n2)]
    if sorted(sigs1) != sorted(sigs2):
        return None, 0
    order = range(n1)
    candidates = [[w for w in range(n2) if sigs2[w] == sigs1[v]] for v in range(n1)]

    def consistent(v, w):
        for arc in g1.out_arcs(v):
            if arc.head in mapping:
                img = g2.arc(w, mapping[arc.head])
                if img is None or img.label != arc.label:
                    return False
        for arc in ins1[v]:
            if arc.tail in mapping:
                img = g2.arc(mapping[arc.tail], w)
                if img is None or img.label != arc.label:
                    return False
        return True

    mapping, used, expansions = {}, set(), 0
    untried = []
    i = 0
    while i < n1:
        if len(untried) == i:
            untried.append(iter(candidates[order[i]]))
        v = order[i]
        for w in untried[i]:
            if w in used:
                continue
            expansions += 1
            if consistent(v, w):
                mapping[v] = w
                used.add(w)
                i += 1
                break
        else:
            untried.pop()
            if i == 0:
                return None, expansions
            i -= 1
            used.discard(mapping.pop(order[i]))
    return tuple(mapping[v] for v in range(n1)), expansions


_ORACLE_DOT_LABEL = {Label.SINGLE: "s", Label.DOUBLE: "d"}


def oracle_export_json(g) -> str:
    """The JSON export as one dict per arc, encoded by ``json.dumps``."""
    doc = {
        "n": g.n,
        "vertices": list(g.vertices),
        "arcs": [
            {"tail": a.tail, "head": a.head, "label": a.label, "position": a.position}
            for a in g.arcs
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def oracle_export_dot(g, place=None) -> str:
    """The DOT export, rendering both ends of every arc."""

    def render(w):
        return w if w else "ε"

    lines = [f"digraph A{g.n} {{"]
    for w in g.vertices:
        lines.append(f'  "{render(w)}";')
    for arc in g.arcs:
        attrs = f'label="{_ORACLE_DOT_LABEL[arc.label]}"'
        if place is not None:
            attrs += f" place={place[arc]}"
        tail, head = render(g.vertices[arc.tail]), render(g.vertices[arc.head])
        lines.append(f'  "{tail}" -> "{head}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _children(w: str):
    """Yield (child, label, position) for each reduction of ``w``, ascending in position.

    These are the paper's reduction rules.  Every reduction rewrites one
    ``2``; the digit before it picks the rule.  The leading ``2y -> 10y``
    rule (the only one that lengthens the word) is assigned position 0,
    where no other rule can apply.
    """
    j = w.find("2")
    if j == 0:
        yield "10" + w[1:], Label.SINGLE, 0
        j = w.find("2", 1)
    while j > 0:
        before = w[j - 1]
        if before == "0":
            yield w[: j - 1] + "10" + w[j + 1 :], Label.SINGLE, j - 1
        elif before == "1":
            yield w[: j - 1] + "20" + w[j + 1 :], Label.DOUBLE, j - 1
        j = w.find("2", j + 1)


def single_step_reductions(w: str) -> list[tuple[str, str, int]]:
    """The reductions of ``w`` as a list of (child, label, position), ascending in position."""
    if w[:1] == "0":
        raise ValueError(f"not a hyperbinary expansion (leading zero): {w!r}")
    return list(_children(w))


def _oracle_closure(n: int, seed: str, limit: int, children: list | None = None) -> dict[str, int]:
    """The closure of ``seed``, an expansion of n, as {word: discovery id}, breadth first.

    When ``children`` is given, each expanded word appends one list to it,
    in discovery order: the (child id, label, position) of its children,
    ascending in position.  Raises SizeLimitError on the first word
    beyond ``limit``, the seed included.
    """
    if limit < 1:
        raise SizeLimitError(f"|H({n})| exceeds limit {limit}")
    ids = {seed: 0}
    words = list(ids)
    for w in words:
        out = []
        for child, label, pos in _children(w):
            cid = ids.get(child)
            if cid is None:
                if len(words) >= limit:
                    raise SizeLimitError(f"|H({n})| exceeds limit {limit}")
                cid = ids[child] = len(words)
                words.append(child)
            out.append((cid, label, pos))
        if children is not None:
            children.append(out)
    return ids


def _oracle_shortlex_sorted(words) -> list[str]:
    out = sorted(words)
    out.sort(key=len)  # stable: equal lengths keep lexicographic order
    return out


def oracle_closure_graph(n: int, seed: str, limit: int) -> HbGraph:
    """The graph on the reduction closure of ``seed``, ids in shortlex order.

    With the minimal expansion of n as ``seed`` it is A(n); with any vertex
    of A(n) it is that vertex's descendants subgraph.
    """
    children: list[list[tuple[int, str, int]]] = []
    ids = _oracle_closure(n, seed, limit, children)
    verts = _oracle_shortlex_sorted(ids)
    rank = [0] * len(verts)
    for r, w in enumerate(verts):
        rank[ids[w]] = r
    arcs = []
    for r, w in enumerate(verts):
        i = ids[w]
        arcs += [Arc(r, rank[cid], label, pos) for cid, label, pos in children[i]]
        children[i] = None  # the arcs reuse the memory of the freed child records
    # the seed is the source, and the binary expansion, reachable from every expansion of n,
    # is the sink
    assert (rank[0], rank[ids[binary_expansion(n)]]) == (0, len(verts) - 1)
    return graph_from_arcs(n, verts, arcs)
