"""Shared test helpers: oracles independent of the library.

Facts that the benchmark's ``oracles`` (``hbbench/oracles.py``) computes
apart from the library are read from there, not computed again: H(n)
(``expansions``), the paper's single-step reductions of a word
(``reductions``) and a word's value (``value``).  The enumeration oracle
sorts H(n) in shortlex order; the arc oracle ranks the reductions.

Each oracle kept here checks the library by a route the benchmark lacks:

- the closure oracle builds A(n), or the descendants of any expansion, by
  applying ``oracles.reductions`` breadth first from a seed word and
  sorting the words it finds, without the block states of ``graphs``;
- the factor oracle splits an expansion into block factors by string
  slicing and word values, without the block states of ``blocks.embed``;
- the decomposition oracle scans a minimal expansion for its blocks one
  digit at a time, without the block pattern of ``words``;
- the (b, v) oracle runs the classical recursions on an explicit stack,
  where ``stern.b_and_a`` folds dual block matrices and ``oracles.b_and_a``
  is a top-first digit pass;
- the b and c oracles fold one vector through the digit matrices a digit
  at a time, so a fault shows apart in ``stern``'s leaves or product tree;
- the Algorithm 1 oracle scans n's digits with its two run counters,
  applying each count when its run ends, without ``stern``'s byte table;
- the isomorphism oracle filters candidates by comparing every pair of
  vertex signatures and checks every arc to a matched vertex through
  ``Arc`` objects, each vertex's out- and in-arcs gathered from one read of
  ``arcs``, without the buckets and in-arc rows of ``iso.labeled_iso``;
- the export oracles build a dict per arc and encode the document with
  ``json.dumps``, and render both ends of every DOT arc;
- the descendants oracle walks a built graph's out-arcs and re-indexes
  the induced subgraph by sorting its words;
- the checking-path oracle tries every path from an arc against the
  checking rule, read off a list of arcs, without ``blocks``' squares.

The closure and descendants oracles make their arcs as ``Arc`` objects and
store them in ``HbGraph``'s columns through ``graph_from_arcs``.
"""

import json
from functools import lru_cache

import oracles
from hbgraphs.graphs import Arc, HbGraph
from hbgraphs.structure import Label, SizeLimitError


@lru_cache(maxsize=None)
def oracle_expansions(n: int) -> tuple[str, ...]:
    """All hyperbinary expansions of n, shortlex-sorted."""
    return tuple(_oracle_shortlex_sorted(oracles.expansions(n)))


def oracle_arcs(n: int) -> list[tuple[int, int, str, int]]:
    """The arcs of A(n) as (tail, head, label, position), in (tail, position) order.

    Ids are shortlex ranks.  ``2y -> 10y`` has position 0; ``x02y -> x10y``
    and ``x12y -> x20y`` have the index of their first rewritten digit, and
    ``oracles.reductions`` gives each word's in position order.
    """
    words = oracle_expansions(n)
    rank = {w: i for i, w in enumerate(words)}
    return [(tail, rank[head], label, pos)
            for tail, w in enumerate(words) for head, label, pos in oracles.reductions(w)]


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
            and oracles.value(suffix) == rest_value
            and oracles.value(prefix) == first_value
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
    first, rest = _oracle_split(word, oracles.value(blocks[0]), oracles.value(rest_word))
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


def oracle_maximal_checking_paths(arcs, e1) -> list[tuple]:
    """Every maximal checking path that starts with ``e1``, by brute force over ``arcs`` alone.

    Arc b follows arc a = (x, y) in a checking path when b leaves y and is no arc (y, y') for
    which some other arc (x, x') has x' -> y' (the image of a's place-preserving map).  A path
    is maximal when no arc follows its last and none can be prepended to ``e1``; if one can,
    there is none.  Paths come depth first, each vertex's out-arcs in ``arcs`` order.
    """
    pairs = {(a[0], a[1]) for a in arcs}
    out: dict[int, list] = {}
    for a in arcs:
        out.setdefault(a[0], []).append(a)

    def follows(a, b) -> bool:
        x, y = a[0], a[1]
        return b[0] == y and not any(c[1] != y and (c[1], b[1]) in pairs for c in out[x])

    if any(follows(d, e1) for d in arcs):
        return []
    paths = []

    def extend(path: tuple) -> None:
        nexts = [b for b in out.get(path[-1][1], []) if follows(path[-1], b)]
        if not nexts:
            paths.append(path)
        for b in nexts:
            extend(path + (b,))

    extend((e1,))
    return paths


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
    # every out-arc of a reached vertex reaches its head: the reached vertices' out-arcs in
    # tail order are the induced arcs in g's order, read without a scan of all g's arcs
    arcs = tuple(
        Arc(index[g.vertices[a.tail]], index[g.vertices[a.head]], a.label, a.position)
        for v in sorted(reach)
        for a in g.out_arcs(v)
    )
    # start is the source, and the original sink, reachable from every vertex, is the sink
    assert (index[g.vertices[start]], index[g.vertices[g.sink]]) == (0, len(verts) - 1)
    return graph_from_arcs(g.n, verts, arcs)


def oracle_labeled_iso(g1, g2) -> tuple[tuple | None, int]:
    """(mapping or None, search nodes expanded) of the depth-first search.

    Candidates are every g2 vertex whose signature equals the g1 vertex's,
    found by comparing all pairs; the vertices are matched in id order.
    The depth-first loop is the library's.
    """
    n1, n2 = len(g1.vertices), len(g2.vertices)
    if n1 != n2 or len(g1.arcs) != len(g2.arcs):
        return None, 0

    def rows(g):
        """Each vertex's out-arcs and in-arcs, from one read of ``g.arcs``."""
        outs, ins = [[] for _ in g.vertices], [[] for _ in g.vertices]
        for a in g.arcs:
            outs[a.tail].append(a)
            ins[a.head].append(a)
        return outs, ins

    (outs1, ins1), (outs2, ins2) = rows(g1), rows(g2)

    def signature(g, outs, ins, v):
        level = sum(map(int, g.vertices[v])) - sum(map(int, g.vertices[g.sink]))
        return (level, tuple(sorted(a.label for a in outs)), tuple(sorted(a.label for a in ins)))

    sigs1 = [signature(g1, outs1[v], ins1[v], v) for v in range(n1)]
    sigs2 = [signature(g2, outs2[v], ins2[v], v) for v in range(n2)]
    if sorted(sigs1) != sorted(sigs2):
        return None, 0
    order = range(n1)
    candidates = [[w for w in range(n2) if sigs2[w] == sigs1[v]] for v in range(n1)]

    def consistent(v, w):
        for arc in outs1[v]:
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


def _oracle_shortlex_sorted(words) -> list[str]:
    out = sorted(words)
    out.sort(key=len)  # stable: equal lengths keep lexicographic order
    return out


def oracle_closure_graph(n: int, seed: str, limit: int) -> HbGraph:
    """The graph on the reduction closure of ``seed``, ids in shortlex order.

    With the minimal expansion of n as ``seed`` it is A(n); with any vertex
    of A(n) it is that vertex's descendants subgraph.  The closure is found
    breadth first, keeping each word's children as (discovery id, label,
    position); SizeLimitError is raised on the first word beyond ``limit``,
    the seed included.
    """
    if limit < 1:
        raise SizeLimitError(f"|H({n})| exceeds limit {limit}")
    ids = {seed: 0}
    words = [seed]
    children: list[list[tuple[int, str, int]] | None] = []
    for w in words:
        out = []
        for child, label, pos in oracles.reductions(w):
            cid = ids.get(child)
            if cid is None:
                if len(words) >= limit:
                    raise SizeLimitError(f"|H({n})| exceeds limit {limit}")
                cid = ids[child] = len(words)
                words.append(child)
            out.append((cid, label, pos))
        children.append(out)
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
    assert (rank[0], rank[ids[oracles.binary_word(n)]]) == (0, len(verts) - 1)
    return graph_from_arcs(n, verts, arcs)
