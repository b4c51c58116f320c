"""The edge-labeled directed graph A(n) of hyperbinary expansions.

Vertices are the expansions in H(n) (shortlex-sorted, ids are positions in
that order); arcs are the single-step reductions among them, labeled
SINGLE (->) or DOUBLE (->>).  A completed graph is immutable.

A(n) is generated as an induced subgraph of the Cartesian product of its
blocks' path graphs (``_walk``): a vertex is an admissible tuple of block
states, whose lexicographic order is the shortlex order of the words, and
an arc steps one coordinate, to the vertex a fixed stride of ids on (the
count of completions after the stepped state).  So the vertices come out
in id order and the arcs in (tail, position) order; the vertex count and
a bound on the digits of the words are known, and checked against the
limit, before anything is built.  Cut after some block, the vertices are
each prefix tuple in turn joined to every completion in one of two
templates, by whether it ends in 0: ``build_graph`` and ``embed`` read the
columns off these pieces; ``export_stream`` writes their text a prefix at a time.

``HbGraph`` keeps the arcs as aligned columns, which the exports,
``counts`` and ``iso`` read without making one object per arc.  Its ids
are a topological order of 0..b-1, checked once, when a graph is made.
``export_dot``, ``export_json`` and ``export_stream`` write their text
with one writer, ``_text``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, eq, getitem, gt, itemgetter, le, lt, sub

from .stern import _block_transfer
from .words import decompose, minimal_expansion, render

DEFAULT_LIMIT = 10**6
#: digits allowed per vertex of the limit: the words of H(n) may hold at most 64 * limit
DIGITS_PER_VERTEX = 64
#: most completions in a template of ``_walk``, which cuts the blocks at the first suffix this small
TEMPLATE_SIZE = 1024


class SizeLimitError(Exception):
    """Raised when H(n) would exceed the vertex limit, or its words 64 digits per vertex of it."""


class Label:
    SINGLE = "single"  # ->   patterns x02y -> x10y and 2y -> 10y
    DOUBLE = "double"  # ->>  pattern  x12y -> x20y


# position: zero-based index of the leftmost digit modified in the tail
Arc = namedtuple("Arc", "tail head label position")


def _block_states(block: str, first: bool) -> list[tuple[str, bool, bool, tuple | None]]:
    """The path of one block's expansions, in closed form, from the block word on.

    Each state is (word, long, ends in 0, step), a state long when its word
    is longer than the block's, and ``step`` the (label, local position) of
    the arc to the next state, None for the last.  The leading ``2y -> 10y``
    step rewrites the 0 before the block: local position -1, or 0 for the
    first block.
    """
    lead = (Label.SINGLE, 0 if first else -1)
    if block[0] == "1":  # 1^t 2: 1^(t-i) 2 0^i for i = 0..t, then 1 0^(t+1)
        t = len(block) - 1
        words = [block[i:] + "0" * i for i in range(t + 1)] + ["1" + "0" * (t + 1)]
        steps = [(Label.DOUBLE, t - i - 1) for i in range(t)] + [lead, None]
        flags = [(False, False)] + [(False, True)] * t + [(True, True)]
    else:  # 2^t: 2^t, then 1^i 0 2^(t-i) for i = 1..t
        t = len(block)
        words = [block] + ["1" * i + "0" + block[i:] for i in range(1, t + 1)]
        steps = [lead] + [(Label.SINGLE, i) for i in range(1, t)] + [None]
        flags = [(False, False)] + [(True, False)] * (t - 1) + [(True, True)]
    return [(w, *flag, step) for w, flag, step in zip(words, flags, steps)]


def _walk(n: int, limit: int) -> tuple[list[tuple], dict]:
    """A(n) as the admissible prefixes over blocks 1..cut, and templates of their completions.

    A vertex is a tuple x_1 ... x_k of block states, admissible when every
    long x_p (p >= 2) follows an x_(p-1) that ends in 0; its word joins the
    state words, each dropping its final 0 before a long state, then n's
    trailing 1s.  Extending every tuple by the states of the next block,
    level by level, emits them in id order.  The arc x_p -> x_p + 1 goes C
    ids on, C the count of completions after x_p (fixed by whether x_p ends
    in 0); its place is p, and it rewrites the digit r places from the end.

    A prefix, over blocks 1..cut, is (head, ends in 0, arc steps): its word
    less a final 0, where template 1 starts.  A template is (words, each
    one's arc steps), and a vertex head + word, with the prefix's steps, then
    the word's, each (stride, label, r, place) a tuple shared by all that
    take it.  ``cut`` is the first suffix of at most ``TEMPLATE_SIZE``
    completions: 0 for a small A(n), one empty prefix and template 1 the graph.
    Raises SizeLimitError, before any state word is made, when there are
    more than ``limit`` tuples, or when they times n's bit length (the
    longest word) exceeds ``DIGITS_PER_VERTEX * limit`` digits.
    """
    blocks, ones = decompose(minimal_expansion(n))
    # counts[p][e]: the admissible completions from block p on, after a state that ends in
    # 0 iff e; no block lowers h and k <= h, so no suffix has more than the whole, and a
    # refused n stops at the first suffix over ``limit``, before its counts grow big
    counts = [(1, 1)]
    for block in reversed(blocks):
        k, h = counts[-1]
        if h > limit:
            break
        h, k = _block_transfer((block,), h, k)
        counts.append((k, h))
    counts.reverse()
    bits = n.bit_length()  # the longest word's length; n itself may be too long to print
    if counts[0][1] > limit:
        raise SizeLimitError(f"|H(n)| exceeds limit {limit} for n of {bits} bits")
    if counts[0][1] * bits > DIGITS_PER_VERTEX * limit:
        raise SizeLimitError(f"{counts[0][1]} words of up to {bits} digits may exceed"
                             f" {DIGITS_PER_VERTEX} * limit {limit} digits")
    cut = sum(h > TEMPLATE_SIZE for _, h in counts)  # the suffixes of more than TEMPLATE_SIZE

    def extend(level: list, lo: int, hi: int) -> list:
        width = sum(map(len, blocks[lo:])) + ones  # the digits from block lo on
        for p in range(lo, hi):
            width -= len(blocks[p])  # now the digits after block p
            states = _block_states(blocks[p], p == 0)
            rows = ([], [])  # rows[e]: the states, and their arcs, after one that ends in 0 iff e
            for s, (w, long, zero, step) in enumerate(states):
                for e in (0, 1) if not long else (1,):
                    arc = ()
                    if step and (e or not states[s + 1][1]):
                        # x_p ... x_k take width + len(w) digits: a final 0 that x_p
                        # drops comes back as the extra digit of the long x_(p+1)
                        label, local = step
                        arc = ((counts[p + 1][zero], label, width + len(w) - local, p + 1),)
                    rows[e].append((w, long and p > 0, zero, arc))
            level = [(word[:-1] + w if drop else word + w, zero, arcs + arc)
                     for word, e, arcs in level for w, drop, zero, arc in rows[e]]
        return level

    def template(seed: tuple) -> tuple:  # the words, with n's 1s, and steps of the completions
        words, _, steps = zip(*extend([seed], cut, len(blocks)))
        return tuple(map(add, words, repeat("1" * ones))) if ones else words, steps

    prefixes = [(w[:-1] if e else w, e, steps) for w, e, steps in extend([("", 1, ())], 0, cut)]
    return prefixes, {e: template(("0" if e and cut else "", e, ()))
                      for e in {e for _, e, _ in prefixes}}


def _column(pieces: tuple, k: int) -> Iterator:
    """The words (k = 0) or the arc steps (k = 1) of the vertices in id order, from the pieces."""
    prefixes, templates = pieces
    if len(prefixes) == 1:  # cut 0, b <= 1024: skipping the map and chain layer per column
        return iter(templates[1][k])  # keeps build_graph 7-18% faster at b = 100..1000
    return chain.from_iterable(map((head, steps)[k].__add__, templates[e][k])
                               for head, e, steps in prefixes)


def enumerate_expansions(n: int, limit: int = DEFAULT_LIMIT) -> list[str]:
    """H(n) in shortlex order: the words of the admissible tuples of block states."""
    return list(_column(_walk(n, limit), 0))


@dataclass(frozen=True)
class HbGraph:
    """A(n), its arcs as aligned columns: arc i is tails[i] -> heads[i].

    Ids are a topological order: a reduction makes its word shortlex-greater,
    so every arc has tail < head, the source is 0 and the sink b - 1.  Arcs
    ascend strictly in (tail, -head), which in A(n) is (tail, position) order,
    so no two join one ordered pair.  A graph whose columns differ in length,
    whose labels are not SINGLE or DOUBLE, or whose ids or arcs break these
    orders, is refused when made.

    ``Arc`` objects are all made at once, on the first read of ``arcs``,
    ``out_arcs`` or ``arc``.
    """

    n: int
    vertices: tuple[str, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    labels: tuple[str, ...]
    positions: tuple[int, ...]

    def __post_init__(self):
        t, h = self.tails, self.heads  # one C-level pass per test
        if not len(t) == len(h) == len(self.labels) == len(self.positions):
            raise ValueError("arc columns differ in length")
        if not set(self.labels) <= {Label.SINGLE, Label.DOUBLE}:
            raise ValueError("arc labels are not SINGLE or DOUBLE")
        if t and not (t[0] >= 0 and max(h) < len(self.vertices)
                      and all(map(le, t, islice(t, 1, None))) and all(map(lt, t, h))):
            raise ValueError("vertex ids are not a topological order of 0..b-1")
        if not all(compress(map(gt, h, islice(h, 1, None)), map(eq, t, islice(t, 1, None)))):
            raise ValueError("arcs are not strictly ascending in (tail, -head)")

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.vertices)}

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(map(Arc, self.tails, self.heads, self.labels, self.positions))

    @cached_property
    def out_offsets(self) -> list[int]:
        """Arcs out of v: out_offsets[v] <= i < out_offsets[v + 1], bisects of the sorted tails."""
        return [bisect_left(self.tails, v) for v in range(len(self.vertices) + 1)]

    @cached_property
    def in_rows(self) -> list[list[int]]:
        """The indices of each vertex's in-arcs, ascending."""
        rows: list[list[int]] = [[] for _ in self.vertices]
        for i, head in enumerate(self.heads):
            rows[head].append(i)
        return rows

    def find(self, tail: int, head: int) -> int | None:
        """The index of the arc ``tail`` -> ``head``, or None, from the tail's run of ``heads``."""
        off = self.out_offsets
        try:
            return self.heads.index(head, off[tail], off[tail + 1])
        except ValueError:
            return None

    def _vertex(self, v: int) -> int:
        if not 0 <= v < len(self.vertices):
            raise ValueError(f"unknown vertex id {v}")
        return v

    def out_arcs(self, v: int) -> tuple[Arc, ...]:
        off = self.out_offsets
        return self.arcs[off[self._vertex(v)] : off[v + 1]]

    def arc(self, tail: int, head: int) -> Arc | None:
        """The arc from ``tail`` to ``head``, or None."""
        i = self.find(self._vertex(tail), self._vertex(head))
        return None if i is None else self.arcs[i]


class ArcColumn(Mapping):
    """A read-only Mapping[Arc, value] over one more arc column of ``graph``."""

    def __init__(self, graph: HbGraph, column: Sequence):
        self.graph, self.column = graph, column

    def index(self, arc) -> int:
        """The index of ``arc``, or of a tuple equal to it, in the columns; ValueError if none."""
        g = self.graph
        try:
            tail, head, label, position = arc
            i = g.find(tail, head) if 0 <= tail < len(g.vertices) else None
        except (TypeError, ValueError):  # not four fields, or a tail that is not an id
            i = None
        if i is None or (g.labels[i], g.positions[i]) != (label, position):
            raise ValueError(f"unknown arc {arc}")
        return i

    def __getitem__(self, arc):
        try:
            return self.column[self.index(arc)]
        except ValueError:
            raise KeyError(arc) from None

    def __iter__(self):
        return iter(self.graph.arcs)

    def __len__(self) -> int:
        return len(self.column)


def build_graph(n: int, limit: int = DEFAULT_LIMIT) -> HbGraph:
    """Construct A(n) from the admissible tuples of its blocks' states (``_walk``).

    Raises SizeLimitError before building anything when A(n) has more than
    ``limit`` vertices, or more than 64 digits per vertex of the limit.
    """
    return _graph(n, _walk(n, limit))[0]


def _graph(n: int, pieces: tuple) -> tuple[HbGraph, Iterator[int]]:
    """The graph on ``_walk``'s pieces, one C-level pass per column, and an iterator of places."""
    vertices = tuple(_column(pieces, 0))
    ids = list(range(len(vertices)))  # the columns share these int objects, not one per arc
    tails, heads, labels, positions, places = _arcs(ids, vertices, lambda: _column(pieces, 1))
    return HbGraph(n, vertices, tails, tuple(map(ids.__getitem__, heads)), tuple(labels),
                   tuple(positions)), places


def _arcs(ids: Sequence[int], words: Sequence[str], steps) -> tuple:
    """Tails (a tuple), tail + stride, labels, positions, places of ``ids``' arcs ``steps()``."""
    per_vertex = list(map(len, steps()))

    def field(k: int):
        return map(itemgetter(k), chain.from_iterable(steps()))

    tails = tuple(chain.from_iterable(map(repeat, ids, per_vertex)))
    lengths = chain.from_iterable(map(repeat, map(len, words), per_vertex))
    return tails, map(add, tails, field(0)), field(1), map(sub, lengths, field(2)), field(3)


def counts(g: HbGraph) -> tuple[int, int, int]:
    """(b, a, v): vertex count, arc count, cyclomatic number a - b + 1."""
    b, a = len(g.vertices), len(g.tails)
    return (b, a, a - b + 1)


def _text(n: int, fmt: str, names: Iterable, shares: Iterable) -> Iterator[str]:
    """The DOT or JSON text of A(n) from shares of its vertices: the one writer of both formats.

    ``names`` gives each share's words, rendered in DOT, and ``shares`` its arcs as (m, pool, tails,
    heads, labels, values): arc i joins pool vertices tails[i] < m and heads[i], rendered words
    (DOT) or ids (JSON), and ``values`` is the positions (JSON), the places or None.  A chunk is
    a share's words, or its arcs, one join of a list filled from maps over the columns, three
    strings made up front per arc, by extended-slice assignment, so no per-arc Python code runs."""
    dot = fmt == "dot"
    start, sep, middle, stop = ((f"digraph A{n} {{\n", "", "", "}\n") if dot else
                                (f'{{"n":{n},"vertices":[', ",", '],"arcs":[', "]}"))
    label = {Label.SINGLE: "s", Label.DOUBLE: "d"}.get if dot else str
    head = None  # the last share's vertices, held back to start the first chunk of arcs
    for i, words in enumerate(names):
        if head is not None:
            yield head
        head = (sep if i else start) + ('  "' + '";\n  "'.join(words) + '";\n' if dot
                                        else json.dumps(words, separators=(",", ":"))[1:-1])
    shares = iter(shares)
    share = next(shares)
    while share:
        (m, pool, tails, heads, labels, values), share = share, next(shares, None)
        heads_text = list(pool) if dot else list(map(str, pool))
        tails_text = ([f'  "{x}" -> "' for x in islice(heads_text, m)] if dot else
                      [f',{{"tail":{x},"head":' for x in islice(heads_text, m)])
        if values is None:  # the end depends on the label alone
            ends = map({x: f'" [label="{label(x)}"];\n' for x in set(labels)}.__getitem__, labels)
        else:
            end = '" [label="{}" place={}];\n' if dot else ',"label":"{}","position":{}}}'
            table = {x: {v: end.format(label(x), v) for v in set(values)} for x in set(labels)}
            ends = map(getitem, map(table.__getitem__, labels), values)
        columns = (map(tails_text.__getitem__, tails), map(heads_text.__getitem__, heads), ends)
        pieces = [""] * (3 * len(tails) + 2)
        for k, column in enumerate(columns, 1):
            pieces[k:-1:3] = column
        if head is not None:  # the first arc drops JSON's comma
            pieces[:2], head = (head + middle, pieces[1][len(sep) :]), None
        if share is None:
            pieces[-1] = stop
        yield "".join(pieces)


def export_stream(n: int, fmt: str = "dot", limit: int = DEFAULT_LIMIT) -> Iterator[str]:
    """The text of ``export_dot(build_graph(n, limit))``, or ``export_json``, from ``_walk``'s
    pieces, made at the call: ``_text`` in 2P - 1 chunks for P prefixes, a share each, the prefix
    joined to its template.

    A prefix's step goes from completion j to completion j of the stepped prefix,
    so a share's pool is its m vertices, then each stepped prefix's first m."""
    prefixes, templates = _walk(n, limit)
    dot = fmt == "dot"
    firsts = list(accumulate((len(templates[e][0]) for _, e, _ in prefixes), initial=0))

    def words(q: int, m: int | None = None) -> list[str]:
        head, e, _ = prefixes[q]
        return list(map(head.__add__, islice(templates[e][0], m)))

    def shares():
        for i, (_, e, steps) in enumerate(prefixes):
            own = words(i)
            m = len(own)
            local = tuple((m * q, *step[1:]) for q, step in enumerate(steps, 1))
            tails, heads, labels, positions, _ = _arcs(
                range(m), own, lambda: map(local.__add__, templates[e][1]))
            qs = (i, *(bisect_left(firsts, firsts[i] + step[0]) for step in steps))  # stepped
            pool = [map(render, words(q, m)) if dot else range(firsts[q], firsts[q] + m) for q in qs]
            yield (m, chain.from_iterable(pool), tails, list(heads), list(labels),
                   None if dot else list(positions))

    names = map(words, range(len(prefixes)))
    return _text(n, fmt, (map(render, w) for w in names) if dot else names, shares())


def export_dot(g: HbGraph, place: ArcColumn | None = None) -> str:
    """Deterministic DOT rendering; optional per-arc ``place``, the graph's ``ArcColumn``."""
    if place is not None and not (isinstance(place, ArcColumn) and place.graph is g):
        raise ValueError("place must be the graph's ArcColumn")
    return _export(g, "dot", None if place is None else place.column)


def export_json(g: HbGraph) -> str:
    """Machine-readable JSON with the same deterministic ordering as DOT.

    The bytes are those of ``json.dumps`` with ``separators=(",", ":")`` on
    {"n", "vertices", "arcs"}, each arc an object {"tail", "head", "label",
    "position"}; the arcs hold only ints and the two label names, which
    need no escaping, so ``_text`` joins them from the columns.
    """
    return _export(g, "json", g.positions)


def _export(g: HbGraph, fmt: str, values: Sequence | None) -> str:
    """The text of a built graph, one share and one chunk; ``values`` as in ``_text``."""
    dot, b = fmt == "dot", len(g.vertices)
    names = list(map(render, g.vertices)) if dot else g.vertices
    return next(_text(g.n, fmt, [names],
                      [(b, names if dot else range(b), g.tails, g.heads, g.labels, values)]))
