"""The edge-labeled directed graph A(n) of hyperbinary expansions.

Vertices are the expansions in H(n) (shortlex-sorted, ids are positions in
that order); arcs are the single-step reductions among them, labeled
SINGLE (->) or DOUBLE (->>).  A completed graph is immutable.

``build_graph`` reads A(n) off the pieces of ``structure.walk`` as aligned arc columns,
each mapped over one list of references to the pieces' steps, made in one read of them and
dropped once the columns are made.  ``HbGraph`` keeps the columns, which the exports,
``counts`` and ``iso`` read without making one object per arc; ``arcs`` is a view over the
columns that makes an ``Arc`` per read and keeps none.  Its ids are a topological order of
0..b-1, checked once, when a graph is made.  ``export_dot``, ``export_json`` and
``export_stream`` write their text with one writer, ``_text``; ``export_stream`` from the
pieces, a slice of at most 256 of a prefix's completions at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property, partial
from itertools import accumulate, chain, compress, filterfalse, islice, repeat
from operator import add, eq, getitem, gt, itemgetter, le, lt, sub

from .structure import DEFAULT_LIMIT, TEMPLATE_SIZE, Label, Pieces, column, walk
from .words import render

# position: zero-based index of the leftmost digit modified in the tail
Arc = namedtuple("Arc", "tail head label position")
_arc = partial(tuple.__new__, Arc)  # an Arc of a 4-tuple in C, not through Arc's Python __new__
#: most vertices of a share of ``export_stream``: a quarter of a template bounds its text
_SLICE = TEMPLATE_SIZE // 4


def enumerate_expansions(n: int, limit: int = DEFAULT_LIMIT) -> list[str]:
    """H(n) in shortlex order: the words of the admissible tuples of block states."""
    return list(column(walk(n, limit), 0))


class HbGraph(namedtuple("HbGraph", "n vertices tails heads labels positions")):
    """A(n), its arcs as aligned columns: arc i is tails[i] -> heads[i].

    Ids are a topological order: a reduction makes its word shortlex-greater,
    so every arc has tail < head, the source is 0 and the sink b - 1.  Arcs
    ascend strictly in (tail, -head), which in A(n) is (tail, position) order,
    so no two join one ordered pair.  A graph with no vertex, whose columns
    differ in length, whose labels are not SINGLE or DOUBLE, or whose ids or arcs break
    these orders, is refused when made by the class (``_make`` and ``_replace`` skip the checks).

    ``arcs`` is a read-only Sequence view over the columns: ``out_arcs``, ``arc``, an index
    or a slice make only the ``Arc`` objects they return, and iteration one at a time.
    """

    def __new__(cls, n: int, vertices: tuple[str, ...], tails: tuple[int, ...],
                heads: tuple[int, ...], labels: tuple[str, ...], positions: tuple[int, ...]):
        if not vertices:
            raise ValueError("a graph has at least one vertex")
        t, h = tails, heads  # one C-level pass per test
        if not len(t) == len(h) == len(labels) == len(positions):
            raise ValueError("arc columns differ in length")
        if not set(labels) <= {Label.SINGLE, Label.DOUBLE}:
            raise ValueError("arc labels are not SINGLE or DOUBLE")
        if t and not (t[0] >= 0 and max(h) < len(vertices)
                      and all(map(le, t, islice(t, 1, None))) and all(map(lt, t, h))):
            raise ValueError("vertex ids are not a topological order of 0..b-1")
        if not all(compress(map(gt, h, islice(h, 1, None)), map(eq, t, islice(t, 1, None)))):
            raise ValueError("arcs are not strictly ascending in (tail, -head)")
        return super().__new__(cls, n, vertices, tails, heads, labels, positions)

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.vertices) - 1

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.vertices)}

    @property
    def arcs(self) -> Sequence[Arc]:
        return _Arcs(self)

    @cached_property
    def out_offsets(self) -> list[int]:
        """Arcs out of v: out_offsets[v] <= i < out_offsets[v + 1], bisects of the sorted tails."""
        return [bisect_left(self.tails, v) for v in range(len(self.vertices) + 1)]

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


class _Arcs(Sequence):
    """The arcs of ``graph``, read off its columns: a slice is a tuple, iteration a map."""

    __slots__ = ("graph",)

    def __init__(self, graph: HbGraph):
        self.graph = graph

    def __len__(self) -> int:
        return len(self.graph.tails)

    def __getitem__(self, i):
        g = self.graph
        if isinstance(i, slice):
            return tuple(map(_arc, zip(g.tails[i], g.heads[i], g.labels[i], g.positions[i])))
        return _arc((g.tails[i], g.heads[i], g.labels[i], g.positions[i]))

    def __iter__(self) -> Iterator[Arc]:
        g = self.graph
        return map(_arc, zip(g.tails, g.heads, g.labels, g.positions))

    def index(self, arc) -> int:
        """The index of ``arc``, or of a tuple equal to it, by ``find``; ValueError if none."""
        g = self.graph
        try:
            tail, head, label, position = arc
            i = g.find(tail, head) if 0 <= tail < len(g.vertices) else None
        except (TypeError, ValueError):  # not four fields, or a tail that is not an id
            i = None
        if i is None or (g.labels[i], g.positions[i]) != (label, position):
            raise ValueError(f"unknown arc {arc}")
        return i

    def __contains__(self, arc) -> bool:
        try:
            self.index(arc)
        except ValueError:
            return False
        return True


class ArcColumn(Mapping):
    """A read-only Mapping[Arc, value] over one more arc column of ``graph``."""

    def __init__(self, graph: HbGraph, column: Sequence):
        self.graph, self.column = graph, column

    def __getitem__(self, arc):
        try:
            return self.column[self.graph.arcs.index(arc)]
        except ValueError:
            raise KeyError(arc) from None

    def __iter__(self):
        return iter(self.graph.arcs)

    def __len__(self) -> int:
        return len(self.column)


def build_graph(n: int, limit: int = DEFAULT_LIMIT) -> HbGraph:
    """Construct A(n) from the admissible tuples of its blocks' states (``structure.walk``).

    Raises SizeLimitError before building anything when A(n) has more than
    ``limit`` vertices, or more than 64 digits per vertex of the limit.
    """
    return graph_from_pieces(n, walk(n, limit))[0]


def graph_from_pieces(n: int, pieces: Pieces) -> tuple[HbGraph, Iterator[int]]:
    """The graph on ``walk``'s pieces, from one read of their steps, and an iterator of places.

    The places iterator holds ``_arcs``' list of steps until it is consumed or dropped."""
    vertices = tuple(column(pieces, 0))
    ids = list(range(len(vertices)))  # the columns share these int objects, not one per arc
    tails, heads, labels, positions, places = _arcs(ids, vertices, column(pieces, 1))
    return HbGraph(n, vertices, tails, tuple(map(ids.__getitem__, heads)), tuple(labels),
                   tuple(positions)), places


def _arcs(ids: Sequence[int], words: Iterable[str], rows: Iterable[tuple]) -> tuple:
    """Tails (a tuple), tail + stride, labels, positions, places of the arcs of vertices ``ids``,
    0, 1, ..., with ``words`` and rows of steps ``rows``.  One pass over ``rows`` makes one list
    of references to the steps, which every field maps over: it lives as long as they do."""
    steps: list[tuple] = []
    # extend returns None, so filterfalse passes on each row it has added to steps
    per_vertex = list(map(len, filterfalse(steps.extend, rows)))
    tails = tuple(chain.from_iterable(map(repeat, ids, per_vertex)))
    lengths = map(list(map(len, words)).__getitem__, tails)
    stride, label, r, place = (map(itemgetter(k), steps) for k in range(4))
    return tails, map(add, tails, stride), label, map(sub, lengths, r), place


def counts(g: HbGraph) -> tuple[int, int, int]:
    """(b, a, v): vertex count, arc count, cyclomatic number a - b + 1."""
    b, a = len(g.vertices), len(g.tails)
    return (b, a, a - b + 1)


def _text(n: int, fmt: str, names: Iterable, shares: Iterable) -> Iterator[str]:
    """The DOT or JSON text of A(n) from shares of its vertices: the one writer of both formats.

    ``names`` gives each share's words, ``_names`` in DOT, and ``shares`` its arcs as (m, pool,
    tails, heads, labels, values, last): arc i joins pool vertices tails[i] < m and heads[i],
    names (DOT) or ids (JSON); ``values`` is the positions (JSON), the places or None; ``last``
    marks the final share.  Each share is made with its chunk and dropped after.  A chunk, its
    words or arcs, joins a list filled from maps over the columns by extended-slice assignment,
    three strings per arc made up front, ends keyed by the two labels: no per-arc Python runs."""
    dot = fmt == "dot"
    start, sep, middle, stop = ((f"digraph A{n} {{\n", "", "", "}\n") if dot else
                                (f'{{"n":{n},"vertices":[', ",", '],"arcs":[', "]}"))
    pair = (Label.SINGLE, Label.DOUBLE)
    label = dict(zip(pair, "sd")).get if dot else str
    head = None  # the last share's vertices, held back to start the first chunk of arcs
    for i, words in enumerate(names):
        if head is not None:
            yield head
        head = (sep if i else start) + ('  "' + '";\n  "'.join(words) + '";\n' if dot
                                        else _json(words))
    for m, pool, tails, heads, labels, values, last in shares:
        heads_text = list(pool) if dot else list(map(str, pool))
        tails_text = ([f'  "{x}" -> "' for x in islice(heads_text, m)] if dot else
                      [f',{{"tail":{x},"head":' for x in islice(heads_text, m)])
        if values is None:  # the end depends on the label alone
            ends = map({x: f'" [label="{label(x)}"];\n' for x in pair}.__getitem__, labels)
        else:
            end = '" [label="{}" place={}];\n' if dot else ',"label":"{}","position":{}}}'
            distinct = set(values)
            table = {x: {v: end.format(label(x), v) for v in distinct} for x in pair}
            ends = map(getitem, map(table.__getitem__, labels), values)
        columns = (map(tails_text.__getitem__, tails), map(heads_text.__getitem__, heads), ends)
        pieces = [""] * (3 * len(tails) + 2)
        for k, cells in enumerate(columns, 1):
            pieces[k:-1:3] = cells
        if head is not None:  # the first arc drops JSON's comma
            pieces[:2], head = (head + middle, pieces[1][len(sep) :]), None
        if last:
            pieces[-1] = stop
        yield "".join(pieces)
        del pool, tails, heads, labels, values, heads_text, tails_text, ends, columns, pieces


def _names(words: Sequence[str]) -> Sequence[str]:
    """The DOT names of ``words``: ``render`` runs only if the empty word, A(0)'s, is one."""
    return list(map(render, words)) if "" in words else words


def _json(words: Sequence[str]) -> str:
    """``json.dumps(words)`` less its brackets: no ``json`` call for digit words (A(n)'s, n > 0)."""
    if "".join(words).encode("ascii", "replace").isdigit():  # C-level; not ASCII becomes "?"
        return '"' + '","'.join(words) + '"'
    import json
    return json.dumps(words, separators=(",", ":"))[1:-1]


def export_stream(n: int, fmt: str = "dot", limit: int = DEFAULT_LIMIT) -> Iterator[str]:
    """The text of ``export_dot(build_graph(n, limit))``, or ``export_json``, from ``walk``'s
    pieces, made at the call: ``_text`` in P - 1 + sum of ceil(m / 256) chunks for P prefixes of
    m completions each, the prefix joined to its template.  A share is a slice [lo, hi) of at
    most 256 completions of one prefix, so no chunk grows with the template.

    Template steps only go forward, and a prefix's step goes from completion j to completion j
    of the stepped prefix, so a share's pool is its prefix's completions lo..m - 1, then each
    stepped prefix's lo..hi - 1."""
    prefixes, templates, _ = walk(n, limit)
    dot = fmt == "dot"
    firsts = list(accumulate((len(templates[e][0]) for _, e, _ in prefixes), initial=0))

    def words(q: int, lo: int = 0, hi: int | None = None) -> list[str]:
        head, e, _ = prefixes[q]
        return list(map(head.__add__, islice(templates[e][0], lo, hi)))

    def shares():
        for i, (_, e, steps) in enumerate(prefixes):
            own = words(i)
            m = len(own)
            first = _names(own) if dot else range(firsts[i], firsts[i] + m)
            qs = [bisect_left(firsts, firsts[i] + step[0]) for step in steps]  # stepped
            for lo in range(0, m, _SLICE):
                hi = min(lo + _SLICE, m)
                local = tuple((m - lo + (hi - lo) * q, *step[1:]) for q, step in enumerate(steps))
                rows = map(local.__add__, islice(templates[e][1], lo, hi))
                tails, heads, labels, positions, _ = _arcs(
                    range(hi - lo), islice(own, lo, hi), rows)
                stepped = (_names(words(q, lo, hi)) if dot else
                           range(firsts[q] + lo, firsts[q] + hi) for q in qs)
                yield (hi - lo, chain(first[lo:], *stepped), tails, heads, list(labels),
                       None if dot else list(positions), i == len(prefixes) - 1 and hi == m)

    names = map(words, range(len(prefixes)))
    return _text(n, fmt, map(_names, names) if dot else names, shares())


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
    names = _names(g.vertices) if dot else g.vertices
    share = (b, names if dot else range(b), g.tails, g.heads, g.labels, values, True)
    return next(_text(g.n, fmt, [names], [share]))
