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
limit, before anything is built.

``HbGraph`` keeps the arcs as aligned columns, which the exports,
``counts`` and ``iso`` read without making one object per arc.  Its ids
are a topological order of 0..b-1, checked once, when a graph is made.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, eq, getitem, gt, itemgetter, le, lt, sub

from .stern import _block_transfer
from .words import decompose, minimal_expansion, render, validate_expansion

DEFAULT_LIMIT = 10**6
#: digits allowed per vertex of the limit: the words of H(n) may hold at most 64 * limit
DIGITS_PER_VERTEX = 64


class SizeLimitError(Exception):
    """Raised when H(n) would exceed the vertex limit, or its words 64 digits per vertex of it."""


class Label:
    SINGLE = "single"  # ->   patterns x02y -> x10y and 2y -> 10y
    DOUBLE = "double"  # ->>  pattern  x12y -> x20y


# position: zero-based index of the leftmost digit modified in the tail
Arc = namedtuple("Arc", "tail head label position")


def _children(w: str):
    """Yield (child, label, position) for each reduction of ``w``, ascending in position.

    Every reduction rewrites one ``2``; the digit before it picks the rule.
    The leading ``2y -> 10y`` rule (the only one that lengthens the word)
    is assigned position 0, where no other rule can apply.
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
    return list(_children(validate_expansion(w)))


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


def _walk(n: int, limit: int) -> tuple[list[tuple], str]:
    """The admissible tuples of block states, in id order.

    A vertex is a tuple x_1 ... x_k of block states, admissible when every
    long x_p (p >= 2) follows an x_(p-1) that ends in 0; its word joins
    the state words, each dropping its final 0 before a long state.
    Lexicographic order of the tuples is shortlex order of the words, so
    extending every prefix by the states of the next block in turn, level
    by level, emits the vertices in id order.  The arc x_p -> x_p + 1 goes
    C ids on, C the count of completions after x_p (which depends only on
    whether x_p ends in 0); its place is p, and it rewrites the digit
    r places from the end of the core word, r fixed by p and x_p.

    Returns one (core word, ends in 0, arc steps) per vertex, each arc
    step (stride, label, r, place) one tuple shared by all the vertices
    that take it, and n's trailing 1s; the tuples of states are not kept.
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
    level = [("", True, ())]
    width = sum(map(len, blocks))  # of the blocks after p
    for p, block in enumerate(blocks):
        width -= len(block)
        states = _block_states(block, p == 0)
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
        level = [
            (word[:-1] + w if drop else word + w, zero, arcs + arc)
            for word, e, arcs in level
            for w, drop, zero, arc in rows[e]
        ]
    return level, "1" * ones


def enumerate_expansions(n: int, limit: int = DEFAULT_LIMIT) -> list[str]:
    """H(n) in shortlex order: the words of the admissible tuples of block states."""
    level, ones = _walk(n, limit)
    return [word + ones for word, _, _ in level]


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
    ``out_arcs``, ``in_arcs`` or ``arc``.
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

    def in_arcs(self, v: int) -> tuple[Arc, ...]:
        return tuple(map(self.arcs.__getitem__, self.in_rows[self._vertex(v)]))

    def arc(self, tail: int, head: int) -> Arc | None:
        """The arc from ``tail`` to ``head``, or None."""
        i = self.find(self._vertex(tail), self._vertex(head))
        return None if i is None else self.arcs[i]


class ArcColumn(Mapping):
    """A read-only Mapping[Arc, value] over one more arc column of ``graph``."""

    def __init__(self, graph: HbGraph, column: Sequence):
        self.graph, self.column = graph, column

    def index(self, arc) -> int:
        """The index of ``arc`` in the graph's columns; ValueError if the graph has no such arc."""
        g = self.graph
        known = isinstance(arc, Arc) and 0 <= arc.tail < len(g.vertices)
        i = g.find(arc.tail, arc.head) if known else None
        if i is None or (g.labels[i], g.positions[i]) != (arc.label, arc.position):
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
    """Construct A(n) from the admissible tuples of its blocks' states.

    ``_walk`` gives the vertices in shortlex (id) order, lexicographic
    order of the tuples, and each vertex's arcs as coordinate steps in
    ascending place and so in ascending position: head = tail + the
    stride of the step.  Raises SizeLimitError before building anything
    when A(n) has more than ``limit`` vertices, or more than 64 digits
    per vertex of the limit.
    """
    return _graph(n, *_walk(n, limit))[0]


def _graph(n: int, level: list, ones: str) -> tuple[HbGraph, Iterator[int]]:
    """The graph on the vertices ``_walk`` returned, as columns, and each arc's place.

    Each column is one field of every arc step, in tail order, read off
    by C-level iterators: no per-arc Python code runs.  The places are an
    iterator, so a caller that drops them never builds their column.  The
    last vertex is the binary expansion.
    """
    words, _, steps = zip(*level)
    per_vertex = list(map(len, steps))

    def field(k: int):
        return map(itemgetter(k), chain.from_iterable(steps))

    ids = list(range(len(words)))  # the columns share these int objects, not one per arc
    tails = tuple(chain.from_iterable(map(repeat, ids, per_vertex)))
    heads = tuple(map(ids.__getitem__, map(add, tails, field(0))))
    lengths = chain.from_iterable(map(repeat, map(len, words), per_vertex))
    positions = tuple(map(sub, lengths, field(2)))
    vertices = tuple(word + ones for word in words)
    g = HbGraph(n, vertices, tails, heads, tuple(field(1)), positions)
    return g, field(3)


def counts(g: HbGraph) -> tuple[int, int, int]:
    """(b, a, v): vertex count, arc count, cyclomatic number a - b + 1."""
    b, a = len(g.vertices), len(g.tails)
    return (b, a, a - b + 1)


def descendants_subgraph(g: HbGraph, start: int) -> HbGraph:
    """Induced subgraph on ``start`` and everything reachable from it.

    The arcs are in tail order and each head lies above its tail, so one
    forward pass over the arcs marks every vertex reachable from ``start``.
    The marked vertices keep their order, and the arcs out of them (which
    end in marked vertices) keep theirs.
    """
    reach = [False] * len(g.vertices)
    reach[g._vertex(start)] = True
    for tail, head in zip(g.tails, g.heads):
        if reach[tail]:
            reach[head] = True
    rank = list(accumulate(reach, initial=0))  # the new id of each marked vertex
    kept = list(map(reach.__getitem__, g.tails))
    tails, heads = (tuple(map(rank.__getitem__, compress(c, kept))) for c in (g.tails, g.heads))
    vertices = tuple(compress(g.vertices, reach))
    return HbGraph(g.n, vertices, tails, heads, tuple(compress(g.labels, kept)),
                   tuple(compress(g.positions, kept)))


def export_chunks(g: HbGraph, fmt: str = "dot", place: ArcColumn | None = None,
                  size: int = 0) -> Iterator[str]:
    """The text of ``export_dot(g, place)``, or of ``export_json(g)`` for ``fmt`` "json", in chunks.

    An arc is three strings made up front: its tail's prefix, its head's name
    or id, and its end by label and place or position.  A chunk of ``size``
    arcs (0: all) is one join of a list filled from maps over the columns by
    extended-slice assignment, so no per-arc Python code runs.
    """
    if fmt == "dot":
        heads = list(map(render, g.vertices))
        tails = [f'  "{x}" -> "' for x in heads]
        start = f'digraph A{g.n} {{\n  "' + '";\n  "'.join(heads) + '";\n'
        stop, label = "}\n", {Label.SINGLE: "s", Label.DOUBLE: "d"}.__getitem__
        if place is not None and not (isinstance(place, ArcColumn) and place.graph is g):
            raise ValueError("place must be the graph's ArcColumn")
        values, end = (None, '" [label="{}"];\n') if place is None else (
            place.column, '" [label="{}" place={}];\n')
    else:
        heads = list(map(str, range(len(g.vertices))))
        tails = [f',{{"tail":{v},"head":' for v in heads]
        vertices = json.dumps(g.vertices, separators=(",", ":"))
        start, stop, label = f'{{"n":{g.n},"vertices":{vertices},"arcs":[', "]}", str
        values, end = g.positions, ',"label":"{}","position":{}}}'
    if values is None:  # the end depends on the label alone
        ends = map({x: end.format(label(x)) for x in set(g.labels)}.__getitem__, g.labels)
    else:
        table = {x: {v: end.format(label(x), v) for v in set(values)} for x in set(g.labels)}
        ends = map(getitem, map(table.__getitem__, g.labels), values)
    columns = (map(tails.__getitem__, g.tails), map(heads.__getitem__, g.heads), ends)
    count, size = len(g.tails), size or len(g.tails) or 1
    for lo in range(0, count or 1, size):  # an arcless graph gets one chunk
        pieces = [""] * (3 * min(size, count - lo) + 2)
        for k, column in enumerate(columns, 1):
            pieces[k:-1:3] = islice(column, size)
        if lo == 0:
            pieces[:2] = start, pieces[1].lstrip(",")  # the first arc drops JSON's comma
        pieces[-1] = stop if lo + size >= count else ""
        yield "".join(pieces)


def export_dot(g: HbGraph, place: ArcColumn | None = None) -> str:
    """Deterministic DOT rendering; optional per-arc ``place``, the graph's ``ArcColumn``."""
    return next(export_chunks(g, "dot", place))


def export_json(g: HbGraph) -> str:
    """Machine-readable JSON with the same deterministic ordering as DOT.

    The bytes are those of ``json.dumps`` with ``separators=(",", ":")`` on
    {"n", "vertices", "arcs"}, each arc an object {"tail", "head", "label",
    "position"}; the arcs hold only ints and the two label names, which
    need no escaping, so ``export_chunks`` joins them from the columns.
    """
    return next(export_chunks(g, "json"))
