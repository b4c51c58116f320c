"""The edge-labeled directed graph A(n) of hyperbinary expansions.

Vertices are the expansions in H(n) (shortlex-sorted, ids are positions in
that order); arcs are the single-step reductions among them, labeled
SINGLE (->) or DOUBLE (->>).  A completed graph is immutable.

A(n) is generated as an induced subgraph of the Cartesian product of its
blocks' path graphs (``_walk``): a vertex is an admissible tuple of block
states, whose lexicographic order is the shortlex order of the words, and
an arc steps one coordinate, to the vertex a fixed stride of ids on (the
count of completions after the stepped state).  So the vertices come out
in id order and the arcs in (tail, position) order, with no closure over
words, no sort and no table of words; the vertex count and a bound on the
digits of the words are known, and checked against the limit, before
anything is built.

``HbGraph`` keeps the arcs as aligned columns, which the exports,
``counts`` and ``iso`` read without making one object per arc.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import add, itemgetter, sub

from .words import decompose, minimal_expansion, render, validate_expansion

DEFAULT_LIMIT = 10**6
#: digits allowed per vertex of the limit: the words of H(n) may hold at most 64 * limit
DIGITS_PER_VERTEX = 64


class SizeLimitError(Exception):
    """Raised when H(n) would exceed the vertex limit, or its words 64 digits per vertex of it."""


class Label:
    SINGLE = "single"  # ->   patterns x02y -> x10y and 2y -> 10y
    DOUBLE = "double"  # ->>  pattern  x12y -> x20y


#: one-letter codes used in DOT output
_DOT_LABEL = {Label.SINGLE: "s", Label.DOUBLE: "d"}


@dataclass(frozen=True, slots=True)
class Arc:
    tail: int
    head: int
    label: str
    position: int  # zero-based index of the leftmost digit modified in the tail


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


def _flags(block: str, s: int) -> tuple[bool, bool]:
    """(long, ends in 0) of state s of a block; every block has len(block) + 1 states.

    A state is long when its word is longer than the block's.
    """
    if block[0] == "1":
        return s == len(block), s > 0
    return s > 0, s == len(block)


def _block_states(block: str, first: bool) -> list[tuple[str, bool, bool, tuple | None]]:
    """The path of one block's expansions, in closed form, from the block word on.

    Each state is (word, long, ends in 0, step), ``step`` the (label, local
    position) of the arc to the next state, None for the last.  The leading
    ``2y -> 10y`` step rewrites the 0 before the block: local position -1,
    or 0 for the first block.
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
    return [(w, *_flags(block, s), step) for s, (w, step) in enumerate(zip(words, steps))]


def _walk(
    n: int, limit: int, lower: list[int] | None = None, factors: bool = False
) -> tuple[list[tuple], str]:
    """The admissible tuples of block states at or above ``lower``, in id order.

    A vertex is a tuple x_1 ... x_k of block states, admissible when every
    long x_p (p >= 2) follows an x_(p-1) that ends in 0; its word joins
    the state words, each dropping its final 0 before a long state.
    Lexicographic order of the tuples is shortlex order of the words, so
    extending every prefix by the states of the next block in turn, level
    by level, emits the vertices in id order.  The arc x_p -> x_p + 1 goes
    C ids on, C the count of completions after x_p (which depends only on
    whether x_p ends in 0); its place is p, and it rewrites the digit
    r places from the end of the core word, r fixed by p and x_p.

    Returns one (core word, ends in 0, arc steps, state words) per vertex,
    each arc step (stride, label, r, place) one tuple shared by all the
    vertices that take it, the state words only with ``factors``, and n's
    trailing 1s.  Raises
    SizeLimitError, before any state word is made, when there are more
    than ``limit`` tuples, or when they times n's bit length (the longest
    word) exceeds ``DIGITS_PER_VERTEX * limit`` digits.
    """
    blocks, ones = decompose(minimal_expansion(n))
    lower = lower or [0] * len(blocks)
    # counts[p][e]: the admissible completions from block p on, after a state that ends
    # in 0 iff e, capped above ``limit`` so that a refused n costs no big ints (every
    # count in use is at most the vertex count)
    counts = [(1, 1)]
    for block, lo in zip(reversed(blocks), reversed(lower)):
        after, count = counts[-1], [0, 0]
        for s in range(lo, len(block) + 1):
            long, zero = _flags(block, s)
            count[0] += 0 if long else after[zero]
            count[1] += after[zero]
        counts.append(tuple(min(c, limit + 1) for c in count))
    counts.reverse()
    bits = n.bit_length()  # the longest word's length; n itself may be too long to print
    if counts[0][1] > limit:
        raise SizeLimitError(f"|H(n)| exceeds limit {limit} for n of {bits} bits")
    if counts[0][1] * bits > DIGITS_PER_VERTEX * limit:
        raise SizeLimitError(f"{counts[0][1]} words of up to {bits} digits may exceed"
                             f" {DIGITS_PER_VERTEX} * limit {limit} digits")
    level = [("", True, (), ())]
    width = sum(map(len, blocks))  # of the blocks after p
    for p, (block, lo) in enumerate(zip(blocks, lower)):
        width -= len(block)
        states = _block_states(block, p == 0)
        rows = ([], [])  # rows[e]: the states, and their arcs, after one that ends in 0 iff e
        for s in range(lo, len(states)):
            w, long, zero, step = states[s]
            for e in (0, 1) if not long else (1,):
                arc = ()
                if step and (e or not states[s + 1][1]):
                    # x_p ... x_k take width + len(w) digits: a final 0 that x_p
                    # drops comes back as the extra digit of the long x_(p+1)
                    label, local = step
                    arc = ((counts[p + 1][zero], label, width + len(w) - local, p + 1),)
                rows[e].append((w, long and p > 0, zero, arc, (w,) if factors else ()))
        level = [
            (word[:-1] + w if drop else word + w, zero, arcs + arc, words + factor)
            for word, e, arcs, words in level
            for w, drop, zero, arc, factor in rows[e]
        ]
    return level, "1" * ones


def enumerate_expansions(n: int, limit: int = DEFAULT_LIMIT) -> list[str]:
    """H(n) in shortlex order: the words of the admissible tuples of block states."""
    level, ones = _walk(n, limit)
    return [word + ones for word, *_ in level]


@dataclass(frozen=True)
class HbGraph:
    """A(n), its arcs as aligned columns in (tail, position) order: arc i is tails[i] -> heads[i].

    ``Arc`` objects are all made at once, on the first read of ``arcs``,
    ``out_arcs``, ``in_arcs`` or ``arc``.
    """

    n: int
    vertices: tuple[str, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    labels: tuple[str, ...]
    positions: tuple[int, ...]
    source: int
    sink: int

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.vertices)}

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(map(Arc, self.tails, self.heads, self.labels, self.positions))

    @cached_property
    def out_offsets(self) -> list[int]:
        """The arcs out of v are those with out_offsets[v] <= index < out_offsets[v + 1]."""
        return [bisect_left(self.tails, v) for v in range(len(self.vertices) + 1)]

    @cached_property
    def out_heads(self) -> list[tuple[int, ...]]:
        """Each vertex's run of ``heads``, prebuilt: ``find`` scans it faster than a range."""
        off = self.out_offsets
        return [self.heads[off[v] : off[v + 1]] for v in range(len(self.vertices))]

    @cached_property
    def in_rows(self) -> list[list[int]]:
        """The indices of each vertex's in-arcs, ascending."""
        rows: list[list[int]] = [[] for _ in self.vertices]
        for i, head in enumerate(self.heads):
            rows[head].append(i)
        return rows

    def find(self, tail: int, head: int) -> int | None:
        """The index of the arc from vertex ``tail`` to ``head``, or None; ids are not checked."""
        row = self.out_heads[tail]
        return self.out_offsets[tail] + row.index(head) if head in row else None

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
        """The arc from ``tail`` to ``head``, or None: at most one joins an ordered pair."""
        i = self.find(self._vertex(tail), self._vertex(head))
        return None if i is None else self.arcs[i]


class ArcColumn(Mapping):
    """A read-only Mapping[Arc, value] over one more arc column of ``graph``; no hashing."""

    def __init__(self, graph: HbGraph, values: Sequence):
        self.graph, self.values = graph, values

    def __getitem__(self, arc):
        g = self.graph
        known = isinstance(arc, Arc) and 0 <= arc.tail < len(g.vertices)
        i = g.find(arc.tail, arc.head) if known else None
        if i is None or (g.labels[i], g.positions[i]) != (arc.label, arc.position):
            raise KeyError(arc)
        return self.values[i]

    def __iter__(self):
        return iter(self.graph.arcs)

    def __len__(self) -> int:
        return len(self.values)


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
    words, _, steps, _ = zip(*level)
    per_vertex = list(map(len, steps))

    def field(k: int):
        return map(itemgetter(k), chain.from_iterable(steps))

    ids = list(range(len(words)))  # the columns share these int objects, not one per arc
    tails = tuple(chain.from_iterable(map(repeat, ids, per_vertex)))
    heads = tuple(map(ids.__getitem__, map(add, tails, field(0))))
    lengths = chain.from_iterable(map(repeat, map(len, words), per_vertex))
    positions = tuple(map(sub, lengths, field(2)))
    vertices = tuple(word + ones for word in words)
    g = HbGraph(n, vertices, tails, heads, tuple(field(1)), positions, 0, len(vertices) - 1)
    return g, field(3)


def counts(g: HbGraph) -> tuple[int, int, int]:
    """(b, a, v): vertex count, arc count, cyclomatic number a - b + 1."""
    b = len(g.vertices)
    a = len(g.tails)
    return (b, a, a - b + 1)


def descendants_subgraph(g: HbGraph, start: int) -> HbGraph:
    """Induced subgraph on ``start`` and everything reachable from it.

    Every arc steps one block coordinate up, and every admissible tuple at
    or above ``start``'s coordinatewise is reached from it, so this is the
    graph of the tuples whose coordinates are bounded below by ``start``'s.
    """
    if not 0 <= start < len(g.vertices):
        raise ValueError(f"unknown vertex id {start}")
    blocks, _ = decompose(minimal_expansion(g.n))
    word, lower, at = g.vertices[start], [], 0
    for p, block in enumerate(blocks):
        # the one state whose word, less a final 0 dropped before a long state, starts here
        for s, (w, _, zero, _) in enumerate(_block_states(block, p == 0)):
            if word.startswith(w[:-1] if zero else w, at):
                break
        lower.append(s)
        # the 0 was dropped iff the digit in its place is the long next state's leading 1
        at += len(w) - (zero and word[at + len(w) - 1] == "1")
    # a limit that a subgraph of g always meets: at most b(g) vertices of at most
    # n's bit length digits each
    limit = len(g.vertices) * max(1, g.n.bit_length())
    return _graph(g.n, *_walk(g.n, limit, lower))[0]


def export_dot(g: HbGraph, place: Mapping[Arc, int] | None = None) -> str:
    """Deterministic DOT rendering; optional per-arc ``place``, read by index if an ArcColumn."""
    names = [render(w) for w in g.vertices]
    columns = zip(g.tails, g.heads, g.labels)
    if place is None:
        arc_lines = (f'  "{names[t]}" -> "{names[h]}" [label="{_DOT_LABEL[x]}"];'
                     for t, h, x in columns)
    else:
        places = place.values if isinstance(place, ArcColumn) and place.graph is g else (
            [place[a] for a in g.arcs])
        arc_lines = (f'  "{names[t]}" -> "{names[h]}" [label="{_DOT_LABEL[x]}" place={p}];'
                     for (t, h, x), p in zip(columns, places))
    # one list of lines; the closing "" gives the final newline without a copy of the text
    lines = [f"digraph A{g.n} {{", *(f'  "{name}";' for name in names), *arc_lines, "}", ""]
    return "\n".join(lines)


def export_json(g: HbGraph) -> str:
    """Machine-readable JSON with the same deterministic ordering as DOT.

    The bytes are those of ``json.dumps`` with ``separators=(",", ":")`` on
    {"n", "vertices", "arcs"}, each arc an object {"tail", "head", "label",
    "position"}; the arcs hold only ints and the two label names, which
    need no escaping, so they are written directly from the columns.
    """
    vertices = json.dumps(g.vertices, separators=(",", ":"))
    arcs = ",".join(
        f'{{"tail":{t},"head":{h},"label":"{x}","position":{p}}}'
        for t, h, x, p in zip(g.tails, g.heads, g.labels, g.positions)
    )
    return f'{{"n":{g.n},"vertices":{vertices},"arcs":[{arcs}]}}'
