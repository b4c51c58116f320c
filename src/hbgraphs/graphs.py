"""The edge-labeled directed graph A(n) of hyperbinary expansions.

Vertices are the expansions in H(n) (shortlex-sorted, ids are positions in
that order); arcs are the single-step reductions among them, labeled
SINGLE (->) or DOUBLE (->>).  A completed graph is immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .words import binary_expansion, minimal_expansion, render, validate_expansion

DEFAULT_LIMIT = 10**6


class SizeLimitError(Exception):
    """Raised when H(n) would exceed the requested vertex limit."""


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


def _closure(n: int, seed: str, limit: int, children: list | None = None) -> dict[str, int]:
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


def _shortlex_sorted(words) -> list[str]:
    out = sorted(words)
    out.sort(key=len)  # stable: equal lengths keep lexicographic order
    return out


def enumerate_expansions(n: int, limit: int = DEFAULT_LIMIT) -> list[str]:
    """H(n) in shortlex order, as the reduction closure of the minimal expansion."""
    return _shortlex_sorted(_closure(n, minimal_expansion(n), limit))


@dataclass(frozen=True)
class HbGraph:
    n: int
    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    source: int
    sink: int

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.vertices)}

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[Arc, ...], ...], tuple[tuple[Arc, ...], ...]]:
        """(out-rows, in-rows): each vertex's arcs as tail and as head, in ``arcs`` order."""
        outs: list[list[Arc]] = [[] for _ in self.vertices]
        ins: list[list[Arc]] = [[] for _ in self.vertices]
        for a in self.arcs:
            outs[a.tail].append(a)
            ins[a.head].append(a)
        return tuple(map(tuple, outs)), tuple(map(tuple, ins))

    def out_arcs(self, v: int) -> tuple[Arc, ...]:
        return self._adjacency[0][v]

    def in_arcs(self, v: int) -> tuple[Arc, ...]:
        return self._adjacency[1][v]

    def arc(self, tail: int, head: int) -> Arc | None:
        """The arc from ``tail`` to ``head``, or None: at most one joins an ordered pair."""
        for a in self._adjacency[0][tail]:
            if a.head == head:
                return a
        return None


def build_graph(n: int, limit: int = DEFAULT_LIMIT) -> HbGraph:
    """Construct A(n) by breadth-first closure from the minimal expansion.

    Each vertex is expanded once; its children are kept as discovery ids
    and remapped to shortlex ranks.  Children come in ascending position,
    so the arcs come out in (tail, position) order without a sort.
    """
    return _closed_graph(n, minimal_expansion(n), limit)


def _closed_graph(n: int, seed: str, limit: int) -> HbGraph:
    """The graph on the reduction closure of ``seed``, as ``build_graph`` describes."""
    children: list[list[tuple[int, str, int]]] = []
    ids = _closure(n, seed, limit, children)
    verts = _shortlex_sorted(ids)
    rank = [0] * len(verts)
    for r, w in enumerate(verts):
        rank[ids[w]] = r
    arcs = []
    for r, w in enumerate(verts):
        i = ids[w]
        arcs += [Arc(r, rank[cid], label, pos) for cid, label, pos in children[i]]
        children[i] = None  # the arcs reuse the memory of the freed child records
    # the binary expansion is reachable from every expansion of n
    return HbGraph(
        n=n,
        vertices=tuple(verts),
        arcs=tuple(arcs),
        source=rank[0],
        sink=rank[ids[binary_expansion(n)]],
    )


def counts(g: HbGraph) -> tuple[int, int, int]:
    """(b, a, v): vertex count, arc count, cyclomatic number a - b + 1."""
    b = len(g.vertices)
    a = len(g.arcs)
    return (b, a, a - b + 1)


def descendants_subgraph(g: HbGraph, start: int) -> HbGraph:
    """Induced subgraph on ``start`` and everything reachable from it.

    That is the graph on the closure of ``start``'s word: the reductions
    of a descendant are descendants, so the closure's arcs are the induced ones.
    """
    if not 0 <= start < len(g.vertices):
        raise ValueError(f"unknown vertex id {start}")
    return _closed_graph(g.n, g.vertices[start], len(g.vertices))


def export_dot(g: HbGraph, place: dict[Arc, int] | None = None) -> str:
    """Deterministic DOT rendering; optional per-arc ``place`` attributes."""
    names = [render(w) for w in g.vertices]
    arc_lines = (
        f'  "{names[a.tail]}" -> "{names[a.head]}" [label="{_DOT_LABEL[a.label]}"'
        + ("];" if place is None else f" place={place[a]}];")
        for a in g.arcs
    )
    # one list of lines; the closing "" gives the final newline without a copy of the text
    lines = [f"digraph A{g.n} {{", *(f'  "{name}";' for name in names), *arc_lines, "}", ""]
    return "\n".join(lines)


def export_json(g: HbGraph) -> str:
    """Machine-readable JSON with the same deterministic ordering as DOT.

    The bytes are those of ``json.dumps`` with ``separators=(",", ":")`` on
    {"n", "vertices", "arcs"}, each arc an object {"tail", "head", "label",
    "position"}; the arcs hold only ints and the two label names, which
    need no escaping, so they are written directly.
    """
    vertices = json.dumps(g.vertices, separators=(",", ":"))
    arcs = ",".join(
        f'{{"tail":{a.tail},"head":{a.head},"label":"{a.label}","position":{a.position}}}'
        for a in g.arcs
    )
    return f'{{"n":{g.n},"vertices":{vertices},"arcs":[{arcs}]}}'
