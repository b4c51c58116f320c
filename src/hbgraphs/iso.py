"""Labeled-digraph isomorphism for graphs of hyperbinary expansions.

Two routes: the graph structure, and the arithmetic closed form (m and n
are related by repeated x -> 2x + 1).  Graphs with equal arc columns, as
every isomorphic pair of A-graphs has, get the identity in O(a); any other
pair goes to a backtracking search, anchored source-to-source and pruned
by per-label degree and height invariants, that yields every isomorphism.
Its setup is linear in the arc count a: one pass over each graph's arcs
gives every vertex signature, the height included, g2's vertices are
bucketed by signature in a dict, and one more pass lists g1's in-arcs.
Vertex ids are a topological order (``HbGraph`` refuses a graph whose ids
are not), so the search matches g1's vertices in id order and checks each
one's in-arcs, their images found by ``HbGraph.find``; no ``Arc`` is built.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator

from .graphs import HbGraph, build_graph
from .structure import Label
from .words import even_core

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Raised when the isomorphism search exceeds its node-expansion budget."""


class IsoWitness(namedtuple("IsoWitness", "mapping")):
    """A vertex bijection g1 -> g2 (by vertex id), arc- and label-preserving."""

    __slots__ = ()


def verify_witness(g1: HbGraph, g2: HbGraph, witness: IsoWitness) -> bool:
    """Check a witness arc-by-arc, in both directions."""
    m = witness.mapping
    if len(m) != len(g1.vertices) or sorted(m) != list(range(len(g2.vertices))):
        return False
    if len(g1.tails) != len(g2.tails):
        return False
    find2, labels2 = g2.find, g2.labels
    for tail, head, label in zip(g1.tails, g1.heads, g1.labels):
        i = find2(m[tail], m[head])
        if i is None or labels2[i] != label:
            return False
    return True


def _signatures(g: HbGraph) -> list[tuple[int, int, int]]:
    """(height, out key, in key) of every vertex, from one pass over the arcs.

    The height, the longest path's length to a vertex without out-arcs, is
    a DAG invariant; weight drops by 1 along each arc of A(n), so there it
    is the weight above the sink's.  Heads have higher ids than tails and
    the arcs are in tail order, so in reverse each head's height is final
    before a tail reads it.  Each arc adds 1 to the degree keys of its ends,
    and a DOUBLE arc also adds 2^32: a key packs (DOUBLE count, degree).
    """
    code = {Label.SINGLE: 1, Label.DOUBLE: 1 | 1 << 32}
    outs = [0] * len(g.vertices)
    ins = [0] * len(g.vertices)
    height = [0] * len(g.vertices)
    for tail, head, label in zip(reversed(g.tails), reversed(g.heads), reversed(g.labels)):
        c = code[label]
        outs[tail] += c
        ins[head] += c
        if height[tail] <= height[head]:
            height[tail] = height[head] + 1
    return list(zip(height, outs, ins))


def isomorphisms(g1: HbGraph, g2: HbGraph, budget: int = DEFAULT_BUDGET) -> Iterator[IsoWitness]:
    """Every edge-labeled directed-graph isomorphism g1 -> g2, in deterministic search order.

    Raises BudgetExceeded when the search, over the whole enumeration, expands
    more than ``budget`` nodes.  The g1 vertices are matched in id order, a
    topological order, so every vertex after the source has all its in-arcs
    from matched vertices, and a search node checks only those.  Each g1
    vertex tries the g2 vertices of its signature in ascending id order, and
    after each witness the search unmatches the last vertex and goes on.
    The search is its own ``verify_witness``: every g1 arc is checked, by
    ``find`` and its label, when its head is matched; ``used`` makes the map
    injective; and equal signature multisets give equal vertex and arc counts.
    """
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for w, sig in enumerate(_signatures(g2)):
        buckets.setdefault(sig, []).append(w)
    sigs1 = _signatures(g1)
    if Counter(sigs1) != {sig: len(ws) for sig, ws in buckets.items()}:
        return  # also when the vertex or arc counts differ
    candidates = [buckets[sig] for sig in sigs1]
    in_rows1: list[list[int]] = [[] for _ in sigs1]  # each g1 vertex's in-arc indices, ascending
    for i, head in enumerate(g1.heads):
        in_rows1[head].append(i)
    mapping: list[int] = []
    used: set[int] = set()
    expansions = 0
    find2, labels2, tails1, labels1 = g2.find, g2.labels, g1.tails, g1.labels  # bound once

    def consistent(v: int, w: int) -> bool:
        for i in in_rows1[v]:
            j = find2(mapping[tails1[i]], w)
            if j is None or labels2[j] != labels1[i]:
                return False
        return True

    # depth-first in id order; untried[v] holds the candidates left for v = len(mapping)
    untried = []
    while True:
        while (v := len(mapping)) < len(candidates):
            if len(untried) == v:
                untried.append(iter(candidates[v]))
            for w in untried[v]:
                if w in used:
                    continue
                expansions += 1
                if expansions > budget:
                    raise BudgetExceeded(f"isomorphism search exceeded budget {budget}")
                if consistent(v, w):
                    mapping.append(w)
                    used.add(w)
                    break
            else:
                untried.pop()
                if not mapping:
                    return
                used.discard(mapping.pop())
        yield IsoWitness(tuple(mapping))
        used.discard(mapping.pop())


def labeled_iso(g1: HbGraph, g2: HbGraph, budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """The first witness of ``isomorphisms``, or None.  Graphs with equal vertex counts and arc
    columns, as every isomorphic pair of A-graphs has, get the identity in O(a), before any
    signature or search node, so ``budget`` bounds only pairs whose columns differ."""
    b = len(g1.vertices)
    if b == len(g2.vertices) and (g1.tails, g1.heads, g1.labels) == (g2.tails, g2.heads, g2.labels):
        return IsoWitness(tuple(range(b)))
    return next(isomorphisms(g1, g2, budget), None)


def iso_closed_form(m: int, n: int) -> bool:
    """True iff A(m) and A(n) are isomorphic as edge-labeled directed graphs.

    Equivalent to the existence of t >= 0 with m = 2^t n + 2^t - 1 or
    n = 2^t m + 2^t - 1, i.e. equal even cores.
    """
    return even_core(m)[0] == even_core(n)[0]


def a10_automorphism() -> IsoWitness:
    """The nontrivial automorphism of A(10), which swaps 210 and 1002, read off the search."""
    g = build_graph(10)
    return next(w for w in isomorphisms(g, g) if w.mapping != tuple(range(len(g.vertices))))
