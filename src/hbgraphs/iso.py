"""Labeled-digraph isomorphism for graphs of hyperbinary expansions.

Two routes: the graph structure, and the arithmetic closed form (m and n
are related by repeated x -> 2x + 1).  Graphs with equal arc columns, as
every isomorphic pair of A-graphs has, get the identity in O(a); any other
pair goes to a backtracking search, anchored source-to-source and pruned
by per-label degree and height invariants.  Its setup is linear in the arc
count a: one pass over each graph's arcs gives every vertex signature, the
height included, and g2's vertices are bucketed by signature in a dict.
Vertex ids are a topological order (``HbGraph`` refuses a graph whose ids
are not), so the search matches g1's vertices in id order and checks each
one's in-arcs, read from g1's ``in_rows``.  The graphs are read as arc
columns, and the arc joining a pair is found by ``HbGraph.find``, a scan
of the tail's run of ``heads``; no ``Arc`` object is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import HbGraph, Label, build_graph
from .words import even_core

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Raised when the isomorphism search exceeds its node-expansion budget."""


@dataclass(frozen=True)
class IsoWitness:
    """A vertex bijection g1 -> g2 (by vertex id), arc- and label-preserving."""

    mapping: tuple[int, ...]


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


def labeled_iso(g1: HbGraph, g2: HbGraph, budget: int = DEFAULT_BUDGET) -> IsoWitness | None:
    """Find an edge-labeled directed-graph isomorphism g1 -> g2, if any.

    Returns the first witness in deterministic search order, or None.
    Raises BudgetExceeded if the search expands more than ``budget`` nodes.
    The g1 vertices are matched in id order, a topological order, so every
    vertex after the source has all its in-arcs (``g1.in_rows``) from matched
    vertices, and a search node checks only those.  Each g1 vertex tries the
    g2 vertices of its signature in ascending id order.  Graphs with equal
    vertex counts and arc columns, as every isomorphic pair of A-graphs has,
    get the identity in O(a), before any signature or search node; the search
    would find it too, so ``budget`` bounds only pairs whose columns differ.
    The search is its own ``verify_witness``: every g1 arc is checked, by
    ``find`` and its label, when its head is matched; ``used`` makes the map
    injective; and equal signature multisets give equal vertex and arc counts.
    """
    b = len(g1.vertices)
    if b == len(g2.vertices) and (g1.tails, g1.heads, g1.labels) == (g2.tails, g2.heads, g2.labels):
        return IsoWitness(tuple(range(b)))
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for w, sig in enumerate(_signatures(g2)):
        buckets.setdefault(sig, []).append(w)
    sigs1 = _signatures(g1)
    if Counter(sigs1) != {sig: len(ws) for sig, ws in buckets.items()}:
        return None  # also when the vertex or arc counts differ
    candidates = [buckets[sig] for sig in sigs1]
    mapping: list[int] = []
    used: set[int] = set()
    expansions = 0
    find2, labels2 = g2.find, g2.labels  # bound once, used on every search node
    in_rows1, tails1, labels1 = g1.in_rows, g1.tails, g1.labels

    def consistent(v: int, w: int) -> bool:
        for i in in_rows1[v]:
            j = find2(mapping[tails1[i]], w)
            if j is None or labels2[j] != labels1[i]:
                return False
        return True

    # depth-first in id order; untried[v] holds the candidates left for v = len(mapping)
    untried = []
    while len(mapping) < len(candidates):
        v = len(mapping)
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
                return None
            used.discard(mapping.pop())
    return IsoWitness(tuple(mapping))


def iso_closed_form(m: int, n: int) -> bool:
    """True iff A(m) and A(n) are isomorphic as edge-labeled directed graphs.

    Equivalent to the existence of t >= 0 with m = 2^t n + 2^t - 1 or
    n = 2^t m + 2^t - 1, i.e. equal even cores.
    """
    return even_core(m)[0] == even_core(n)[0]


def a10_automorphism() -> IsoWitness:
    """The nontrivial automorphism of A(10): swaps 210 and 1002, fixes the rest."""
    g = build_graph(10)
    idx = g.index
    mapping = list(range(len(g.vertices)))
    mapping[idx["210"]] = idx["1002"]
    mapping[idx["1002"]] = idx["210"]
    return IsoWitness(tuple(mapping))
