"""Labeled-digraph isomorphism for graphs of hyperbinary expansions.

Two routes: a backtracking search over the graph structure, and the
arithmetic closed form (m and n are related by repeated x -> 2x + 1).
The search is anchored source-to-source and pruned by per-label degree
and weight-level invariants; graphs here are small enough that no
canonical-labeling machinery is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import HbGraph, build_graph
from .words import weight

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Raised when the isomorphism search exceeds its node-expansion budget."""


@dataclass(frozen=True)
class IsoWitness:
    """A vertex bijection g1 -> g2 (by vertex id), arc- and label-preserving."""

    mapping: tuple[int, ...]

    def image(self, v: int) -> int:
        return self.mapping[v]

    def inverse(self) -> "IsoWitness":
        inv = [0] * len(self.mapping)
        for v, w in enumerate(self.mapping):
            inv[w] = v
        return IsoWitness(tuple(inv))

    def compose(self, other: "IsoWitness") -> "IsoWitness":
        """self after other (apply other first)."""
        return IsoWitness(tuple(self.mapping[w] for w in other.mapping))


def verify_witness(
    g1: HbGraph, g2: HbGraph, witness: IsoWitness, ignore_labels: bool = False
) -> bool:
    """Check a witness arc-by-arc, in both directions."""
    m = witness.mapping
    if len(m) != len(g1.vertices) or sorted(m) != list(range(len(g2.vertices))):
        return False
    if len(g1.arcs) != len(g2.arcs):
        return False
    for a in g1.arcs:
        img = g2.arc_by_pair.get((m[a.tail], m[a.head]))
        if img is None or (not ignore_labels and img.label != a.label):
            return False
    return True


def _level(g: HbGraph, v: int) -> int:
    # weight drops by 1 per arc, so weight above the sink is an invariant
    return weight(g.vertices[v]) - weight(g.vertices[g.sink])


def _signature(g: HbGraph, v: int, ignore_labels: bool):
    outs = g.out_arcs(v)
    ins = g.in_arcs(v)
    if ignore_labels:
        return (_level(g, v), len(outs), len(ins))
    out_labels = tuple(sorted(a.label for a in outs))
    in_labels = tuple(sorted(a.label for a in ins))
    return (_level(g, v), out_labels, in_labels)


def labeled_iso(
    g1: HbGraph,
    g2: HbGraph,
    ignore_labels: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> IsoWitness | None:
    """Find an edge-labeled directed-graph isomorphism g1 -> g2, if any.

    Returns the first witness in deterministic search order, or None.
    Raises BudgetExceeded if the search expands more than ``budget`` nodes.
    """
    n1, n2 = len(g1.vertices), len(g2.vertices)
    if n1 != n2 or len(g1.arcs) != len(g2.arcs):
        return None
    sigs1 = [_signature(g1, v, ignore_labels) for v in range(n1)]
    sigs2 = [_signature(g2, v, ignore_labels) for v in range(n2)]
    if sorted(sigs1) != sorted(sigs2):
        return None

    # order g1's vertices so each one is adjacent to an earlier one
    order = [g1.source]
    placed = {g1.source}
    while len(order) < n1:
        progressed = False
        for v in list(order):
            for arc in g1.out_arcs(v) + g1.in_arcs(v):
                for u in (arc.head, arc.tail):
                    if u not in placed:
                        order.append(u)
                        placed.add(u)
                        progressed = True
        if not progressed:
            raise AssertionError("graph is not connected")

    candidates = [[w for w in range(n2) if sigs2[w] == sigs1[v]] for v in range(n1)]
    mapping: dict[int, int] = {}
    used: set[int] = set()
    expansions = 0

    def consistent(v: int, w: int) -> bool:
        for arc in g1.out_arcs(v):
            if arc.head in mapping:
                img = g2.arc_by_pair.get((w, mapping[arc.head]))
                if img is None or (not ignore_labels and img.label != arc.label):
                    return False
        for arc in g1.in_arcs(v):
            if arc.tail in mapping:
                img = g2.arc_by_pair.get((mapping[arc.tail], w))
                if img is None or (not ignore_labels and img.label != arc.label):
                    return False
        return True

    # depth-first over order; untried[i] holds the candidates left for order[i]
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
            if expansions > budget:
                raise BudgetExceeded(f"isomorphism search exceeded budget {budget}")
            if consistent(v, w):
                mapping[v] = w
                used.add(w)
                i += 1
                break
        else:
            untried.pop()
            if i == 0:
                return None
            i -= 1
            used.discard(mapping.pop(order[i]))
    witness = IsoWitness(tuple(mapping[v] for v in range(n1)))
    if not verify_witness(g1, g2, witness, ignore_labels):
        raise AssertionError("search produced an invalid witness")
    return witness


def even_core(n: int) -> tuple[int, int]:
    """Strip trailing binary 1s: n = 2^t * m + 2^t - 1 with m even.

    t is the index of the lowest set bit of n + 1 = 2^t (m + 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = ((n + 1) & -(n + 1)).bit_length() - 1
    return (n >> t, t)


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
    witness = IsoWitness(tuple(mapping))
    if not verify_witness(g, g, witness):
        raise AssertionError("the 210 <-> 1002 swap is not an automorphism of A(10)")
    return witness
